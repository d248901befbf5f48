// Decoder robustness: every parser in the system must survive arbitrary
// bytes — returning Corruption (or, rarely, a spurious success whose output
// is at least well-formed) rather than crashing or over-allocating. These are
// deterministic fuzz-smoke sweeps, not coverage-guided fuzzing, but they run
// thousands of adversarial inputs through each decoder.

#include <gtest/gtest.h>

#include "src/common/coding.h"
#include "src/common/cpu_features.h"
#include "src/common/random.h"
#include "src/compress/compressor.h"
#include "src/core/pack.h"
#include "src/crypto/crypto.h"
#include "src/crypto/ope.h"
#include "src/crypto/padding.h"
#include "src/kvstore/commit_log.h"
#include "src/kvstore/row.h"

namespace minicrypt {
namespace {

std::string RandomGarbage(Rng* rng, size_t max_len) {
  return rng->Bytes(rng->Uniform(max_len + 1));
}

// Random bytes with a plausible-looking header (more likely to get past the
// first parse stage and exercise deeper code).
std::string SeededGarbage(Rng* rng, std::string_view valid_prefix, size_t max_tail) {
  std::string out(valid_prefix.substr(0, rng->Uniform(valid_prefix.size() + 1)));
  out += rng->Bytes(rng->Uniform(max_tail + 1));
  return out;
}

TEST(FuzzSmoke, CodecDecompressSurvivesGarbage) {
  Rng rng(11);
  for (std::string_view name : AllCompressorNames()) {
    const Compressor* codec = FindCompressor(name);
    const std::string valid = *codec->Compress("some perfectly ordinary payload data");
    for (int i = 0; i < 400; ++i) {
      const std::string input = i % 2 == 0 ? RandomGarbage(&rng, 300)
                                           : SeededGarbage(&rng, valid, 100);
      auto out = codec->Decompress(input);
      if (out.ok()) {
        EXPECT_LE(out->size(), 1u << 20) << name;  // no absurd allocation
      }
    }
  }
}

// Prefix decodes (what bounded pack opens run) over garbage, cut frames and
// flipped bytes: they fail closed or return at most the declared raw_size.
TEST(FuzzSmoke, CodecPrefixDecodeSurvivesGarbage) {
  Rng rng(43);
  std::string payload;
  while (payload.size() < 40000) {
    payload += "row " + std::to_string(payload.size()) + " some ordinary payload ";
    payload += rng.Bytes(rng.Uniform(12));
  }
  for (std::string_view name : {"snappylike", "lz4like", "zlib", "zlib9", "bzip2", "lzma", "rle"}) {
    const Compressor* codec = FindCompressor(name);
    ASSERT_NE(codec, nullptr) << name;
    const std::string valid = *codec->Compress(payload);
    for (int i = 0; i < 300; ++i) {
      std::string input;
      switch (i % 4) {
        case 0:
          input = RandomGarbage(&rng, 300);
          break;
        case 1:
          input = SeededGarbage(&rng, valid, 300);
          break;
        case 2:
          input = valid.substr(0, rng.Uniform(valid.size()));
          break;
        default:
          input = valid;
          input[rng.Uniform(input.size())] ^= static_cast<char>(1 + rng.Uniform(255));
          break;
      }
      const size_t want = rng.Uniform(payload.size() + 1);
      auto out = codec->DecompressPrefix(
          input, [&](std::string_view prefix) { return prefix.size() >= want; });
      if (out.ok()) {
        EXPECT_LE(out->bytes.size(), out->raw_size) << name;
        EXPECT_LE(out->raw_size, uint64_t{1} << 32) << name;
      }
    }
  }
}

TEST(FuzzSmoke, BoundedPackParseSurvivesGarbage) {
  Rng rng(47);
  std::vector<Pack::Entry> entries;
  for (uint64_t k = 0; k < 20; ++k) {
    entries.push_back({EncodeKey64(k * 3), rng.Bytes(rng.Uniform(40))});
  }
  const std::string valid = Pack::FromSorted(std::move(entries))->Serialize();
  for (int i = 0; i < 2000; ++i) {
    const std::string through = EncodeKey64(rng.Uniform(70));
    std::string input = i % 2 == 0 ? SeededGarbage(&rng, valid, 200)
                                   : valid.substr(0, rng.Uniform(valid.size() + 1));
    (void)Pack::PassesBound(input, through);
    auto pack = Pack::FromSerialized(std::move(input), through);
    if (pack.ok()) {
      EXPECT_FALSE(pack->complete());
      for (const auto& e : pack->entries()) {
        EXPECT_LE(e.key, through);
      }
    }
  }
}

// The SIMD decompress fast paths must be exactly as robust as the scalar
// oracle: run the same adversarial sweep at every dispatch level the host
// supports and require identical ok/corruption verdicts (and bytes).
TEST(FuzzSmoke, CodecDecompressGarbageAgreesAcrossDispatchLevels) {
  const SimdLevel ambient = CurrentSimdLevel();
  const auto levels = SupportedSimdLevels();
  for (std::string_view name : {"lz4like", "snappylike"}) {
    const Compressor* codec = FindCompressor(name);
    Rng rng(41);
    const std::string valid = *codec->Compress("some perfectly ordinary payload data");
    for (int i = 0; i < 300; ++i) {
      const std::string input = i % 2 == 0 ? RandomGarbage(&rng, 300)
                                           : SeededGarbage(&rng, valid, 100);
      OverrideSimdLevelForTest(SimdLevel::kScalar);
      const auto scalar = codec->Decompress(input);
      for (SimdLevel level : levels) {
        OverrideSimdLevelForTest(level);
        const auto out = codec->Decompress(input);
        ASSERT_EQ(out.ok(), scalar.ok()) << name << " level " << SimdLevelName(level);
        if (out.ok()) {
          ASSERT_EQ(*out, *scalar) << name << " level " << SimdLevelName(level);
        }
      }
    }
  }
  OverrideSimdLevelForTest(ambient);
}

TEST(FuzzSmoke, PackDeserializeSurvivesGarbage) {
  Rng rng(13);
  Pack pack;
  pack.Upsert(EncodeKey64(1), "one");
  pack.Upsert(EncodeKey64(2), "two");
  const std::string valid = pack.Serialize();
  for (int i = 0; i < 1000; ++i) {
    const std::string input =
        i % 2 == 0 ? RandomGarbage(&rng, 200) : SeededGarbage(&rng, valid, 60);
    auto out = Pack::Deserialize(input);
    if (out.ok()) {
      // A spurious parse must still satisfy the sorted-unique invariant.
      const auto& entries = out->entries();
      for (size_t j = 1; j < entries.size(); ++j) {
        EXPECT_LT(entries[j - 1].key, entries[j].key);
      }
    }
  }
}

// The zero-copy adopt path must reject exactly what the copying path rejects
// and produce identical entries when both accept.
TEST(FuzzSmoke, PackFromSerializedMatchesDeserializeOnGarbage) {
  Rng rng(47);
  Pack pack;
  pack.Upsert(EncodeKey64(1), "one");
  pack.Upsert(EncodeKey64(2), "two");
  const std::string valid = pack.Serialize();
  for (int i = 0; i < 500; ++i) {
    const std::string input =
        i % 2 == 0 ? RandomGarbage(&rng, 200) : SeededGarbage(&rng, valid, 60);
    const auto copied = Pack::Deserialize(input);
    std::string adopt_me = input;
    const auto adopted = Pack::FromSerialized(std::move(adopt_me));
    ASSERT_EQ(copied.ok(), adopted.ok());
    if (copied.ok()) {
      ASSERT_EQ(copied->entries().size(), adopted->entries().size());
      for (size_t j = 0; j < copied->entries().size(); ++j) {
        EXPECT_EQ(copied->entries()[j].key, adopted->entries()[j].key);
        EXPECT_EQ(copied->entries()[j].value, adopted->entries()[j].value);
      }
    }
  }
}

TEST(FuzzSmoke, RowDecodeSurvivesGarbage) {
  Rng rng(17);
  Row row;
  row.cells["v"] = Cell{"value", 3, false};
  std::string valid;
  EncodeRow(row, &valid);
  for (int i = 0; i < 1000; ++i) {
    const std::string input =
        i % 2 == 0 ? RandomGarbage(&rng, 120) : SeededGarbage(&rng, valid, 60);
    std::string_view view = input;
    auto out = DecodeRow(&view);
    (void)out;  // must simply not crash / overallocate
  }
}

TEST(FuzzSmoke, AesDecryptSurvivesGarbage) {
  Rng rng(19);
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  for (int i = 0; i < 300; ++i) {
    auto out = AesCbcDecrypt(key, RandomGarbage(&rng, 256));
    (void)out;
  }
}

// GCM is authenticated: garbage envelopes must fail cleanly, and truncated /
// mutated real envelopes must fail.
TEST(FuzzSmoke, AesGcmDecryptSurvivesGarbage) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  const std::string envelope = *AesGcmEncrypt(key, "an authenticated payload");
  Rng rng(43);
  for (int i = 0; i < 300; ++i) {
    auto out = AesGcmDecrypt(key, RandomGarbage(&rng, 256));
    // A random envelope forging a 128-bit tag "essentially never" happens.
    EXPECT_FALSE(out.ok());
  }
  for (size_t cut = 0; cut < envelope.size(); ++cut) {
    EXPECT_FALSE(AesGcmDecrypt(key, envelope.substr(0, cut)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    std::string mutated = envelope;
    mutated[rng.Uniform(mutated.size())] ^= static_cast<char>(1 + rng.Uniform(255));
    EXPECT_FALSE(AesGcmDecrypt(key, mutated).ok());
  }
}

TEST(FuzzSmoke, PaddingUnpadSurvivesGarbage) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    // Unpad returns a view into its input, so the input must outlive it.
    const std::string padded = RandomGarbage(&rng, 100);
    auto out = PaddingTiers::Unpad(padded);
    if (out.ok()) {
      EXPECT_GE(out->data(), padded.data());
      EXPECT_LE(out->data() + out->size(), padded.data() + padded.size());
    }
  }
}

TEST(FuzzSmoke, OpeDecryptSurvivesGarbage) {
  Rng rng(29);
  OpeCipher ope(SymmetricKey::FromSeed("k"));
  for (int i = 0; i < 200; ++i) {
    auto out = ope.Decrypt(RandomGarbage(&rng, 16));
    (void)out;
  }
}

TEST(FuzzSmoke, CommitLogReplaySurvivesGarbage) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    auto sink = std::make_unique<MemoryLogSink>();
    ASSERT_TRUE(sink->Append(RandomGarbage(&rng, 400)).ok());
    CommitLog log(std::move(sink), nullptr);
    int replayed = 0;
    ASSERT_TRUE(log.Replay([&](std::string_view key, const Row& row) { ++replayed; }).ok());
    // Garbage should essentially never pass the CRC.
    EXPECT_LE(replayed, 1);
  }
}

TEST(FuzzSmoke, VarintDecodersSurviveGarbage) {
  Rng rng(37);
  for (int i = 0; i < 2000; ++i) {
    const std::string input = RandomGarbage(&rng, 24);
    std::string_view v1 = input;
    (void)GetVarint64(&v1);
    std::string_view v2 = input;
    (void)GetLengthPrefixed(&v2);
    std::string_view v3 = input;
    (void)GetFixed64(&v3);
    (void)DecodeRowKey(input);
  }
}

}  // namespace
}  // namespace minicrypt
