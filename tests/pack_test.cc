#include "src/core/pack.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/core/pack_crypter.h"
#include "src/obs/metrics.h"
#include "src/workload/datasets.h"

namespace minicrypt {
namespace {

Pack MakePack(std::initializer_list<uint64_t> keys) {
  std::vector<Pack::Entry> entries;
  for (uint64_t k : keys) {
    entries.push_back({EncodeKey64(k), "val-" + std::to_string(k)});
  }
  auto pack = Pack::FromSorted(std::move(entries));
  EXPECT_TRUE(pack.ok());
  return std::move(pack).value();
}

TEST(Pack, SerializeDeserializeRoundTrip) {
  const Pack pack = MakePack({1, 5, 9, 100, 1ULL << 40});
  auto back = Pack::Deserialize(pack.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 5u);
  for (uint64_t k : {1ULL, 5ULL, 9ULL, 100ULL, 1ULL << 40}) {
    auto v = back->Find(EncodeKey64(k));
    ASSERT_TRUE(v.has_value()) << k;
    EXPECT_EQ(*v, "val-" + std::to_string(k));
  }
}

TEST(Pack, EmptyPackRoundTrip) {
  Pack empty;
  auto back = Pack::Deserialize(empty.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  EXPECT_FALSE(back->MinKey().has_value());
}

TEST(Pack, FromSortedRejectsDisorder) {
  std::vector<Pack::Entry> bad = {{EncodeKey64(5), "a"}, {EncodeKey64(3), "b"}};
  EXPECT_FALSE(Pack::FromSorted(std::move(bad)).ok());
  std::vector<Pack::Entry> dup = {{EncodeKey64(5), "a"}, {EncodeKey64(5), "b"}};
  EXPECT_FALSE(Pack::FromSorted(std::move(dup)).ok());
}

TEST(Pack, DeserializeRejectsCorruption) {
  const Pack pack = MakePack({1, 2, 3});
  std::string bytes = pack.Serialize();
  EXPECT_FALSE(Pack::Deserialize(std::string_view(bytes.data(), bytes.size() - 2)).ok());
  bytes += "extra";
  EXPECT_FALSE(Pack::Deserialize(bytes).ok());
}

TEST(Pack, UpsertKeepsOrderAndOverwrites) {
  Pack pack = MakePack({10, 30});
  EXPECT_TRUE(pack.Upsert(EncodeKey64(20), "twenty"));
  EXPECT_FALSE(pack.Upsert(EncodeKey64(20), "twenty-two"));
  EXPECT_EQ(pack.size(), 3u);
  EXPECT_EQ(*pack.Find(EncodeKey64(20)), "twenty-two");
  // Order invariant held.
  auto back = Pack::Deserialize(pack.Serialize());
  ASSERT_TRUE(back.ok());
}

TEST(Pack, EraseAndMinKeyStability) {
  Pack pack = MakePack({10, 20, 30});
  EXPECT_EQ(*DecodeKey64(*pack.MinKey()), 10u);
  EXPECT_TRUE(pack.Erase(EncodeKey64(10)));
  EXPECT_FALSE(pack.Erase(EncodeKey64(10)));
  // The pack's smallest key changes, but the stored packID (kept by the
  // client layer) does not — Erase only mutates contents.
  EXPECT_EQ(*DecodeKey64(*pack.MinKey()), 20u);
  EXPECT_TRUE(pack.Erase(EncodeKey64(20)));
  EXPECT_TRUE(pack.Erase(EncodeKey64(30)));
  EXPECT_TRUE(pack.empty());
}

TEST(Pack, SplitDeterministicHalves) {
  const Pack pack = MakePack({1, 2, 3, 4, 5});
  auto halves = pack.SplitDeterministic();
  ASSERT_TRUE(halves.ok());
  EXPECT_EQ(halves->first.size(), 3u);  // ceil(5/2)
  EXPECT_EQ(halves->second.size(), 2u);
  EXPECT_EQ(*DecodeKey64(*halves->first.MinKey()), 1u);
  EXPECT_EQ(*DecodeKey64(*halves->second.MinKey()), 4u);
  // Identical re-split (determinism demanded by paper §5.2).
  auto again = pack.SplitDeterministic();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->first.Serialize(), halves->first.Serialize());
  EXPECT_EQ(again->second.Serialize(), halves->second.Serialize());
}

TEST(Pack, SplitRejectsTinyPacks) {
  EXPECT_FALSE(MakePack({1}).SplitDeterministic().ok());
  EXPECT_TRUE(MakePack({1, 2}).SplitDeterministic().ok());
}

TEST(Pack, FindIsExactMatchOnly) {
  const Pack pack = MakePack({10, 20});
  EXPECT_FALSE(pack.Find(EncodeKey64(15)).has_value());
  EXPECT_FALSE(pack.Find(EncodeKey64(5)).has_value());
  EXPECT_FALSE(pack.Find(EncodeKey64(25)).has_value());
}

TEST(Pack, RandomizedMutationProperty) {
  Rng rng(71);
  Pack pack;
  std::map<uint64_t, std::string> model;
  for (int op = 0; op < 2000; ++op) {
    const uint64_t key = rng.Uniform(200);
    if (rng.Bernoulli(0.7)) {
      const std::string value = "v" + std::to_string(rng.Next() & 0xFFF);
      pack.Upsert(EncodeKey64(key), value);
      model[key] = value;
    } else {
      EXPECT_EQ(pack.Erase(EncodeKey64(key)), model.erase(key) > 0);
    }
  }
  EXPECT_EQ(pack.size(), model.size());
  for (const auto& [key, value] : model) {
    auto found = pack.Find(EncodeKey64(key));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, value);
  }
  // Serialization still canonical.
  auto back = Pack::Deserialize(pack.Serialize());
  ASSERT_TRUE(back.ok());
}

// Entries of `pack` with key <= through, as (key, value) strings.
std::vector<std::pair<std::string, std::string>> EntriesThrough(const Pack& pack,
                                                                std::string_view through) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& e : pack.entries()) {
    if (e.key <= through) {
      out.emplace_back(e.key, e.value);
    }
  }
  return out;
}

TEST(Pack, BoundedFromSerializedKeepsEntriesThroughBound) {
  const Pack pack = MakePack({10, 20, 30});
  for (uint64_t bound : {0, 10, 15, 20, 30, 99}) {
    const std::string through = EncodeKey64(bound);
    auto partial = Pack::FromSerialized(pack.Serialize(), through);
    ASSERT_TRUE(partial.ok()) << bound;
    EXPECT_FALSE(partial->complete());
    EXPECT_EQ(EntriesThrough(*partial, through), EntriesThrough(pack, through)) << bound;
  }
  auto whole = Pack::FromSerialized(pack.Serialize());
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->complete());
}

// A decoded prefix is accepted only once it holds a whole key past the
// bound; cut anywhere before that, the parse is Corruption, never a short
// pack.
TEST(Pack, PrefixEndingBeforeBoundIsCorruption) {
  const Pack pack = MakePack({10, 20, 30, 40});
  const std::string bytes = pack.Serialize();
  const std::string through = EncodeKey64(25);
  // varint(n) + 2 x (len, key, len, value) + len + key(30).
  size_t passing = 1;
  for (uint64_t k : {10, 20}) {
    passing += 1 + 8 + 1 + ("val-" + std::to_string(k)).size();
  }
  passing += 1 + 8;
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string_view prefix(bytes.data(), cut);
    EXPECT_EQ(Pack::PassesBound(prefix, through), cut >= passing) << cut;
    auto partial = Pack::FromSerialized(std::string(prefix), through);
    if (cut >= passing) {
      ASSERT_TRUE(partial.ok()) << cut;
      EXPECT_EQ(partial->size(), 2u);
    } else {
      EXPECT_TRUE(partial.status().IsCorruption()) << cut;
    }
  }
  // Past the largest key, only the whole serialization parses.
  const std::string beyond = EncodeKey64(99);
  EXPECT_FALSE(Pack::PassesBound(bytes, beyond));
  EXPECT_TRUE(Pack::FromSerialized(bytes.substr(0, bytes.size() - 1), beyond)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(Pack::FromSerialized(bytes + "x", beyond).status().IsCorruption());
}

TEST(Pack, BoundedParseKeepsOrderAndCountChecks) {
  // Out of order before the bound.
  std::string disordered;
  PutVarint64(&disordered, 3);
  for (uint64_t k : {10, 5, 30}) {
    PutLengthPrefixed(&disordered, EncodeKey64(k));
    PutLengthPrefixed(&disordered, "v");
  }
  EXPECT_TRUE(Pack::FromSerialized(std::string(disordered), EncodeKey64(15))
                  .status()
                  .IsCorruption());
  // The key that passes the bound must still be in order.
  std::string repeat;
  PutVarint64(&repeat, 2);
  for (uint64_t k : {20, 20}) {
    PutLengthPrefixed(&repeat, EncodeKey64(k));
    PutLengthPrefixed(&repeat, "v");
  }
  EXPECT_TRUE(Pack::FromSerialized(std::move(repeat), EncodeKey64(20)).status().IsCorruption());
  std::string absurd;
  PutVarint64(&absurd, uint64_t{1} << 30);
  PutLengthPrefixed(&absurd, EncodeKey64(1));
  EXPECT_TRUE(Pack::FromSerialized(std::move(absurd), EncodeKey64(0)).status().IsCorruption());
}

TEST(Pack, PartialPackCannotSplitAndCopiesStayPartial) {
  auto partial = Pack::FromSerialized(MakePack({1, 2, 3, 4}).Serialize(), EncodeKey64(3));
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->SplitDeterministic().ok());
  const Pack copy = *partial;
  EXPECT_FALSE(copy.complete());
  EXPECT_EQ(copy.size(), 3u);
}

class PackCrypterTest : public ::testing::Test {
 protected:
  PackCrypterTest() : key_(SymmetricKey::FromSeed("tenant")), crypter_(MakeOptions(), key_) {}

  static MiniCryptOptions MakeOptions() {
    MiniCryptOptions o;
    o.codec = "zlib";
    return o;
  }

  SymmetricKey key_;
  PackCrypter crypter_;
};

TEST_F(PackCrypterTest, SealOpenRoundTrip) {
  const Pack pack = MakePack({1, 2, 3, 4, 5, 6, 7, 8});
  auto sealed = crypter_.Seal(pack);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->hash, Sha256(sealed->envelope));
  auto back = crypter_.Open(sealed->envelope);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->Serialize(), pack.Serialize());
}

TEST_F(PackCrypterTest, EnvelopeIsEncrypted) {
  Pack pack;
  const std::string marker = "PLAINTEXT_MARKER_THAT_MUST_NOT_LEAK";
  pack.Upsert(EncodeKey64(1), marker);
  auto sealed = crypter_.Seal(pack);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->envelope.find(marker), std::string::npos);
}

TEST_F(PackCrypterTest, DifferentTableKeysDoNotInterop) {
  MiniCryptOptions other = MakeOptions();
  other.table = "other_table";
  PackCrypter other_crypter(other, key_);
  auto sealed = crypter_.Seal(MakePack({1, 2}));
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(other_crypter.Open(sealed->envelope).ok());
}

TEST_F(PackCrypterTest, PaddingTiersQuantizeEnvelopeSizes) {
  MiniCryptOptions padded = MakeOptions();
  padded.padding = PaddingTiers::Exponential(1024, 6);
  PackCrypter crypter(padded, key_);
  std::set<size_t> sizes;
  Rng rng(5);
  for (int n = 1; n <= 30; ++n) {
    Pack pack;
    for (int i = 0; i < n; ++i) {
      pack.Upsert(EncodeKey64(static_cast<uint64_t>(i)), rng.Bytes(64));
    }
    auto sealed = crypter.Seal(pack);
    ASSERT_TRUE(sealed.ok());
    sizes.insert(sealed->envelope.size());
    auto back = crypter.Open(sealed->envelope);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->size(), static_cast<size_t>(n));
  }
  // 30 distinct pack populations must land on a handful of visible sizes.
  EXPECT_LE(sizes.size(), 4u);
}

TEST_F(PackCrypterTest, SingleValueSealOpen) {
  auto sealed = crypter_.SealValue("row value bytes");
  ASSERT_TRUE(sealed.ok());
  auto back = crypter_.OpenValue(*sealed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "row value bytes");
}

TEST_F(PackCrypterTest, EveryRegisteredCodecWorksEndToEnd) {
  for (std::string_view codec : AllCompressorNames()) {
    MiniCryptOptions o = MakeOptions();
    o.codec = std::string(codec);
    PackCrypter crypter(o, key_);
    const Pack pack = MakePack({10, 20, 30, 40});
    auto sealed = crypter.Seal(pack);
    ASSERT_TRUE(sealed.ok()) << codec;
    auto back = crypter.Open(sealed->envelope);
    ASSERT_TRUE(back.ok()) << codec;
    EXPECT_EQ(back->Serialize(), pack.Serialize()) << codec;
  }
}


// 50 Conviva rows (about 58 KB serialized, several prefix-decode steps) at
// keys 10, 20, ..., 500, so bounds can fall between keys.
Pack ConvivaPack() {
  auto dataset = MakeDataset("conviva", 3);
  std::vector<Pack::Entry> entries;
  for (uint64_t i = 1; i <= 50; ++i) {
    entries.push_back({EncodeKey64(i * 10), dataset->Row(i)});
  }
  return Pack::FromSorted(std::move(entries)).value();
}

// Bounds below the smallest key, at each key, between keys and past the
// largest key, including bounds that are not 8-byte keys.
std::vector<std::string> Bounds(const Pack& pack) {
  std::vector<std::string> bounds = {"", EncodeKey64(0), EncodeKey64(5)};
  for (const auto& e : pack.entries()) {
    bounds.emplace_back(e.key);
    bounds.push_back(EncodeKey64(*DecodeKey64(e.key) + 5));
    bounds.push_back(std::string(e.key) + '\0');
  }
  bounds.push_back(EncodeKey64(~uint64_t{0}));
  bounds.push_back(std::string(9, '\xff'));
  return bounds;
}

// Every registered codec, strawman included.
const std::vector<std::string> kAllCodecs = {"snappylike", "lz4like", "zlib", "zlib9",
                                             "bzip2",      "lzma",    "rle"};

TEST_F(PackCrypterTest, BoundedOpenEqualsFilteredFullOpenForEveryCodec) {
  for (const std::string& codec : kAllCodecs) {
    MiniCryptOptions o = MakeOptions();
    o.codec = codec;
    PackCrypter crypter(o, key_);
    for (const Pack& pack : {ConvivaPack(), MakePack({10, 20, 30, 40})}) {
      auto sealed = crypter.Seal(pack, "ctx");
      ASSERT_TRUE(sealed.ok()) << codec;
      auto full = crypter.Open(sealed->envelope, "ctx");
      ASSERT_TRUE(full.ok()) << codec;
      EXPECT_TRUE(full->complete());
      for (const std::string& through : Bounds(pack)) {
        auto partial = crypter.Open(sealed->envelope, "ctx", through);
        ASSERT_TRUE(partial.ok()) << codec << " " << partial.status().ToString();
        EXPECT_FALSE(partial->complete());
        EXPECT_EQ(EntriesThrough(*partial, through), EntriesThrough(*full, through)) << codec;
        EXPECT_EQ(partial->size(), EntriesThrough(*full, through).size()) << codec;
      }
    }
  }
}

TEST_F(PackCrypterTest, SealRefusesPartialPack) {
  auto sealed = crypter_.Seal(ConvivaPack());
  ASSERT_TRUE(sealed.ok());
  auto partial = crypter_.Open(sealed->envelope, {}, EncodeKey64(250));
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(crypter_.Seal(*partial).status().code() == StatusCode::kInvalidArgument);
  Pack mutated = *partial;
  mutated.Upsert(EncodeKey64(7), "new");
  EXPECT_TRUE(crypter_.Seal(mutated).status().code() == StatusCode::kInvalidArgument);
}

TEST_F(PackCrypterTest, BoundedOpenFailsOnAnyFlippedEnvelopeByte) {
  auto sealed = crypter_.Seal(ConvivaPack(), "ctx");
  ASSERT_TRUE(sealed.ok());
  const std::string through = EncodeKey64(50);
  ASSERT_TRUE(crypter_.Open(sealed->envelope, "ctx", through).ok());
  const std::string& envelope = sealed->envelope;
  for (size_t i = 0; i < envelope.size(); i += 97) {
    std::string flipped = envelope;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(crypter_.Open(flipped, "ctx", through).ok()) << "byte " << i;
  }
  std::string last = envelope;
  last.back() ^= 0x80;
  EXPECT_FALSE(crypter_.Open(last, "ctx", through).ok());
  EXPECT_FALSE(crypter_.Open(envelope, "other ctx", through).ok());
}

// pack.open.ratio describes packs, not how much of them a read decoded: it
// counts the frame's declared size, so bounded opens report the same ratio
// as full opens of the same packs.
TEST_F(PackCrypterTest, BoundedOpensKeepOpenRatio) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  if (!registry.enabled()) {
    GTEST_SKIP() << "metrics disabled";
  }
  std::vector<std::string> envelopes;
  for (const Pack& pack : {ConvivaPack(), MakePack({10, 20, 30, 40})}) {
    envelopes.push_back(crypter_.Seal(pack).value().envelope);
  }
  auto gauge = [&] {
    const std::string json = registry.ToJson();
    const std::string name = "\"pack.open.ratio\":";
    const size_t at = json.find(name);
    EXPECT_NE(at, std::string::npos) << json;
    return json.substr(at + name.size(), json.find_first_of(",}", at) - at - name.size());
  };
  auto totals = [&] {
    return std::make_pair(registry.GetCounter("pack.open.bytes_raw")->Value(),
                          registry.GetCounter("pack.open.bytes_wire")->Value());
  };
  registry.ResetAll();
  for (const std::string& envelope : envelopes) {
    ASSERT_TRUE(crypter_.Open(envelope).ok());
  }
  const std::string full_ratio = gauge();
  const auto full_totals = totals();
  registry.ResetAll();
  for (const std::string& envelope : envelopes) {
    ASSERT_TRUE(crypter_.Open(envelope, {}, EncodeKey64(15)).ok());
  }
  EXPECT_EQ(gauge(), full_ratio);
  EXPECT_EQ(totals(), full_totals);
}

}  // namespace
}  // namespace minicrypt
