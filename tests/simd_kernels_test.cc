// Differential tests for the runtime-dispatched kernels: every SIMD path must
// be byte-identical to its scalar oracle across all supported dispatch
// levels, including empty inputs, single bytes, chunk-boundary sizes, and
// adversarial/garbage streams. Run with MC_NO_SIMD=1 to confirm the scalar
// leg passes the same suite (CI does).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cpu_features.h"
#include "src/common/crc32c.h"
#include "src/common/random.h"
#include "src/compress/lz4_like.h"
#include "src/compress/snappy_like.h"

namespace minicrypt {
namespace {

// Restores the ambient dispatch level when a test scope ends.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : saved_(CurrentSimdLevel()) {
    OverrideSimdLevelForTest(level);
  }
  ~ScopedSimdLevel() { OverrideSimdLevelForTest(saved_); }

 private:
  SimdLevel saved_;
};

// Input corpus hitting every kernel path: wild-copy tails, pattern-doubling
// match offsets, skip acceleration, and the scalar-only tiny sizes.
std::vector<std::string> KernelCorpus() {
  std::vector<std::string> corpus;
  corpus.emplace_back();  // empty
  Rng rng(20260808);

  for (size_t n : {1u, 2u, 3u, 4u, 7u, 8u, 15u, 16u, 17u, 31u, 32u, 33u, 63u,
                   64u, 65u, 127u, 255u, 256u, 1000u, 4096u}) {
    corpus.push_back(rng.Bytes(n));  // incompressible
  }
  // Pure runs (offset-1 match copies).
  corpus.emplace_back(5, 'x');
  corpus.emplace_back(100, 'x');
  corpus.emplace_back(70000, 'x');
  // Small periods exercise the pattern-doubling overlap copy.
  for (size_t period : {2u, 3u, 5u, 7u, 11u, 15u, 16u, 17u, 31u}) {
    std::string s;
    while (s.size() < 3000) {
      for (size_t i = 0; i < period; ++i) {
        s.push_back(static_cast<char>('a' + (i % 26)));
      }
    }
    corpus.push_back(std::move(s));
  }
  // Long repeated phrase — long matches, big literal head.
  {
    std::string s = rng.Bytes(300);
    for (int i = 0; i < 200; ++i) {
      s += "the quick brown fox jumps over the lazy dog ";
    }
    corpus.push_back(std::move(s));
  }
  // Alternating random / repeated segments (matches straddle literal runs).
  {
    std::string s;
    const std::string motif = rng.Bytes(48);
    for (int i = 0; i < 100; ++i) {
      s += rng.Bytes(rng.Uniform(90) + 1);
      s += motif;
    }
    corpus.push_back(std::move(s));
  }
  // Large mixed buffer (wide offsets, >64-byte matches, table pressure).
  {
    std::string s;
    while (s.size() < 256 * 1024) {
      if (rng.Bernoulli(0.5)) {
        s += rng.Bytes(rng.Uniform(200) + 1);
      } else {
        const size_t off = rng.Uniform(std::max<size_t>(s.size(), 1)) + 1;
        const size_t len = rng.Uniform(300) + 4;
        const size_t start = s.size() >= off ? s.size() - off : 0;
        for (size_t i = 0; i < len; ++i) {
          s.push_back(s.empty() ? 'a' : s[start + (i % std::max<size_t>(off, 1))]);
        }
      }
    }
    corpus.push_back(std::move(s));
  }
  return corpus;
}

template <typename Codec>
void ExpectByteIdenticalAcrossLevels(const Codec& codec) {
  const auto corpus = KernelCorpus();
  const auto levels = SupportedSimdLevels();
  ASSERT_FALSE(levels.empty());

  for (size_t ci = 0; ci < corpus.size(); ++ci) {
    const std::string& input = corpus[ci];
    // Scalar compression is the oracle.
    std::string oracle_compressed;
    {
      ScopedSimdLevel scalar(SimdLevel::kScalar);
      auto c = codec.Compress(input);
      ASSERT_TRUE(c.ok()) << "corpus[" << ci << "]";
      oracle_compressed = std::move(c).value();
      auto d = codec.Decompress(oracle_compressed);
      ASSERT_TRUE(d.ok()) << "corpus[" << ci << "]";
      ASSERT_EQ(d.value(), input) << "corpus[" << ci << "]";
    }
    for (SimdLevel level : levels) {
      ScopedSimdLevel scoped(level);
      auto c = codec.Compress(input);
      ASSERT_TRUE(c.ok()) << SimdLevelName(level) << " corpus[" << ci << "]";
      EXPECT_EQ(c.value(), oracle_compressed)
          << codec.Name() << " compress diverges at " << SimdLevelName(level)
          << " on corpus[" << ci << "] (size " << input.size() << ")";
      auto d = codec.Decompress(oracle_compressed);
      ASSERT_TRUE(d.ok()) << SimdLevelName(level) << " corpus[" << ci << "]";
      EXPECT_EQ(d.value(), input)
          << codec.Name() << " decompress diverges at " << SimdLevelName(level)
          << " on corpus[" << ci << "]";
    }
  }
}

template <typename Codec>
void ExpectVerdictsAgreeOnGarbage(const Codec& codec) {
  const auto levels = SupportedSimdLevels();
  Rng rng(7331);
  std::vector<std::string> streams;
  // Raw garbage of assorted sizes.
  for (size_t n : {1u, 2u, 5u, 16u, 64u, 300u, 5000u}) {
    for (int rep = 0; rep < 8; ++rep) {
      streams.push_back(rng.Bytes(n));
    }
  }
  // Truncations and single-byte corruptions of a valid stream.
  const std::string valid = [&] {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    return codec.Compress(rng.Bytes(2000) + std::string(500, 'z')).value();
  }();
  for (size_t cut : {1u, 2u, 5u, 10u, 50u}) {
    if (cut < valid.size()) {
      streams.push_back(valid.substr(0, valid.size() - cut));
    }
  }
  for (int rep = 0; rep < 32; ++rep) {
    std::string s = valid;
    s[rng.Uniform(s.size())] ^= static_cast<char>(1 + rng.Uniform(255));
    streams.push_back(std::move(s));
  }

  for (size_t si = 0; si < streams.size(); ++si) {
    const std::string& stream = streams[si];
    bool oracle_ok;
    std::string oracle_out;
    {
      ScopedSimdLevel scalar(SimdLevel::kScalar);
      auto d = codec.Decompress(stream);
      oracle_ok = d.ok();
      if (oracle_ok) {
        oracle_out = std::move(d).value();
      }
    }
    for (SimdLevel level : levels) {
      ScopedSimdLevel scoped(level);
      auto d = codec.Decompress(stream);
      EXPECT_EQ(d.ok(), oracle_ok)
          << codec.Name() << " verdict diverges at " << SimdLevelName(level)
          << " on stream[" << si << "]";
      if (oracle_ok && d.ok()) {
        EXPECT_EQ(d.value(), oracle_out);
      }
    }
  }
}

TEST(SimdKernels, Lz4LikeByteIdentical) {
  ExpectByteIdenticalAcrossLevels(Lz4LikeCompressor{});
}

TEST(SimdKernels, SnappyLikeByteIdentical) {
  ExpectByteIdenticalAcrossLevels(SnappyLikeCompressor{});
}

TEST(SimdKernels, Lz4LikeGarbageVerdictsAgree) {
  ExpectVerdictsAgreeOnGarbage(Lz4LikeCompressor{});
}

TEST(SimdKernels, SnappyLikeGarbageVerdictsAgree) {
  ExpectVerdictsAgreeOnGarbage(SnappyLikeCompressor{});
}

TEST(SimdKernels, Crc32cKnownVector) {
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(SimdKernels, Crc32cScalarMatchesHardware) {
  if (!HostCpuFeatures().sse42) {
    GTEST_SKIP() << "no SSE4.2";
  }
  Rng rng(99);
  for (size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u,
                   63u, 64u, 65u, 255u, 256u, 1000u, 4096u, 65536u}) {
    const std::string data = rng.Bytes(n);
    EXPECT_EQ(Crc32cScalar(data), Crc32cHardware(data)) << "size " << n;
  }
}

TEST(SimdKernels, Crc32cExtendComposes) {
  Rng rng(100);
  const std::string a = rng.Bytes(1000);
  const std::string b = rng.Bytes(313);
  EXPECT_EQ(Crc32c(a + b), Crc32cExtend(Crc32c(a), b));
  for (SimdLevel level : SupportedSimdLevels()) {
    ScopedSimdLevel scoped(level);
    EXPECT_EQ(Crc32c(a + b), Crc32cExtend(Crc32c(a), b));
    EXPECT_EQ(Crc32c(a), Crc32cScalar(a));
  }
}

TEST(SimdKernels, OverrideClampsToHost) {
  const SimdLevel ambient = CurrentSimdLevel();
  const SimdLevel max = HostCpuFeatures().max_level;
  EXPECT_LE(static_cast<int>(OverrideSimdLevelForTest(SimdLevel::kAvx2)),
            static_cast<int>(max));
  EXPECT_EQ(OverrideSimdLevelForTest(SimdLevel::kScalar), SimdLevel::kScalar);
  OverrideSimdLevelForTest(ambient);
  EXPECT_EQ(CurrentSimdLevel(), ambient);
}

}  // namespace
}  // namespace minicrypt
