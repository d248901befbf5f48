// Micro-benchmarks (google-benchmark): codec compress/decompress throughput
// on a 50-row Conviva-like pack, the crypto primitives, and the pack codec
// operations. These quantify the client-side CPU costs behind the figures.
//
// All setup (payloads, keys, pre-compressed/encrypted inputs, pack copies)
// happens outside the timed region, and every benchmark reports allocs/op
// via the counting operator new in bench/alloc_counter.h.

#include <benchmark/benchmark.h>

#include "bench/alloc_counter.h"
#include "src/common/coding.h"
#include "src/compress/compressor.h"
#include "src/core/pack.h"
#include "src/core/pack_crypter.h"
#include "src/crypto/crypto.h"
#include "src/workload/datasets.h"

namespace minicrypt {
namespace {

std::string PackPayload() {
  auto dataset = MakeDataset("conviva", 3);
  std::string payload;
  for (int i = 0; i < 50; ++i) {
    payload += dataset->Row(static_cast<uint64_t>(i));
  }
  return payload;
}

uint64_t AllocsNow() {
  return AllocCounter().load(std::memory_order_relaxed);
}

// Reports heap allocations per iteration for the span since `allocs_before`.
void ReportAllocs(benchmark::State& state, uint64_t allocs) {
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}

void BM_Compress(benchmark::State& state, const char* codec_name) {
  const Compressor* codec = FindCompressor(codec_name);
  const std::string payload = PackPayload();
  const uint64_t allocs_before = AllocsNow();
  for (auto _ : state) {
    auto out = codec->Compress(payload);
    benchmark::DoNotOptimize(out);
  }
  ReportAllocs(state, AllocsNow() - allocs_before);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * payload.size()));
}

void BM_Decompress(benchmark::State& state, const char* codec_name) {
  const Compressor* codec = FindCompressor(codec_name);
  const std::string payload = PackPayload();
  const std::string compressed = *codec->Compress(payload);
  const uint64_t allocs_before = AllocsNow();
  for (auto _ : state) {
    auto out = codec->Decompress(compressed);
    benchmark::DoNotOptimize(out);
  }
  ReportAllocs(state, AllocsNow() - allocs_before);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * payload.size()));
}

BENCHMARK_CAPTURE(BM_Compress, snappylike, "snappylike");
BENCHMARK_CAPTURE(BM_Compress, lz4like, "lz4like");
BENCHMARK_CAPTURE(BM_Compress, zlib, "zlib");
BENCHMARK_CAPTURE(BM_Compress, bzip2, "bzip2");
BENCHMARK_CAPTURE(BM_Compress, lzma, "lzma");
BENCHMARK_CAPTURE(BM_Decompress, snappylike, "snappylike");
BENCHMARK_CAPTURE(BM_Decompress, lz4like, "lz4like");
BENCHMARK_CAPTURE(BM_Decompress, zlib, "zlib");
BENCHMARK_CAPTURE(BM_Decompress, bzip2, "bzip2");
BENCHMARK_CAPTURE(BM_Decompress, lzma, "lzma");

void BM_AesGcmSeal(benchmark::State& state) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  const std::string iv(kAesGcmIvBytes, '\x07');
  const std::string payload = PackPayload();
  const uint64_t allocs_before = AllocsNow();
  for (auto _ : state) {
    auto out = AesGcmEncryptWithIv(key, iv, payload);
    benchmark::DoNotOptimize(out);
  }
  ReportAllocs(state, AllocsNow() - allocs_before);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * payload.size()));
}
BENCHMARK(BM_AesGcmSeal);

void BM_AesGcmOpen(benchmark::State& state) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  const std::string envelope = *AesGcmEncrypt(key, PackPayload());
  const uint64_t allocs_before = AllocsNow();
  for (auto _ : state) {
    auto out = AesGcmDecrypt(key, envelope);
    benchmark::DoNotOptimize(out);
  }
  ReportAllocs(state, AllocsNow() - allocs_before);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * envelope.size()));
}
BENCHMARK(BM_AesGcmOpen);

void BM_AesCbcEncrypt(benchmark::State& state) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  const std::string payload = PackPayload();
  const uint64_t allocs_before = AllocsNow();
  for (auto _ : state) {
    auto out = AesCbcEncrypt(key, payload);
    benchmark::DoNotOptimize(out);
  }
  ReportAllocs(state, AllocsNow() - allocs_before);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * payload.size()));
}
BENCHMARK(BM_AesCbcEncrypt);

void BM_AesCbcDecrypt(benchmark::State& state) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  const std::string envelope = *AesCbcEncrypt(key, PackPayload());
  const uint64_t allocs_before = AllocsNow();
  for (auto _ : state) {
    auto out = AesCbcDecrypt(key, envelope);
    benchmark::DoNotOptimize(out);
  }
  ReportAllocs(state, AllocsNow() - allocs_before);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * envelope.size()));
}
BENCHMARK(BM_AesCbcDecrypt);

void BM_Sha256Hash(benchmark::State& state) {
  const std::string payload = PackPayload();
  const uint64_t allocs_before = AllocsNow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256(payload));
  }
  ReportAllocs(state, AllocsNow() - allocs_before);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * payload.size()));
}
BENCHMARK(BM_Sha256Hash);

void BM_PackSealOpen(benchmark::State& state) {
  MiniCryptOptions options;
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  PackCrypter crypter(options, key);
  auto dataset = MakeDataset("conviva", 3);
  Pack pack;
  for (uint64_t i = 0; i < 50; ++i) {
    pack.Upsert(EncodeKey64(i), dataset->Row(i));
  }
  const uint64_t allocs_before = AllocsNow();
  for (auto _ : state) {
    auto sealed = crypter.Seal(pack);
    auto opened = crypter.Open(sealed->envelope);
    benchmark::DoNotOptimize(opened);
  }
  ReportAllocs(state, AllocsNow() - allocs_before);
}
BENCHMARK(BM_PackSealOpen);

void BM_PackUpsertSplit(benchmark::State& state) {
  auto dataset = MakeDataset("conviva", 3);
  Pack pack;
  for (uint64_t i = 0; i < 75; ++i) {
    pack.Upsert(EncodeKey64(i * 2), dataset->Row(i));
  }
  // The deep copy is setup (upsert/split mutate), so it runs with timing
  // paused; the alloc counter likewise only covers the timed region.
  uint64_t timed_allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Pack copy = pack;
    state.ResumeTiming();
    const uint64_t allocs_before = AllocsNow();
    copy.Upsert(EncodeKey64(51), "new value");
    auto halves = copy.SplitDeterministic();
    benchmark::DoNotOptimize(halves);
    timed_allocs += AllocsNow() - allocs_before;
  }
  ReportAllocs(state, timed_allocs);
}
BENCHMARK(BM_PackUpsertSplit);

void BM_PackIdPrf(benchmark::State& state) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  uint64_t bucket = 0;
  const uint64_t allocs_before = AllocsNow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, EncodeKey64(bucket++)));
  }
  ReportAllocs(state, AllocsNow() - allocs_before);
}
BENCHMARK(BM_PackIdPrf);

}  // namespace
}  // namespace minicrypt

BENCHMARK_MAIN();
