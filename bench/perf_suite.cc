// Perf-trajectory suite: runs the codec/crypto/pack kernel cells plus
// fig9/fig13-style cluster cells with fixed seeds and emits a
// schema-versioned BENCH_<rev>.json (ns/op, MB/s, p50/p99, allocs/op, and
// the dispatch level the run used). bench/check_regression.py compares two
// of these files and fails CI on >10% normalized throughput regression; the
// memcpy calibration cell is the cross-machine normalizer.
//
//   perf_suite [--revision=REV] [--out=PATH] [--quick]
//
// MC_NO_SIMD=1 / MC_SIMD_LEVEL=N apply as everywhere else; the JSON records
// which level actually ran so baselines are only compared like-for-like.

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
#include "src/common/coding.h"
#include "src/common/cpu_features.h"
#include "src/common/crc32c.h"
#include "src/common/random.h"
#include "src/compress/compressor.h"
#include "src/core/pack.h"
#include "src/core/pack_crypter.h"
#include "src/crypto/crypto.h"
#include "src/workload/datasets.h"

namespace minicrypt {
namespace {

struct BenchCell {
  std::string name;
  size_t bytes_per_op;
  CellStats stats;
};

// Restores the ambient dispatch level after a forced-scalar cell.
class ScopedLevel {
 public:
  explicit ScopedLevel(SimdLevel level) : saved_(CurrentSimdLevel()) {
    OverrideSimdLevelForTest(level);
  }
  ~ScopedLevel() { OverrideSimdLevelForTest(saved_); }

 private:
  SimdLevel saved_;
};

std::string ConvivaPayload(size_t min_bytes) {
  auto dataset = MakeDataset("conviva", 3);
  std::string payload;
  for (uint64_t i = 0; payload.size() < min_bytes; ++i) {
    payload += dataset->Row(i);
  }
  return payload;
}

Pack FiftyRowPack() {
  auto dataset = MakeDataset("conviva", 3);
  std::vector<Pack::Entry> entries;
  for (uint64_t i = 0; i < 50; ++i) {
    entries.push_back(Pack::Entry{EncodeKey64(i), dataset->Row(i)});
  }
  return Pack::FromSorted(std::move(entries)).value();
}

void JsonEscapeAppend(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int PerfSuiteMain(int argc, char** argv) {
  std::string revision = "dev";
  std::string out_path;
  double min_seconds = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--revision=", 0) == 0) {
      revision = arg.substr(strlen("--revision="));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(strlen("--out="));
    } else if (arg == "--quick") {
      min_seconds = 0.05;
    } else {
      std::fprintf(stderr, "usage: perf_suite [--revision=REV] [--out=PATH] [--quick]\n");
      return 2;
    }
  }
  if (out_path.empty()) {
    out_path = "BENCH_" + revision + ".json";
  }

  const SimdLevel ambient = CurrentSimdLevel();
  std::vector<BenchCell> cells;
  const auto run = [&](const std::string& name, size_t bytes_per_op, auto&& op) {
    BenchCell cell;
    cell.name = name;
    cell.bytes_per_op = bytes_per_op;
    cell.stats = MeasureCell(op, bytes_per_op, min_seconds);
    std::fprintf(stderr, "%-28s %12.1f ns/op %10.1f MB/s %8.2f allocs/op\n",
                 name.c_str(), cell.stats.ns_per_op, cell.stats.mb_per_s,
                 cell.stats.allocs_per_op);
    cells.push_back(std::move(cell));
  };

  // --- Calibration: raw memory bandwidth, the cross-machine normalizer.
  {
    const std::string src(1 << 20, 'm');
    std::string dst(1 << 20, '\0');
    run("calibration.memcpy_1m", src.size(), [&] {
      std::memcpy(dst.data(), src.data(), src.size());
      asm volatile("" : : "r"(dst.data()) : "memory");
    });
  }

  // --- CRC32C.
  {
    Rng rng(11);
    const std::string block = rng.Bytes(4096);
    run("crc32c.4k", block.size(), [&] {
      volatile uint32_t crc = Crc32c(block);
      (void)crc;
    });
    run("crc32c.scalar.4k", block.size(), [&] {
      volatile uint32_t crc = Crc32cScalar(block);
      (void)crc;
    });
  }

  // --- Codecs: dispatched vs forced-scalar, compress and decompress.
  const std::string payload = ConvivaPayload(64 * 1024);
  for (const char* codec_name : {"lz4like", "snappylike"}) {
    const Compressor* codec = FindCompressor(codec_name);
    const std::string compressed = codec->Compress(payload).value();
    run(std::string(codec_name) + ".compress.64k", payload.size(),
        [&] { (void)codec->Compress(payload); });
    run(std::string(codec_name) + ".decompress.64k", payload.size(),
        [&] { (void)codec->Decompress(compressed); });
    {
      ScopedLevel scalar(SimdLevel::kScalar);
      run(std::string(codec_name) + ".scalar.compress.64k", payload.size(),
          [&] { (void)codec->Compress(payload); });
      run(std::string(codec_name) + ".scalar.decompress.64k", payload.size(),
          [&] { (void)codec->Decompress(compressed); });
    }
  }

  // --- AES-GCM (OpenSSL EVP).
  {
    const SymmetricKey key = SymmetricKey::FromSeed("perf");
    const std::string iv(kAesGcmIvBytes, '\x07');
    const std::string envelope = AesGcmEncryptWithIv(key, iv, payload).value();
    run("aes_gcm.seal.64k", payload.size(),
        [&] { (void)AesGcmEncryptWithIv(key, iv, payload); });
    run("aes_gcm.open.64k", payload.size(),
        [&] { (void)AesGcmDecrypt(key, envelope); });
  }

  // --- Pack encode/decode: the gated >=1.5x cell (serialize+compress /
  // decompress+zero-copy deserialize, the per-pack work every read and
  // write pays).
  {
    const Pack pack = FiftyRowPack();
    const Compressor* codec = FindCompressor("snappylike");
    const std::string raw = pack.Serialize();
    const std::string compressed = codec->Compress(raw).value();
    const auto encode = [&] {
      (void)codec->Compress(pack.Serialize());
    };
    const auto decode = [&] {
      std::string plain = codec->Decompress(compressed).value();
      (void)Pack::FromSerialized(std::move(plain));
    };
    run("pack.encode.50rows", raw.size(), encode);
    run("pack.decode.50rows", raw.size(), decode);
    {
      ScopedLevel scalar(SimdLevel::kScalar);
      run("pack.scalar.encode.50rows", raw.size(), encode);
      run("pack.scalar.decode.50rows", raw.size(), decode);
    }

    // Full seal+open cycle (compress, pad, GCM, and back) for the trajectory.
    MiniCryptOptions options;
    const SymmetricKey key = SymmetricKey::FromSeed("perf");
    PackCrypter crypter(options, key);
    const std::string sealed = crypter.Seal(pack).value().envelope;
    run("pack.seal.50rows", raw.size(), [&] { (void)crypter.Seal(pack); });
    run("pack.open.50rows", raw.size(), [&] { (void)crypter.Open(sealed); });
    // The bounded open of a point read with the pack cache off, at the
    // pack's median key: zlib inflates only the prefix through that key.
    const std::string median(pack.entries()[pack.size() / 2].key);
    run("pack.open_through.50rows.zlib", raw.size(),
        [&] { (void)crypter.Open(sealed, {}, median); });
  }

  // --- fig9/fig13-style cluster cells: end-to-end ops through the simulated
  // 3-node cluster, fixed seeds, small scale (these gate the full stack, not
  // just the kernels).
  {
    const auto rows = ConvivaRows(2000, /*seed=*/1);
    ClusterOptions copts = PaperCluster(MediaKind::kSsd, 64 << 20);
    Cluster cluster(copts);
    MiniCryptOptions options;
    const SymmetricKey key = SymmetricKey::FromSeed("bench");
    auto system = MakeSystem("minicrypt", &cluster, options, key);
    PreloadAndWarm(*system, cluster, options, rows);

    Rng read_rng(9001);
    run("fig9.point_read", 0, [&] {
      (void)system->Get(read_rng.Uniform(rows.size()));
    });
    Rng mix_rng(9002);
    run("fig13.mixed_90r10w", 0, [&] {
      const uint64_t k = mix_rng.Uniform(rows.size());
      if (mix_rng.Bernoulli(0.1)) {
        (void)system->Put(k, rows[static_cast<size_t>(k)].second);
      } else {
        (void)system->Get(k);
      }
    });
  }

  // --- Emit JSON.
  std::string json = "{\n";
  json += "  \"schema\": \"mc-bench-v1\",\n";
  json += "  \"revision\": \"";
  JsonEscapeAppend(&json, revision);
  json += "\",\n";
  json += "  \"dispatch_level\": \"";
  json += SimdLevelName(ambient);
  json += "\",\n";
  json += "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const BenchCell& c = cells[i];
    json += "    {\"name\": \"";
    JsonEscapeAppend(&json, c.name);
    json += "\", \"bytes_per_op\": " + std::to_string(c.bytes_per_op);
    json += ", \"ns_per_op\": " + FormatDouble(c.stats.ns_per_op);
    json += ", \"mb_per_s\": " + FormatDouble(c.stats.mb_per_s);
    json += ", \"p50_ns\": " + FormatDouble(c.stats.p50_ns);
    json += ", \"p99_ns\": " + FormatDouble(c.stats.p99_ns);
    json += ", \"allocs_per_op\": " + FormatDouble(c.stats.allocs_per_op);
    json += ", \"iterations\": " + std::to_string(c.stats.iterations);
    json += i + 1 < cells.size() ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu cells, dispatch=%s)\n", out_path.c_str(),
               cells.size(), SimdLevelName(ambient));
  return 0;
}

}  // namespace minicrypt

int main(int argc, char** argv) { return minicrypt::PerfSuiteMain(argc, argv); }
