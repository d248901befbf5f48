// End-to-end MiniCrypt client benchmark.
//
// Drives the public GenericClient API (Get, GetRange, Put, BulkLoad) with a
// closed loop of two client threads against an in-process 3-node, RF=3
// Cluster, checks every result, and prints one JSON object as the last line
// of standard output. Usage:
//
//   mc_perfbench --workload <read_hot|read_spill|write_mix> --seed <n>
//                --seconds <s> --trace <0|1> [--trace-file <path>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate run of
// the same workload that reports per-layer metrics: half the window runs
// untraced (counter-based metrics and the tracing-overhead reference), the
// other half wraps every client call in a span and, for a sample of ops,
// replays the same key through each layer's public functions as child spans.
// Layers are measured only from outside, through public calls and the stats
// structs they already expose. See perfbench/README.md.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/coding.h"
#include "src/common/cpu_features.h"
#include "src/common/random.h"
#include "src/compress/compressor.h"
#include "src/core/generic_client.h"
#include "src/core/key_codec.h"
#include "src/core/options.h"
#include "src/core/pack.h"
#include "src/core/pack_crypter.h"
#include "src/crypto/crypto.h"
#include "src/crypto/keyring.h"
#include "src/kvstore/cluster.h"
#include "src/workload/datasets.h"
#include "src/workload/ycsb.h"

namespace minicrypt {
namespace {

constexpr int kClientThreads = 2;
constexpr int kSetupRepeats = 3;
constexpr double kWarmupSeconds = 2.0;
// Throughput and CPU per op are medians over this many equal sub-windows of
// the measured window, so a burst of interference from outside the process
// moves a few sub-windows rather than the reported value.
constexpr int kSubWindows = 10;
constexpr int64_t kAtRestSampleNs = 20'000'000;
// Keys [0, kPutKeys) have a second-seed value; Put writes only those.
constexpr uint64_t kPutKeys = 20'000;
constexpr uint64_t kRangeWidth = 100;
// Fraction of traced ops whose key is replayed through the layers.
constexpr double kReplayShare = 1.0 / 8.0;
// Puts per thread in the traced run's put probe (workloads without puts).
constexpr int kProbePutsPerThread = 60;
// Stored-cell name of the sealed envelope in a pack row.
constexpr std::string_view kEnvelopeColumn = "v";

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t CpuMicros() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000 + static_cast<uint64_t>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double MaxRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

constexpr int64_t kMaxOverrunMicros = 2'000;

// Clock decorator handed to the cluster: every modelled wait (RTT, transfer,
// media service time, client retry backoff) goes through SleepMicros, so the
// sum separates latency-model wait from CPU without touching the program.
//
// A sleep overruns what it asked for by the host's wake-up delay (the timer
// slack, plus scheduling delay when the host is busy). An op makes many
// sleeps, so left alone the overrun would make the latency model's numbers
// follow the host's load. Each thread therefore carries its last overrun and takes
// it off its next sleep, so its modelled waits add up to what the model
// asked for. The carry is capped so that a long host stall is not paid back
// as a burst.
//
// Setup turns the sleeps off, so setup time is the setup's own work. The
// media model keeps no clock state between calls, so skipping a sleep leaves
// no backlog behind.
class WaitCountingClock : public Clock {
 public:
  uint64_t NowMicros() const override { return SystemClock::Get()->NowMicros(); }
  void SleepMicros(uint64_t micros) override {
    slept_.fetch_add(micros, std::memory_order_relaxed);
    if (!sleeping_.load(std::memory_order_relaxed)) {
      return;
    }
    thread_local int64_t overrun_us = 0;
    const int64_t target = static_cast<int64_t>(micros) - overrun_us;
    if (target <= 0) {
      overrun_us = -target;
      return;
    }
    const int64_t start = NowNs();
    SystemClock::Get()->SleepMicros(static_cast<uint64_t>(target));
    overrun_us = std::clamp<int64_t>((NowNs() - start) / 1000 - target, 0, kMaxOverrunMicros);
  }
  uint64_t slept_micros() const { return slept_.load(std::memory_order_relaxed); }
  void set_sleeping(bool on) { sleeping_.store(on, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> slept_{0};
  std::atomic<bool> sleeping_{true};
};

// --- Workloads ----------------------------------------------------------------

enum OpType : int { kGet = 0, kRange = 1, kPut = 2, kOpTypes = 3 };
constexpr const char* kOpNames[kOpTypes] = {"get", "range", "put"};
constexpr const char* kRootSpans[kOpTypes] = {"core.get", "core.range", "core.put"};

struct Mix {
  double get = 0;
  double range = 0;
  double put = 0;
};

struct Workload {
  std::string name;
  uint64_t rows = 0;
  size_t cache_bytes = 0;
  bool latency_model = false;  // paper SSD + network model, else zero latency
  Mix mix;
  bool zipfian = false;
  // Memtable flush threshold per engine. write_mix scales it down from the
  // figure benches' 4 MB so that a run spans many flush and compaction
  // cycles (about one flush per second) instead of sitting at one phase of
  // a single cycle.
  size_t memtable_bytes = 4u << 20;
};

bool FindWorkload(std::string_view name, Workload* out) {
  static const Workload kWorkloads[] = {
      {"read_hot", 20'000, 64u << 20, false, {0.95, 0.05, 0.0}, false},
      {"read_spill", 100'000, 8u << 20, true, {1.0, 0.0, 0.0}, false},
      {"write_mix", 20'000, 64u << 20, true, {0.5, 0.0, 0.5}, true, 1u << 20},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

// The paper's cluster shape (3 nodes, RF=3, CL=ONE) with the SSD profile and
// network model the figure benches use at their default latency scale 0.1:
// media 3.5 ms per random read at queue depth 1, 25 us client RTT. Kept here
// rather than shared so the benchmark does not move when bench/ changes.
ClusterOptions ClusterFor(const Workload& w, Clock* clock) {
  constexpr double kLatencyScale = 0.1;
  ClusterOptions o;
  o.node_count = 3;
  o.replication_factor = 3;
  o.consistency = Consistency::kOne;
  o.block_cache_bytes = w.cache_bytes;
  o.engine.memtable_flush_bytes = w.memtable_bytes;
  o.engine.compaction_trigger = 6;
  o.engine.sstable.block_bytes = 8 * 1024;
  o.clock = clock;
  if (w.latency_model) {
    o.rtt_micros = 250;
    o.replica_hop_micros = 120;
    o.lwt_extra_round_trips = 3;
    o.network_bytes_per_micro = 120.0;
    o.latency_scale = kLatencyScale;
    MediaProfile ssd;
    ssd.seek_micros = 3'500;
    ssd.queue_depth = 1;
    ssd.bytes_per_micro_read = 500.0;
    ssd.bytes_per_micro_write = 450.0;
    ssd.latency_scale = 1.0 / kLatencyScale;  // the profile is already effective latency
    o.media = ssd;
  } else {
    o.rtt_micros = 0;
    o.replica_hop_micros = 0;
    o.network_bytes_per_micro = 0;
    o.media = std::nullopt;
  }
  return o;
}

// --- Samples and percentiles ----------------------------------------------------

struct Percentiles {
  size_t n = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  size_t beyond_p95 = 0;
  size_t beyond_p99 = 0;
};

// Exact nearest-rank percentiles over raw per-op samples.
Percentiles ComputePercentiles(std::vector<int64_t> ns) {
  Percentiles p;
  p.n = ns.size();
  if (ns.empty()) {
    return p;
  }
  std::sort(ns.begin(), ns.end());
  auto rank = [&](double q) {
    const auto r = static_cast<size_t>(std::ceil(q * static_cast<double>(ns.size())));
    return std::min(ns.size() - 1, r == 0 ? 0 : r - 1);
  };
  p.p50_us = static_cast<double>(ns[rank(0.50)]) / 1e3;
  const size_t r95 = rank(0.95);
  p.p95_us = static_cast<double>(ns[r95]) / 1e3;
  p.beyond_p95 = ns.size() - 1 - r95;
  const size_t r99 = rank(0.99);
  p.p99_us = static_cast<double>(ns[r99]) / 1e3;
  p.beyond_p99 = ns.size() - 1 - r99;
  return p;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// --- Tracing ------------------------------------------------------------------------

// A replay span re-executes one layer call after the client op has returned,
// so it lies outside its parent's interval: `parent` names the call it is a
// stage of (the op, or Open or Seal), not a span that contains it in time.
struct Span {
  uint64_t op = 0;      // shared by every span of one client op
  uint32_t id = 0;      // 1-based within the op
  uint32_t parent = 0;  // 0 = root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool replayed = false;  // root whose key was replayed through the layers
  bool replay = false;    // a replayed layer call, run after the op
};

// Per-thread in-memory span buffer; written out when the run ends.
class TraceBuffer {
 public:
  void BeginOp(uint64_t op) {
    op_ = op;
    next_id_ = 1;
  }
  uint32_t AddRoot(const char* name, int64_t start_ns, int64_t end_ns, bool replayed) {
    spans_.push_back(Span{op_, next_id_, 0, name, start_ns, end_ns, replayed, false});
    return next_id_++;
  }
  uint32_t AddReplay(const char* name, uint32_t parent, int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{op_, next_id_, parent, name, start_ns, end_ns, false, true});
    return next_id_++;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  uint64_t op_ = 0;
  uint32_t next_id_ = 1;
};

// Runs `fn` as a replay span named `name` under `parent`; returns fn's result
// and stores the new span id in *id.
template <typename Fn>
auto Timed(TraceBuffer* trace, const char* name, uint32_t parent, uint32_t* id, Fn&& fn) {
  const int64_t start = NowNs();
  auto result = fn();
  *id = trace->AddReplay(name, parent, start, NowNs());
  return result;
}

// --- Counters read around a window -----------------------------------------------------

struct Counters {
  int64_t wall_ns = 0;
  uint64_t cpu_us = 0;
  uint64_t slept_us = 0;
  uint64_t lwt_attempts = 0;
  uint64_t lwt_failures = 0;
  uint64_t bytes_to_client = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t media_reads = 0;
  uint64_t media_read_bytes = 0;
  uint64_t media_write_bytes = 0;
  uint64_t media_busy_us = 0;
  uint64_t puts = 0;
  uint64_t put_retries = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.wall_ns = wall_ns - o.wall_ns;
    d.cpu_us = cpu_us - o.cpu_us;
    d.slept_us = slept_us - o.slept_us;
    d.lwt_attempts = lwt_attempts - o.lwt_attempts;
    d.lwt_failures = lwt_failures - o.lwt_failures;
    d.bytes_to_client = bytes_to_client - o.bytes_to_client;
    d.cache_hits = cache_hits - o.cache_hits;
    d.cache_misses = cache_misses - o.cache_misses;
    d.cache_evictions = cache_evictions - o.cache_evictions;
    d.media_reads = media_reads - o.media_reads;
    d.media_read_bytes = media_read_bytes - o.media_read_bytes;
    d.media_write_bytes = media_write_bytes - o.media_write_bytes;
    d.media_busy_us = media_busy_us - o.media_busy_us;
    d.puts = puts - o.puts;
    d.put_retries = put_retries - o.put_retries;
    return d;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- The benchmark ------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_file;
};

struct PhaseSpec {
  Mix mix;
  bool zipfian = false;
  uint64_t key_space = 0;
  double seconds = 0;       // time-bounded when > 0
  int ops_per_thread = 0;   // count-bounded when seconds == 0
  bool sample_series = false;  // record sub-window rates and at-rest bytes
  bool traced = false;
  double replay_share = 0;  // of traced ops
  uint64_t salt = 0;
};

struct PhaseResult {
  std::vector<int64_t> latency_ns[kOpTypes];
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t bytes_put = 0;  // user bytes written by Put (key + value)
  uint64_t raw_pack_bytes = 0;
  uint64_t compressed_pack_bytes = 0;
  Counters delta;
  // Per sub-window (sample_series phases only).
  std::vector<double> window_ops_s;
  std::vector<double> window_cpu_us_per_op;
  std::vector<double> at_rest_bytes;  // sampled every kAtRestSampleNs
  std::vector<TraceBuffer> traces;
  std::vector<std::string> errors;  // first few, for the report
};

// Setup is timed in process CPU seconds (all threads). Wall time is printed
// too, but it also counts the time the host takes the vCPUs away, which
// moved the same setup by up to 1.8x from one minute to the next.
struct SetupTimes {
  double total_s = 0;
  double bulk_load_s = 0;
  double flush_s = 0;
  double warm_s = 0;
  double wall_s = 0;
};

class Bench {
 public:
  Bench(Args args, Workload workload) : args_(std::move(args)), w_(std::move(workload)) {
    options_.retry_jitter_seed = SplitMix(args_.seed ^ 0x6a);
    keyring_ = Keyring::FromMaster(SymmetricKey::FromSeed("perfbench/" + std::to_string(args_.seed)));
    crypter_ = std::make_unique<PackCrypter>(options_, keyring_);
    codec_ = FindCompressor(options_.codec);
  }

  void GenerateRows() {
    const auto primary = MakeDataset("conviva", args_.seed);
    const auto second = MakeDataset("conviva", SplitMix(args_.seed));
    rows_ = MaterializeRows(*primary, w_.rows);
    for (const auto& [key, value] : rows_) {
      raw_bytes_ += value.size() + 8;
    }
    const uint64_t n = std::min(w_.rows, kPutKeys);
    second_.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      second_.push_back(second->Row(i));
    }
  }

  // Builds the cluster from scratch: cluster, table, BulkLoad, FlushAll,
  // WarmCaches. Any previous cluster is torn down first (untimed).
  bool Setup(SetupTimes* t) {
    clients_.clear();
    cluster_.reset();
    // Hand the torn-down cluster's memory back to the OS, so each setup's
    // peak RSS starts from the same baseline.
    malloc_trim(0);
    clock_ = std::make_unique<WaitCountingClock>();
    clock_->set_sleeping(false);
    const int64_t wall0 = NowNs();
    const uint64_t t0 = CpuMicros();
    cluster_ = std::make_unique<Cluster>(ClusterFor(w_, clock_.get()));
    for (int i = 0; i < kClientThreads; ++i) {
      MiniCryptOptions o = options_;
      o.retry_jitter_seed = SplitMix(options_.retry_jitter_seed + static_cast<uint64_t>(i));
      clients_.push_back(std::make_unique<GenericClient>(cluster_.get(), o, keyring_));
      if (!Check(clients_.back()->CreateTable(), "CreateTable")) {
        return false;
      }
    }
    const uint64_t t1 = CpuMicros();
    if (!Check(clients_[0]->BulkLoad(rows_), "BulkLoad")) {
      return false;
    }
    const uint64_t t2 = CpuMicros();
    if (!Check(cluster_->FlushAll(), "FlushAll")) {
      return false;
    }
    const uint64_t t3 = CpuMicros();
    cluster_->WarmCaches(options_.table);
    const uint64_t t4 = CpuMicros();
    t->wall_s = static_cast<double>(NowNs() - wall0) / 1e9;
    t->bulk_load_s = static_cast<double>(t2 - t1) / 1e6;
    t->flush_s = static_cast<double>(t3 - t2) / 1e6;
    t->warm_s = static_cast<double>(t4 - t3) / 1e6;
    t->total_s = static_cast<double>(t4 - t0) / 1e6;
    clock_->set_sleeping(true);
    return true;
  }

  Counters Snapshot() const {
    Counters c;
    c.wall_ns = NowNs();
    c.cpu_us = CpuMicros();
    c.slept_us = clock_->slept_micros();
    const ClusterStats& cs = cluster_->stats();
    c.lwt_attempts = cs.lwt_attempts.load();
    c.lwt_failures = cs.lwt_failures.load();
    c.bytes_to_client = cs.bytes_to_client.load();
    const BlockCacheStats bc = cluster_->CacheStats();
    c.cache_hits = bc.hits;
    c.cache_misses = bc.misses;
    c.cache_evictions = bc.evictions;
    for (int n = 0; n < static_cast<int>(cluster_->NodeCount()); ++n) {
      if (const MediaStats* m = cluster_->NodeMediaStats(n)) {
        c.media_reads += m->reads.load();
        c.media_read_bytes += m->read_bytes.load();
        c.media_write_bytes += m->write_bytes.load();
        c.media_busy_us += m->busy_micros.load();
      }
    }
    for (const auto& client : clients_) {
      c.puts += client->stats().puts.load();
      c.put_retries += client->stats().put_retries.load();
    }
    return c;
  }

  // Runs one closed-loop phase on kClientThreads threads.
  PhaseResult RunPhase(const PhaseSpec& spec) {
    PhaseResult r;
    r.traces.resize(kClientThreads);
    std::vector<PhaseResult> per_thread(kClientThreads);
    const Counters before = Snapshot();
    const int64_t deadline =
        before.wall_ns + static_cast<int64_t>(spec.seconds * 1e9);
    ops_done_.store(0);
    std::atomic<int> running{kClientThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&, t] {
        Worker(t, spec, deadline, &per_thread[t], &r.traces[t]);
        running.fetch_sub(1);
      });
    }
    if (spec.sample_series) {
      SampleSeries(before, deadline, running, &r);
    }
    for (auto& th : threads) {
      th.join();
    }
    r.delta = Snapshot() - before;
    for (auto& p : per_thread) {
      for (int op = 0; op < kOpTypes; ++op) {
        r.latency_ns[op].insert(r.latency_ns[op].end(), p.latency_ns[op].begin(),
                                p.latency_ns[op].end());
      }
      r.ops += p.ops;
      r.failed += p.failed;
      r.bytes_put += p.bytes_put;
      r.raw_pack_bytes += p.raw_pack_bytes;
      r.compressed_pack_bytes += p.compressed_pack_bytes;
      for (auto& e : p.errors) {
        if (r.errors.size() < 8) {
          r.errors.push_back(std::move(e));
        }
      }
    }
    return r;
  }

  size_t AtRestBytes() { return cluster_->TableAtRestBytes(options_.table); }
  double raw_bytes() const { return static_cast<double>(raw_bytes_); }

 private:
  bool Check(const Status& s, const char* what) {
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s: %s\n", what, s.ToString().c_str());
    }
    return s.ok();
  }

  bool ValidValue(uint64_t key, std::string_view value) const {
    return value == rows_[key].second || (key < second_.size() && value == second_[key]);
  }

  static void Fail(PhaseResult* out, std::string msg) {
    ++out->failed;
    if (out->errors.size() < 8) {
      out->errors.push_back(std::move(msg));
    }
  }

  // Runs on the calling thread while the workers run: at-rest bytes every
  // kAtRestSampleNs, and ops/s and CPU per op for each of kSubWindows
  // sub-windows of the phase.
  void SampleSeries(const Counters& start, int64_t deadline, const std::atomic<int>& running,
                    PhaseResult* r) {
    const int64_t window = (deadline - start.wall_ns) / kSubWindows;
    int64_t window_start = start.wall_ns;
    uint64_t ops_start = 0;
    uint64_t cpu_start = start.cpu_us;
    while (r->window_ops_s.size() < kSubWindows) {
      const bool done = running.load() == 0;
      if (!done) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kAtRestSampleNs));
        r->at_rest_bytes.push_back(static_cast<double>(AtRestBytes()));
      }
      const int64_t now = NowNs();
      // The workers stop at the deadline, which closes the last sub-window
      // (sampling granularity can leave it slightly short).
      const int64_t elapsed = now - window_start;
      if (done && elapsed < window / 2) {
        break;
      }
      if (!done && elapsed < window) {
        continue;
      }
      const uint64_t ops = ops_done_.load();
      const uint64_t cpu = CpuMicros();
      r->window_ops_s.push_back(static_cast<double>(ops - ops_start) /
                                (static_cast<double>(now - window_start) / 1e9));
      r->window_cpu_us_per_op.push_back(
          Ratio(static_cast<double>(cpu - cpu_start), static_cast<double>(ops - ops_start)));
      window_start = now;
      ops_start = ops;
      cpu_start = cpu;
    }
  }

  void Worker(int tid, const PhaseSpec& spec, int64_t deadline, PhaseResult* out,
              TraceBuffer* trace) {
    const uint64_t stream = SplitMix(args_.seed * 131 + spec.salt * 17 + static_cast<uint64_t>(tid));
    Rng rng(stream);
    std::unique_ptr<KeyChooser> keys;
    if (spec.zipfian) {
      keys = std::make_unique<ZipfianChooser>(spec.key_space, /*knob=*/0.0, SplitMix(stream));
    } else {
      keys = std::make_unique<UniformChooser>(spec.key_space, SplitMix(stream));
    }
    GenericClient* client = clients_[tid].get();
    uint64_t seq = 0;
    for (int n = 0;; ++n) {
      if (spec.seconds > 0 ? NowNs() >= deadline : n >= spec.ops_per_thread) {
        break;
      }
      const double u = rng.NextDouble();
      const OpType op = u < spec.mix.get ? kGet : u < spec.mix.get + spec.mix.range ? kRange : kPut;
      uint64_t key = keys->Next();
      if (op == kPut) {
        key %= second_.size();
      }
      const uint64_t high = std::min(key + kRangeWidth - 1, w_.rows - 1);

      Result<std::string> got = std::string();
      Result<std::vector<std::pair<uint64_t, std::string>>> range =
          std::vector<std::pair<uint64_t, std::string>>{};
      Status put_status = Status::Ok();
      const int64_t t0 = NowNs();
      switch (op) {
        case kGet:
          got = client->Get(key);
          break;
        case kRange:
          range = client->GetRange(key, high);
          break;
        case kPut:
          put_status = client->Put(key, second_[key]);
          break;
        default:
          break;
      }
      const int64_t t1 = NowNs();
      out->latency_ns[op].push_back(t1 - t0);
      ++out->ops;
      ops_done_.fetch_add(1, std::memory_order_relaxed);

      // Check the result (outside the timed region).
      bool ok = true;
      if (op == kGet) {
        if (!got.ok()) {
          Fail(out, "get " + std::to_string(key) + ": " + got.status().ToString());
          ok = false;
        } else if (!ValidValue(key, *got)) {
          Fail(out, "get " + std::to_string(key) + ": wrong value");
          ok = false;
        }
      } else if (op == kRange) {
        if (!range.ok()) {
          Fail(out, "range " + std::to_string(key) + ": " + range.status().ToString());
          ok = false;
        } else if (range->size() != high - key + 1) {
          Fail(out, "range " + std::to_string(key) + ": " + std::to_string(range->size()) +
                        " rows, want " + std::to_string(high - key + 1));
          ok = false;
        } else {
          for (size_t i = 0; i < range->size(); ++i) {
            const auto& [k, v] = (*range)[i];
            if (k != key + i || !ValidValue(k, v)) {
              Fail(out, "range " + std::to_string(key) + ": wrong row " + std::to_string(k));
              ok = false;
              break;
            }
          }
        }
      } else {
        if (!put_status.ok()) {
          Fail(out, "put " + std::to_string(key) + ": " + put_status.ToString());
          ok = false;
        } else {
          out->bytes_put += second_[key].size() + 8;
        }
      }

      if (!spec.traced) {
        continue;
      }
      trace->BeginOp((static_cast<uint64_t>(tid + 1) << 48) | ++seq);
      const bool replay = ok && rng.NextDouble() < spec.replay_share;
      const uint32_t root = trace->AddRoot(kRootSpans[op], t0, t1, replay);
      if (!replay) {
        continue;
      }
      std::string err;
      bool replay_ok = false;
      if (op == kGet) {
        replay_ok = ReplayPoint(trace, root, key, *got, /*after_put=*/false, spec, out, &err);
      } else if (op == kPut) {
        replay_ok = ReplayPoint(trace, root, key, second_[key], /*after_put=*/true, spec, out, &err);
      } else {
        replay_ok = ReplayRange(trace, root, key, high, *range, out, &err);
      }
      if (!replay_ok) {
        Fail(out, std::string(kOpNames[op]) + " " + std::to_string(key) + " replay: " + err);
      }
    }
  }

  // Replays a point op's key through the layers: the floor read and Open the
  // client performed, the stages of Open (GCM, decompress, parse) and of
  // Seal (serialize, compress, GCM) on the same pack. For a Put the seal
  // chain is a child of the op (the post-put pack); for a Get it is its own
  // root, since a Get seals nothing.
  bool ReplayPoint(TraceBuffer* trace, uint32_t root, uint64_t key, const std::string& client_value,
                   bool after_put, const PhaseSpec& spec, PhaseResult* out, std::string* err) {
    const std::string encoded = EncodeKey64(key);
    const std::string partition = PartitionForKey(encoded, options_.hash_partitions);
    uint32_t id = 0;
    auto floor = Timed(trace, "kvstore.read_floor", root, &id,
                       [&] { return cluster_->ReadFloor(options_.table, partition, encoded); });
    if (!floor.ok()) {
      *err = "ReadFloor: " + floor.status().ToString();
      return false;
    }
    const auto cell = floor->second.cells.find(kEnvelopeColumn);
    if (cell == floor->second.cells.end()) {
      *err = "pack row has no envelope cell";
      return false;
    }
    const std::string& envelope = cell->second.value;
    const std::string& pack_id = floor->first;
    uint32_t open_id = 0;
    auto pack = Timed(trace, "core.open", root, &open_id,
                      [&] { return crypter_->Open(envelope, pack_id); });
    if (!pack.ok()) {
      *err = "Open: " + pack.status().ToString();
      return false;
    }
    const auto found = pack->Find(encoded);
    // Without writers the replay must see exactly what the client saw. With
    // writers, CL=ONE reads may hit a replica that has not applied the latest
    // write yet, so the replay need only see a value some client wrote.
    const bool writers = spec.mix.put > 0;
    const bool matches =
        found.has_value() && (writers ? ValidValue(key, *found) : *found == client_value);
    if (!matches) {
      *err = "replayed pack disagrees with the client's result";
      return false;
    }

    // Seal chain.
    uint32_t seal_id = 0;
    auto sealed = Timed(trace, "core.seal", after_put ? root : 0, &seal_id,
                        [&] { return crypter_->Seal(*pack, pack_id); });
    if (!sealed.ok()) {
      *err = "Seal: " + sealed.status().ToString();
      return false;
    }
    std::string raw = Timed(trace, "core.pack_serialize", seal_id, &id,
                            [&] { return pack->Serialize(); });
    auto compressed = Timed(trace, "compress.compress", seal_id, &id,
                            [&] { return codec_->Compress(raw); });
    if (!compressed.ok()) {
      *err = "Compress: " + compressed.status().ToString();
      return false;
    }
    // GCM on a buffer of the sealed plaintext's length, under a benchmark
    // key with a fixed IV (never used for stored data).
    static const SymmetricKey gcm_key = SymmetricKey::FromSeed("perfbench/gcm");
    static const std::string iv(kAesGcmIvBytes, '\x5a');
    const std::string plaintext(compressed->size(), '\x17');
    auto gcm = Timed(trace, "crypto.gcm_seal", seal_id, &id,
                     [&] { return AesGcmEncryptWithIv(gcm_key, iv, plaintext, pack_id); });
    if (!gcm.ok()) {
      *err = "AesGcmEncryptWithIv: " + gcm.status().ToString();
      return false;
    }

    // Open's stages.
    auto opened = Timed(trace, "crypto.gcm_open", open_id, &id,
                        [&] { return AesGcmDecrypt(gcm_key, *gcm, pack_id); });
    auto inflated = Timed(trace, "compress.decompress", open_id, &id,
                          [&] { return codec_->Decompress(*compressed); });
    if (!opened.ok() || *opened != plaintext || !inflated.ok() || *inflated != raw) {
      *err = "GCM or codec round trip mismatch";
      return false;
    }
    std::string parse_input = raw;
    auto parsed = Timed(trace, "core.pack_parse", open_id, &id, [&]() -> Result<bool> {
      MC_ASSIGN_OR_RETURN(Pack p, Pack::FromSerialized(std::move(parse_input)));
      return p.Find(encoded).has_value();
    });
    if (!parsed.ok() || !*parsed) {
      *err = "FromSerialized lost the key";
      return false;
    }
    out->raw_pack_bytes += raw.size();
    out->compressed_pack_bytes += compressed->size();

    if (!after_put && spec.mix.range == 0) {
      // No range ops in this mix: time ReadRange on the one-pack range the
      // floor query resolved, as its own root.
      auto scan = Timed(trace, "kvstore.read_range", 0, &id, [&] {
        return cluster_->ReadRange(options_.table, partition, pack_id, encoded);
      });
      if (!scan.ok() || scan->empty() || scan->front().first != pack_id) {
        *err = "ReadRange did not return the floor pack";
        return false;
      }
    }
    return true;
  }

  // Replays a range op: ReadRange per partition, the floor read where the
  // range starts inside a pack, and Open of every pack; the rows in range
  // must equal the client's result.
  bool ReplayRange(TraceBuffer* trace, uint32_t root, uint64_t low, uint64_t high,
                   const std::vector<std::pair<uint64_t, std::string>>& client_rows,
                   PhaseResult* out, std::string* err) {
    const std::string klo = EncodeKey64(low);
    const std::string khi = EncodeKey64(high);
    std::map<std::string, std::string> rows;  // encoded key -> value
    uint32_t id = 0;
    auto open_into = [&](std::string_view pack_id, const Row& row) -> bool {
      const auto cell = row.cells.find(kEnvelopeColumn);
      if (cell == row.cells.end()) {
        *err = "pack row has no envelope cell";
        return false;
      }
      auto pack = Timed(trace, "core.open", root, &id,
                        [&] { return crypter_->Open(cell->second.value, pack_id); });
      if (!pack.ok()) {
        *err = "Open: " + pack.status().ToString();
        return false;
      }
      for (const auto& e : pack->entries()) {
        if (e.key >= klo && e.key <= khi) {
          rows[std::string(e.key)] = std::string(e.value);
        }
      }
      return true;
    };
    for (int p = 0; p < options_.hash_partitions; ++p) {
      const std::string partition = PartitionLabel(p);
      auto scan = Timed(trace, "kvstore.read_range", root, &id, [&] {
        return cluster_->ReadRange(options_.table, partition, klo, khi);
      });
      if (!scan.ok()) {
        *err = "ReadRange: " + scan.status().ToString();
        return false;
      }
      bool starts_at_pack = false;
      for (const auto& [pack_id, row] : *scan) {
        starts_at_pack |= pack_id == klo;
        if (!open_into(pack_id, row)) {
          return false;
        }
      }
      if (!starts_at_pack) {
        auto floor = Timed(trace, "kvstore.read_floor", root, &id,
                           [&] { return cluster_->ReadFloor(options_.table, partition, klo); });
        if (floor.ok() && floor->first < klo && !open_into(floor->first, floor->second)) {
          return false;
        }
        if (!floor.ok() && !floor.status().IsNotFound()) {
          *err = "ReadFloor: " + floor.status().ToString();
          return false;
        }
      }
    }
    if (rows.size() != client_rows.size()) {
      *err = "replayed range has " + std::to_string(rows.size()) + " rows, client " +
             std::to_string(client_rows.size());
      return false;
    }
    size_t i = 0;
    for (const auto& [k, v] : rows) {
      if (k != EncodeKey64(client_rows[i].first) || v != client_rows[i].second) {
        *err = "replayed range disagrees with the client's rows";
        return false;
      }
      ++i;
    }
    return true;
  }

  Args args_;
  Workload w_;
  MiniCryptOptions options_;
  std::shared_ptr<Keyring> keyring_;
  std::unique_ptr<PackCrypter> crypter_;
  const Compressor* codec_ = nullptr;
  std::vector<std::pair<uint64_t, std::string>> rows_;  // key i at index i
  std::vector<std::string> second_;                    // Put values, keys [0, kPutKeys)
  uint64_t raw_bytes_ = 0;
  std::unique_ptr<WaitCountingClock> clock_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<GenericClient>> clients_;
  std::atomic<uint64_t> ops_done_{0};  // ops completed in the current phase
};

// --- Span analysis -----------------------------------------------------------------------

struct LayerTimes {
  // Per op type: span name -> per-op total time in spans of that name, over
  // the replayed ops of that type.
  std::map<std::string, std::vector<int64_t>, std::less<>> per_op_ns[kOpTypes];
  // Replayed Gets / Puts: op span minus the replayed calls that are its
  // direct stages. For a Put this residual is the LWT, retries and backoff.
  std::vector<int64_t> get_self_ns;
  std::vector<int64_t> put_residual_ns;
  // Means over replayed Gets; get = read_floor + open + residue exactly,
  // where the residue is the op minus the replay of its stages.
  double get_mean_us = 0;
  double get_floor_mean_us = 0;
  double get_open_mean_us = 0;
  double get_residue_mean_us = 0;
  size_t replayed_gets = 0;
};

LayerTimes AnalyzeSpans(const std::vector<TraceBuffer>& traces) {
  LayerTimes lt;
  double get_sum = 0, floor_sum = 0, open_sum = 0;
  for (const TraceBuffer& tb : traces) {
    const auto& spans = tb.spans();
    for (size_t begin = 0; begin < spans.size();) {
      size_t end = begin;
      while (end < spans.size() && spans[end].op == spans[begin].op) {
        ++end;
      }
      const Span& root = spans[begin];
      int type = 0;
      while (type < kOpTypes && std::string_view(root.name) != kRootSpans[type]) {
        ++type;
      }
      if (type == kOpTypes || !root.replayed) {
        begin = end;
        continue;
      }
      std::map<std::string_view, int64_t> sums;
      int64_t children = 0, floor = 0, open = 0;
      for (size_t i = begin; i < end; ++i) {
        const Span& s = spans[i];
        const int64_t dur = s.end_ns - s.start_ns;
        sums[s.name] += dur;
        if (s.parent == 1) {
          children += dur;
          if (std::string_view(s.name) == "kvstore.read_floor") {
            floor += dur;
          } else if (std::string_view(s.name) == "core.open") {
            open += dur;
          }
        }
      }
      for (const auto& [name, ns] : sums) {
        lt.per_op_ns[type][std::string(name)].push_back(ns);
      }
      const int64_t dur = root.end_ns - root.start_ns;
      if (type == kGet) {
        lt.get_self_ns.push_back(dur - children);
        get_sum += static_cast<double>(dur);
        floor_sum += static_cast<double>(floor);
        open_sum += static_cast<double>(open);
        ++lt.replayed_gets;
      } else if (type == kPut) {
        lt.put_residual_ns.push_back(dur - children);
      }
      begin = end;
    }
  }
  if (lt.replayed_gets > 0) {
    const double n = static_cast<double>(lt.replayed_gets) * 1e3;
    lt.get_mean_us = get_sum / n;
    lt.get_floor_mean_us = floor_sum / n;
    lt.get_open_mean_us = open_sum / n;
    lt.get_residue_mean_us = lt.get_mean_us - lt.get_floor_mean_us - lt.get_open_mean_us;
  }
  return lt;
}

// p50 (us) of per-op span totals over replayed ops of type `op`; 0 when the
// span never ran under that op type.
double P50Us(const LayerTimes& lt, OpType op, std::string_view name) {
  const auto it = lt.per_op_ns[op].find(name);
  return it == lt.per_op_ns[op].end() ? 0.0 : ComputePercentiles(it->second).p50_us;
}

void WriteTrace(const std::string& path, const std::vector<const PhaseResult*>& phases) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
    return;
  }
  for (const PhaseResult* phase : phases) {
    for (const TraceBuffer& tb : phase->traces) {
      for (const Span& s : tb.spans()) {
        out << "{\"op\":" << s.op << ",\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
            << ",\"dur_ns\":" << (s.end_ns - s.start_ns)
            << ",\"replay\":" << (s.replay ? "true" : "false") << "}\n";
      }
    }
  }
}

// --- Reporting --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintMetric(const Metric& m, const std::string& note = {}) {
  std::printf("%-40s %14s %-6s%s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str(),
              note.c_str());
}

void PrintResultJson(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double MemcpyGbPerS() {
  constexpr size_t kBytes = 32u << 20;
  std::vector<char> src(kBytes, 1), dst(kBytes, 0);
  double best = 0;
  for (int i = 0; i < 5; ++i) {
    src[static_cast<size_t>(i)] = static_cast<char>(i);
    const int64_t t0 = NowNs();
    std::memcpy(dst.data(), src.data(), kBytes);
    const int64_t t1 = NowNs();
    best = std::max(best, static_cast<double>(kBytes) / static_cast<double>(t1 - t0));
  }
  return dst[4] == 4 ? best : 0;  // bytes per ns == GB/s
}


int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: mc_perfbench --workload <read_hot|read_spill|write_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               msg);
  return 2;
}

int Run(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for a flag");
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
      have_seconds = args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
      have_trace = args.trace || std::string_view(value) == "0";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      return Usage("unknown flag");
    }
  }
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace (0 or 1) are required");
  }

  std::printf("# mc_perfbench workload=%s seed=%llu seconds=%s trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), Num(args.seconds).c_str(),
              args.trace ? 1 : 0);
  std::printf("# run-context simd=%s nproc=%ld build=%s memcpy_gb_s=%.2f client_threads=%d\n",
              SimdLevelName(CurrentSimdLevel()), sysconf(_SC_NPROCESSORS_ONLN),
              MC_PERFBENCH_BUILD_TYPE, MemcpyGbPerS(), kClientThreads);
  std::fflush(stdout);

  Bench bench(args, w);
  bench.GenerateRows();
  std::vector<SetupTimes> setups(kSetupRepeats);
  for (SetupTimes& t : setups) {
    if (!bench.Setup(&t)) {
      return 1;
    }
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) {
      v.push_back(t.*field);
    }
    return Median(v);
  };

  PhaseSpec base;
  base.mix = w.mix;
  base.zipfian = w.zipfian;
  base.key_space = w.rows;
  base.replay_share = kReplayShare;

  std::vector<const PhaseResult*> phases;
  PhaseSpec warm = base;
  warm.seconds = kWarmupSeconds;
  warm.salt = 1;
  const PhaseResult warmup = bench.RunPhase(warm);
  phases.push_back(&warmup);

  // Main window: the whole run untraced, or its first half when tracing (the
  // counter-based layer metrics and the tracing-overhead reference).
  PhaseSpec main_spec = base;
  main_spec.seconds = args.trace ? args.seconds / 2 : args.seconds;
  main_spec.salt = 2;
  main_spec.sample_series = true;
  const PhaseResult main_phase = bench.RunPhase(main_spec);
  phases.push_back(&main_phase);

  PhaseResult traced, probe;
  if (args.trace) {
    PhaseSpec t = base;
    t.seconds = args.seconds / 2;
    t.traced = true;
    t.salt = 3;
    traced = bench.RunPhase(t);
    phases.push_back(&traced);
    if (w.mix.put == 0) {
      // No puts in this mix: a short traced put probe supplies the
      // write-path layer metrics (residual, LWT, retries, media writes).
      PhaseSpec p;
      p.mix = Mix{0, 0, 1};
      p.key_space = std::min(w.rows, kPutKeys);
      p.ops_per_thread = kProbePutsPerThread;
      p.traced = true;
      p.replay_share = 1.0;
      p.salt = 4;
      probe = bench.RunPhase(p);
      phases.push_back(&probe);
    }
  }

  uint64_t attempted = 0, failed = 0;
  for (const PhaseResult* p : phases) {
    attempted += p->ops;
    failed += p->failed;
    for (const std::string& e : p->errors) {
      std::fprintf(stderr, "error: %s\n", e.c_str());
    }
  }
  const bool correct = failed == 0;

  // --- End-to-end metrics (main window) ---
  const Counters& d = main_phase.delta;
  const double ops = static_cast<double>(main_phase.ops);
  const Percentiles get = ComputePercentiles(main_phase.latency_ns[kGet]);
  const Percentiles range = ComputePercentiles(main_phase.latency_ns[kRange]);
  const Percentiles put = ComputePercentiles(main_phase.latency_ns[kPut]);
  std::vector<int64_t> all_ops;
  for (const auto& v : main_phase.latency_ns) {
    all_ops.insert(all_ops.end(), v.begin(), v.end());
  }
  const Percentiles any = ComputePercentiles(std::move(all_ops));
  double at_rest_mean = 0;
  for (double b : main_phase.at_rest_bytes) {
    at_rest_mean += b / static_cast<double>(main_phase.at_rest_bytes.size());
  }

  std::vector<Metric> e2e = {
      {"ops_s", Median(main_phase.window_ops_s), "1/s"},
      {"get_p50_us", get.p50_us, "us"},
      {"get_p95_us", get.p95_us, "us"},
      {"cpu_us_per_op", Median(main_phase.window_cpu_us_per_op), "us"},
      {"stored_bytes_per_user_byte", Ratio(at_rest_mean, bench.raw_bytes()), "B/B"},
      {"setup_s", median_of(&SetupTimes::total_s), "s"},
      {"max_rss_mb", MaxRssMb(), "MB"},
  };
  const double error_rate = Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  const double wait_per_op = Ratio(static_cast<double>(d.slept_us), ops);

  std::printf("# end-to-end (%s window, %llu ops, %d client threads)\n",
              args.trace ? "untraced half" : "untraced", static_cast<unsigned long long>(main_phase.ops),
              kClientThreads);
  for (const Metric& m : e2e) {
    PrintMetric(m);
  }
  std::printf("# latency by op type (exact percentiles of every op in the window)\n");
  auto print_op = [](const char* name, const Percentiles& p) {
    if (p.n == 0) {
      std::printf("%-40s %14s        (not in this mix)\n", (std::string(name) + "_*_us").c_str(),
                  "n/a");
      return;
    }
    const std::string prefix(name);
    PrintMetric({prefix + "_p50_us", p.p50_us, "us"}, "  (n=" + std::to_string(p.n) + ")");
    PrintMetric({prefix + "_p95_us", p.p95_us, "us"},
                "  (beyond p95=" + std::to_string(p.beyond_p95) + ")");
    PrintMetric({prefix + "_p99_us", p.p99_us, "us"},
                "  (beyond p99=" + std::to_string(p.beyond_p99) + ")");
  };
  print_op("get", get);
  print_op("range", range);
  print_op("put", put);
  print_op("op", any);
  PrintMetric({"ops_s.whole_window", Ratio(ops, static_cast<double>(d.wall_ns) / 1e9), "1/s"},
              "  (ops_s is the median of " + std::to_string(main_phase.window_ops_s.size()) +
                  " sub-windows)");
  PrintMetric({"cpu_us_per_op.whole_window", Ratio(static_cast<double>(d.cpu_us), ops), "us"});
  PrintMetric({"setup_wall_s", median_of(&SetupTimes::wall_s), "s"},
              "  (setup_s is CPU seconds; median of " + std::to_string(kSetupRepeats) + " setups)");
  PrintMetric({"error_rate", error_rate, "ratio"},
              "  (" + std::to_string(failed) + " of " + std::to_string(attempted) + " ops)");
  PrintMetric({"modelled_wait_us_per_op", wait_per_op, "us"},
              "  (separate from cpu_us_per_op; summed over all threads)");

  std::vector<Metric> layers;
  if (args.trace) {
    const LayerTimes lt = AnalyzeSpans(traced.traces);
    // Write-path numbers come from the mix when it has puts, else from the
    // put probe.
    const bool probe_writes = w.mix.put == 0;
    const LayerTimes probe_lt = AnalyzeSpans(probe.traces);
    const LayerTimes& write_lt = probe_writes ? probe_lt : lt;
    const Counters& wd = probe_writes ? probe.delta : d;
    const double bytes_put =
        static_cast<double>(probe_writes ? probe.bytes_put : main_phase.bytes_put);
    const Percentiles traced_get = ComputePercentiles(traced.latency_ns[kGet]);
    const uint64_t cache_lookups = d.cache_hits + d.cache_misses;
    // Point-read layers come from replayed Gets, the seal chain from replayed
    // Puts, and range ops report their own totals.
    layers = {
        {"kvstore.read_floor_us", P50Us(lt, kGet, "kvstore.read_floor"), "us"},
        {"kvstore.read_range_us",
         P50Us(lt, w.mix.range > 0 ? kRange : kGet, "kvstore.read_range"), "us"},
        {"core.range.read_floor_us", P50Us(lt, kRange, "kvstore.read_floor"), "us"},
        {"core.range.open_us", P50Us(lt, kRange, "core.open"), "us"},
        {"core.open_us", P50Us(lt, kGet, "core.open"), "us"},
        {"crypto.gcm_open_us", P50Us(lt, kGet, "crypto.gcm_open"), "us"},
        {"compress.decompress_us", P50Us(lt, kGet, "compress.decompress"), "us"},
        {"core.pack_parse_us", P50Us(lt, kGet, "core.pack_parse"), "us"},
        {"core.seal_us", P50Us(write_lt, kPut, "core.seal"), "us"},
        {"core.pack_serialize_us", P50Us(write_lt, kPut, "core.pack_serialize"), "us"},
        {"compress.compress_us", P50Us(write_lt, kPut, "compress.compress"), "us"},
        {"crypto.gcm_seal_us", P50Us(write_lt, kPut, "crypto.gcm_seal"), "us"},
        {"core.get.self_us", ComputePercentiles(lt.get_self_ns).p50_us, "us"},
        {"core.get.residue_share", Ratio(lt.get_residue_mean_us, lt.get_mean_us), "ratio"},
        {"core.put.residual_us", ComputePercentiles(write_lt.put_residual_ns).p50_us, "us"},
        {"kvstore.modelled_wait_us_per_op", wait_per_op, "us/op"},
        {"kvstore.media.busy_us_per_op", Ratio(static_cast<double>(d.media_busy_us), ops), "us/op"},
        {"kvstore.media.reads_per_op", Ratio(static_cast<double>(d.media_reads), ops), "1/op"},
        {"kvstore.media.read_bytes_per_op", Ratio(static_cast<double>(d.media_read_bytes), ops),
         "B/op"},
        {"kvstore.media.write_bytes_per_user_byte",
         Ratio(static_cast<double>(wd.media_write_bytes), bytes_put), "B/B"},
        {"kvstore.block_cache.hit_ratio",
         Ratio(static_cast<double>(d.cache_hits), static_cast<double>(cache_lookups)), "ratio"},
        {"kvstore.block_cache.evictions_per_op", Ratio(static_cast<double>(d.cache_evictions), ops),
         "1/op"},
        {"kvstore.lwt.failure_ratio",
         Ratio(static_cast<double>(wd.lwt_failures), static_cast<double>(wd.lwt_attempts)),
         "ratio"},
        {"core.put.retries_per_put",
         Ratio(static_cast<double>(wd.put_retries), static_cast<double>(wd.puts)), "1/op"},
        {"kvstore.bytes_to_client_per_op", Ratio(static_cast<double>(d.bytes_to_client), ops),
         "B/op"},
        {"compress.ratio",
         Ratio(static_cast<double>(traced.raw_pack_bytes),
               static_cast<double>(traced.compressed_pack_bytes)),
         "x"},
        {"setup.bulk_load_s", median_of(&SetupTimes::bulk_load_s), "s"},
        {"setup.flush_s", median_of(&SetupTimes::flush_s), "s"},
        {"setup.warm_s", median_of(&SetupTimes::warm_s), "s"},
        {"trace.untraced_get_p50_us", get.p50_us, "us"},
        {"trace.get_p50_us", traced_get.p50_us, "us"},
        {"trace.overhead_ratio", Ratio(traced_get.p50_us, get.p50_us), "ratio"},
    };
    std::printf("# per-layer (p50 of per-op replay span totals: read path over %zu replayed "
                "gets, seal chain over %zu replayed puts%s; counters over the untraced half%s)\n",
                lt.replayed_gets, write_lt.put_residual_ns.size(),
                probe_writes ? " of the put probe" : "",
                probe_writes ? ", write counters over the put probe" : "");
    for (const Metric& m : layers) {
      PrintMetric(m);
    }
    std::printf("# get decomposition, mean over replayed gets: replayed read_floor %s + "
                "replayed open %s + residue (op minus replay) %s = traced get %s us\n",
                Num(lt.get_floor_mean_us).c_str(), Num(lt.get_open_mean_us).c_str(),
                Num(lt.get_residue_mean_us).c_str(), Num(lt.get_mean_us).c_str());
    if (!args.trace_file.empty()) {
      WriteTrace(args.trace_file, {&traced, &probe});
    }
  }

  PrintResultJson(correct, attempted, failed, args.trace ? layers : e2e);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace minicrypt

int main(int argc, char** argv) { return minicrypt::Run(argc, argv); }
