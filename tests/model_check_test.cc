// Model-based property tests: long random operation sequences against an
// in-memory reference model. Single-threaded sequences must match the model
// exactly (packs, splits, partitions and codecs are all invisible at the API
// level); multi-threaded sequences must converge to a state where every key
// has a value one of the writers actually wrote.
//
// The ModelCheckChaos suite runs the same workload under deterministic fault
// injection (docs/TESTING.md): media errors, latency spikes, commit-log
// failures, ambiguous LWTs, replica drops/delays, node flaps, and clock skew,
// then heals, quiesces, and checks the durability/integrity/convergence
// invariants. Override MC_CHAOS_SEED / MC_CHAOS_ITERS to replay or extend.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/core/generic_client.h"
#include "src/crypto/crypto.h"
#include "src/index/secondary_index.h"
#include "src/kvstore/bloom.h"
#include "src/kvstore/fault_injector.h"
#include "src/obs/metrics.h"

namespace minicrypt {
namespace {

struct ModelParams {
  size_t pack_rows;
  int hash_partitions;
  std::string codec;
  bool encrypt_pack_ids;
};

class ModelCheck : public ::testing::TestWithParam<ModelParams> {};

TEST_P(ModelCheck, RandomSequenceMatchesReferenceModel) {
  Cluster cluster(ClusterOptions::ForTest());
  const SymmetricKey key = SymmetricKey::FromSeed("model");
  MiniCryptOptions options;
  options.pack_rows = GetParam().pack_rows;
  options.hash_partitions = GetParam().hash_partitions;
  options.codec = GetParam().codec;
  options.encrypt_pack_ids = GetParam().encrypt_pack_ids;
  options.packid_bucket_width = 16;
  ASSERT_TRUE(options.Validate().ok());

  GenericClient client(&cluster, options, key);
  ASSERT_TRUE(client.CreateTable().ok());

  std::map<uint64_t, std::string> model;
  Rng rng(0xC0FFEE);
  const uint64_t keyspace = 400;
  for (int op = 0; op < 1500; ++op) {
    const uint64_t k = rng.Uniform(keyspace);
    const int kind = static_cast<int>(rng.Uniform(10));
    if (kind < 6) {  // put
      const std::string value = "v" + std::to_string(op);
      ASSERT_TRUE(client.Put(k, value).ok()) << "op " << op;
      model[k] = value;
    } else if (kind < 8) {  // delete
      ASSERT_TRUE(client.Delete(k).ok()) << "op " << op;
      model.erase(k);
    } else {  // get
      auto got = client.Get(k);
      auto it = model.find(k);
      if (it == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << "op " << op << " key " << k;
      } else {
        ASSERT_TRUE(got.ok()) << "op " << op << " key " << k;
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  // Final full audit.
  for (uint64_t k = 0; k < keyspace; ++k) {
    auto got = client.Get(k);
    auto it = model.find(k);
    if (it == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << k;
    } else {
      ASSERT_TRUE(got.ok()) << k;
      EXPECT_EQ(*got, it->second) << k;
    }
  }
  // Range audit (skip in encrypted-packID mode, which refuses ranges).
  if (!options.encrypt_pack_ids) {
    auto rows = client.GetRange(0, keyspace);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), model.size());
    auto expected = model.begin();
    for (const auto& [k, v] : *rows) {
      EXPECT_EQ(k, expected->first);
      EXPECT_EQ(v, expected->second);
      ++expected;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ModelCheck,
    ::testing::Values(ModelParams{4, 1, "zlib", false},
                      ModelParams{8, 4, "zlib", false},
                      ModelParams{50, 8, "lz4like", false},
                      ModelParams{5, 2, "snappylike", false},
                      ModelParams{16, 2, "zlib", true}),
    [](const auto& info) {
      const ModelParams& p = info.param;
      return "pack" + std::to_string(p.pack_rows) + "_part" +
             std::to_string(p.hash_partitions) + "_" + p.codec +
             (p.encrypt_pack_ids ? "_encids" : "");
    });

TEST(ModelCheckConcurrent, WritersConvergeToWrittenValues) {
  Cluster cluster(ClusterOptions::ForTest());
  const SymmetricKey key = SymmetricKey::FromSeed("model");
  MiniCryptOptions options;
  options.pack_rows = 6;
  options.hash_partitions = 2;

  GenericClient setup(&cluster, options, key);
  ASSERT_TRUE(setup.CreateTable().ok());

  constexpr int kThreads = 6;
  constexpr uint64_t kKeyspace = 120;
  // Each thread records the last value it wrote (or tombstone) per key.
  std::vector<std::map<uint64_t, std::string>> last_write(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GenericClient worker(&cluster, options, key);
      Rng rng(static_cast<uint64_t>(t) * 31 + 1);
      for (int op = 0; op < 150; ++op) {
        const uint64_t k = rng.Uniform(kKeyspace);
        if (rng.Bernoulli(0.85)) {
          const std::string value = "t" + std::to_string(t) + "#" + std::to_string(op);
          ASSERT_TRUE(worker.Put(k, value).ok());
          last_write[static_cast<size_t>(t)][k] = value;
        } else {
          ASSERT_TRUE(worker.Delete(k).ok());
          last_write[static_cast<size_t>(t)][k] = "";  // tombstone marker
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  // Every readable value must be the final write of *some* thread for that
  // key (no resurrected, torn, or invented values), and a key is NotFound
  // only if at least one thread's final op on it was a delete.
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = setup.Get(k);
    bool some_writer_touched = false;
    bool some_final_delete = false;
    bool value_matches_some_final = false;
    for (const auto& writes : last_write) {
      auto it = writes.find(k);
      if (it == writes.end()) {
        continue;
      }
      some_writer_touched = true;
      if (it->second.empty()) {
        some_final_delete = true;
      } else if (got.ok() && *got == it->second) {
        value_matches_some_final = true;
      }
    }
    if (!some_writer_touched) {
      EXPECT_TRUE(got.status().IsNotFound()) << k;
    } else if (got.ok()) {
      EXPECT_TRUE(value_matches_some_final) << "key " << k << " holds value '" << *got
                                            << "' no thread finally wrote";
    } else {
      EXPECT_TRUE(some_final_delete) << "key " << k << " vanished without a final delete";
    }
  }
}

// --- Chaos harness -----------------------------------------------------------

uint64_t ChaosSeed() {
  if (const char* env = std::getenv("MC_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0x5EEDC0DEULL;
}

int ChaosIters() {
  if (const char* env = std::getenv("MC_CHAOS_ITERS")) {
    return std::atoi(env);
  }
  return 220;
}

// Every fault point at a nonzero rate. Rates are tuned so a few hundred ops
// see each fault several times while the bounded retry budget still wins.
void ArmAllFaultPoints(FaultInjector* injector) {
  injector->SetRate(FaultPoint::kMediaReadError, 0.02);
  injector->SetRate(FaultPoint::kMediaWriteError, 0.01);
  injector->SetRate(FaultPoint::kMediaLatency, 0.05);
  injector->SetRate(FaultPoint::kCommitLogAppend, 0.008);
  injector->SetRate(FaultPoint::kLwtAmbiguous, 0.01);
  injector->SetRate(FaultPoint::kReplicaDrop, 0.02);
  injector->SetRate(FaultPoint::kReplicaDelay, 0.05);
  injector->SetRate(FaultPoint::kNodeFlap, 0.02);
  injector->SetRate(FaultPoint::kClockSkew, 0.2);
  injector->set_latency_spike_base_micros(200);
  injector->set_clock_skew_max_steps(32);
}

ClusterOptions ChaosClusterOptions(SimulatedClock* clock, FaultInjector* injector) {
  ClusterOptions copts = ClusterOptions::ForTest();
  copts.node_count = 3;
  copts.replication_factor = 3;
  copts.consistency = Consistency::kQuorum;
  copts.clock = clock;
  copts.fault_injector = injector;
  // Real (but light) media so kMediaLatency has a surface; all charges are
  // virtual-clock advances.
  MediaProfile media;
  media.seek_micros = 20;
  media.bytes_per_micro_read = 500.0;
  media.bytes_per_micro_write = 500.0;
  media.queue_depth = 8;
  copts.media = media;
  // Small memtables + eager compaction so flush/compaction/media paths run.
  copts.engine.memtable_flush_bytes = 32 * 1024;
  copts.engine.compaction_trigger = 4;
  return copts;
}

MiniCryptOptions ChaosClientOptions(uint64_t jitter_seed) {
  MiniCryptOptions options;
  options.pack_rows = 4;  // frequent splits
  options.hash_partitions = 2;
  options.max_put_retries = 96;
  options.retry_backoff_base_micros = 50;
  options.retry_backoff_max_micros = 4'000;
  options.retry_jitter_seed = jitter_seed;
  return options;
}

Row SideValueRow(std::string value) {
  Row row;
  row.cells["v"] = Cell{std::move(value), 0, false};
  return row;
}

// One client op as the reference model sees it.
struct ChaosOp {
  bool is_delete = false;
  std::string value;
};

// Per-(thread, key) history: the last acknowledged op plus every unacked
// (ambiguous) op issued after it. Any of these may be the key's final state;
// anything older cannot be (it is followed by an op that definitely applied).
struct KeyTrack {
  std::optional<ChaosOp> last_acked;
  std::vector<ChaosOp> unacked;
};
using ThreadTrack = std::map<uint64_t, KeyTrack>;

void RecordOp(ThreadTrack* track, uint64_t key, bool is_delete, const std::string& value,
              const Status& s) {
  KeyTrack& kt = (*track)[key];
  if (s.ok()) {
    kt.last_acked = ChaosOp{is_delete, value};
    kt.unacked.clear();
  } else if (s.IsUnavailable() || s.IsAborted() || s.IsCorruption()) {
    // Corruption surfaces when every vote-capable replica erred on the
    // internal read; the op did not apply, but admitting it as an unacked
    // candidate only loosens the final-state check, never weakens it.
    kt.unacked.push_back(ChaosOp{is_delete, value});
  } else {
    ADD_FAILURE() << "unexpected status for key " << key << ": " << s.ToString();
  }
}

// Invariant (b): on every replica of every data partition, each stored pack
// must round-trip (hash matches, decryption + decompression succeed), hold
// no key below its packID, and be internally sorted. Keys at or beyond the
// *next* packID are permitted: an interrupted split (paper Figure 6, between
// steps 3 and 5) or a hint-replayed under-replicated pack leaves stale
// duplicates of a later pack's range behind. Those copies are harmless —
// floor routing (and the range query's authoritative-pack dedup) never
// surfaces them — and always stale-or-equal, since any write newer than the
// covering pack would have been routed to that pack. Because the audit's
// anti-entropy sweep re-touches every pack, no pack may remain oversized,
// which bounds how long such duplicates can survive under real traffic.
void CheckPackIntegrity(Cluster* cluster, const PackCrypter& crypter,
                        const MiniCryptOptions& options) {
  for (int p = 0; p < options.hash_partitions; ++p) {
    const std::string partition = PartitionLabel(p);
    for (int node : cluster->ReplicaNodesFor(partition)) {
      auto rows = cluster->DebugPartitionRows(node, options.table, partition);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      for (size_t i = 0; i < rows->size(); ++i) {
        const auto& [id, row] = (*rows)[i];
        auto v = row.cells.find("v");
        auto h = row.cells.find("h");
        ASSERT_TRUE(v != row.cells.end() && h != row.cells.end())
            << "pack row missing cells (node " << node << ", partition " << partition << ")";
        EXPECT_EQ(Sha256(v->second.value), h->second.value)
            << "stored hash does not match envelope (node " << node << ")";
        auto pack = crypter.Open(v->second.value, id);
        ASSERT_TRUE(pack.ok()) << "pack fails decryption on node " << node << ": "
                               << pack.status().ToString() << " (epoch "
                               << PackCrypter::EnvelopeEpoch(v->second.value) << ", sha_ok "
                               << (Sha256(v->second.value) == h->second.value) << ", id "
                               << id << ")";
        const auto& entries = pack->entries();
        EXPECT_LE(entries.size(), options.EffectiveMaxKeys())
            << "pack " << i << " still oversized after the anti-entropy sweep (node " << node
            << ", partition " << partition << ")";
        for (size_t j = 0; j < entries.size(); ++j) {
          EXPECT_GE(entries[j].key, id) << "key below its packID on node " << node;
          if (j > 0) {
            EXPECT_LT(entries[j - 1].key, entries[j].key) << "pack not sorted on node " << node;
          }
        }
      }
    }
  }
}

// Invariant (d): after heal + hint replay, all replicas of a partition hold
// byte-identical rows (values, timestamps, tombstone flags).
std::string SerializeReplica(Cluster* cluster, int node, std::string_view table,
                             std::string_view partition) {
  auto rows = cluster->DebugPartitionRows(node, table, partition);
  if (!rows.ok()) {
    return "error: " + rows.status().ToString();
  }
  std::string out;
  for (const auto& [id, row] : *rows) {
    out += id;
    out += '\x01';
    for (const auto& [name, cell] : row.cells) {
      out += name;
      out += '\x02';
      out += cell.value;
      out += '\x02';
      out += std::to_string(cell.timestamp);
      out += '\x02';
      out += cell.tombstone ? '1' : '0';
      out += '\x03';
    }
    out += '\x04';
  }
  return out;
}

void CheckReplicaConvergence(Cluster* cluster, std::string_view table,
                             std::string_view partition) {
  const std::vector<int> nodes = cluster->ReplicaNodesFor(partition);
  ASSERT_FALSE(nodes.empty());
  const std::string reference = SerializeReplica(cluster, nodes[0], table, partition);
  for (size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_EQ(reference, SerializeReplica(cluster, nodes[i], table, partition))
        << "replicas " << nodes[0] << " and " << nodes[i] << " diverged on " << table << "/"
        << partition;
  }
}

// Shared body for the chaos invariant suite. With `shared_cache` set, every
// worker (and the audit reader) routes reads through one process-wide
// decrypted-pack cache in fully-coherent mode (ttl=0), and the run checks a
// fifth invariant on top of the four fault-tolerance ones:
//
// Invariant (e), staleness: a read must never return a value older than the
// reader's own previously acknowledged write to the same key. Values carry a
// "t<thread>#<op>" tag, so whenever a Get returns a value this thread wrote,
// its op number must be >= the thread's last acked op on that key. With
// ttl=0 the version probe revalidates against the server floor on every
// cached read, so this holds even while other threads rewrite the pack.
//
// With `use_async` set, the side-table leg of the workload goes through the
// async pipeline (AsyncMutate / AsyncReadFloorCell / AsyncGetRange futures)
// instead of the synchronous entry points, so the same five invariants are
// re-verified with the executor, concurrent replica fan-out, and early quorum
// ack in the request path.
void RunInvariantsUnderFire(bool shared_cache, bool use_async = false) {
  const uint64_t seed = ChaosSeed();
  const int iters = ChaosIters();
  std::fprintf(stderr,
               "[chaos] seed=0x%llx iters=%d cache=%d async=%d (set MC_CHAOS_SEED to replay)\n",
               static_cast<unsigned long long>(seed), iters, shared_cache ? 1 : 0,
               use_async ? 1 : 0);

  SimulatedClock clock;
  FaultInjector injector(seed);
  ArmAllFaultPoints(&injector);

  Cluster cluster(ChaosClusterOptions(&clock, &injector));
  const SymmetricKey key = SymmetricKey::FromSeed("chaos");
  const MiniCryptOptions base_options = ChaosClientOptions(seed + 1);

  std::shared_ptr<PackCache> cache;
  if (shared_cache) {
    cache = std::make_shared<PackCache>(/*capacity_bytes=*/4u << 20, /*ttl_micros=*/0, &clock);
  }

  GenericClient setup(&cluster, base_options, key);
  ASSERT_TRUE(setup.CreateTable().ok());
  ASSERT_TRUE(cluster.CreateTable("side").ok());

  constexpr int kThreads = 4;
  constexpr uint64_t kKeyspace = 96;
  std::vector<ThreadTrack> tracks(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MiniCryptOptions options = ChaosClientOptions(seed ^ (0x9E3779B97F4A7C15ULL * (t + 1)));
      GenericClient worker(&cluster, options, key, cache);
      ThreadTrack& track = tracks[static_cast<size_t>(t)];
      // Invariant (e) bookkeeping: op number of this thread's last acked
      // put/delete per key. Unacked (ambiguous) ops don't advance it.
      std::map<uint64_t, int> own_acked_op;
      const std::string own_tag = "t" + std::to_string(t) + "#";
      Rng rng(seed + 100 + static_cast<uint64_t>(t));
      for (int op = 0; op < iters; ++op) {
        if (op % 4 == 0) {
          cluster.ChaosTick();
        }
        const uint64_t k = rng.Uniform(kKeyspace);
        const int kind = static_cast<int>(rng.Uniform(100));
        if (kind < 50) {  // put
          const std::string value =
              "t" + std::to_string(t) + "#" + std::to_string(op);
          const Status s = worker.Put(k, value);
          RecordOp(&track, k, /*is_delete=*/false, value, s);
          if (s.ok()) {
            own_acked_op[k] = op;
          }
        } else if (kind < 65) {  // delete
          const Status s = worker.Delete(k);
          RecordOp(&track, k, /*is_delete=*/true, "", s);
          if (s.ok()) {
            own_acked_op[k] = op;
          }
        } else if (kind < 85) {  // get: status admissibility + own-write staleness
          auto got = worker.Get(k);
          const Status s = got.status();
          EXPECT_TRUE(s.ok() || s.IsNotFound() || s.IsUnavailable() || s.IsAborted())
              << s.ToString();
          if (got.ok() && got->rfind(own_tag, 0) == 0) {
            const int read_op = std::atoi(got->c_str() + own_tag.size());
            auto acked = own_acked_op.find(k);
            if (acked != own_acked_op.end()) {
              EXPECT_GE(read_op, acked->second)
                  << "stale read: key " << k << " returned own value '" << *got
                  << "' older than this thread's acked op " << acked->second;
            }
          }
        } else if (kind < 92) {  // narrow range
          const Status s = worker.GetRange(k, k + 8).status();
          EXPECT_TRUE(s.ok() || s.IsUnavailable() || s.IsAborted()) << s.ToString();
        } else {  // plain (non-LWT) write on a side table: exercises kClockSkew
          const std::string ck = EncodeKey64(1000 * static_cast<uint64_t>(t) + rng.Uniform(8));
          if (!use_async) {
            const Status s =
                cluster.Write("side", "sp", ck, SideValueRow("s" + std::to_string(op)));
            EXPECT_TRUE(s.ok() || s.IsUnavailable()) << s.ToString();
          } else {
            // Async leg: the same traffic through the pipelined entry points,
            // interleaved with async probes of what it wrote.
            const Status s =
                cluster.AsyncMutate("side", "sp", ck, SideValueRow("s" + std::to_string(op)))
                    .get();
            EXPECT_TRUE(s.ok() || s.IsUnavailable()) << s.ToString();
            if (rng.Bernoulli(0.5)) {
              auto probe = cluster.AsyncReadFloorCell("side", "sp", ck, "v").get();
              const Status ps = probe.status();
              EXPECT_TRUE(ps.ok() || ps.IsNotFound() || ps.IsUnavailable() || ps.IsAborted())
                  << ps.ToString();
            } else {
              auto scan = cluster.AsyncGetRange("side", "sp", "", ck, /*limit=*/8).get();
              const Status rs = scan.status();
              EXPECT_TRUE(rs.ok() || rs.IsNotFound() || rs.IsUnavailable() || rs.IsAborted())
                  << rs.ToString();
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  // Heal, quiesce, and audit.
  injector.Heal();
  cluster.HealAllNodes();
  cluster.ReplayAllHints();
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.PendingHints(n), 0u) << "node " << n << " still has hints after heal";
  }
  SCOPED_TRACE("chaos seed 0x" + std::to_string(seed) + " — rerun with MC_CHAOS_SEED");

  // Invariants (a) + (c): every acked write durable; final value admissible.
  // The audit reader shares the cache too: with ttl=0 its reads must agree
  // with an uncached reader, so the audit itself re-verifies coherence.
  GenericClient reader(&cluster, base_options, key, cache);
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = reader.Get(k);
    ASSERT_TRUE(got.ok() || got.status().IsNotFound())
        << "key " << k << ": " << got.status().ToString();
    bool acked_put_candidate = false;
    bool delete_candidate = false;
    bool value_matches_candidate = false;
    bool touched = false;
    for (const ThreadTrack& track : tracks) {
      auto it = track.find(k);
      if (it == track.end()) {
        continue;
      }
      touched = true;
      const KeyTrack& kt = it->second;
      std::vector<const ChaosOp*> candidates;
      if (kt.last_acked.has_value()) {
        candidates.push_back(&*kt.last_acked);
      }
      for (const ChaosOp& op : kt.unacked) {
        candidates.push_back(&op);
      }
      if (kt.last_acked.has_value() && !kt.last_acked->is_delete) {
        acked_put_candidate = true;
      }
      for (const ChaosOp* op : candidates) {
        if (op->is_delete) {
          delete_candidate = true;
        } else if (got.ok() && *got == op->value) {
          value_matches_candidate = true;
        }
      }
    }
    if (!touched) {
      EXPECT_TRUE(got.status().IsNotFound()) << "untouched key " << k << " has a value";
    } else if (got.ok()) {
      EXPECT_TRUE(value_matches_candidate)
          << "key " << k << " holds '" << *got << "', which no thread could have written last";
    } else {
      // NotFound: fine unless an acked put is necessarily the final op.
      EXPECT_TRUE(delete_candidate || !acked_put_candidate)
          << "key " << k << " lost an acknowledged put";
    }
  }

  // Anti-entropy pass: one benign mutate per key re-touches every pack,
  // completing any split abandoned when a thread exhausted its retry budget
  // mid-outage (such a pack would otherwise keep a stale, shadowed copy of
  // its right half — legal for reads, but flagged by the strict integrity
  // check below). Values are rewritten verbatim, so the semantic state the
  // audit above checked is unchanged.
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = reader.Get(k);
    if (got.ok()) {
      ASSERT_TRUE(reader.Put(k, *got).ok());
    } else {
      ASSERT_TRUE(got.status().IsNotFound()) << got.status().ToString();
      const Status s = reader.Delete(k);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
  }

  // Invariant (b): pack integrity on every replica.
  const PackCrypter crypter(base_options, key);
  CheckPackIntegrity(&cluster, crypter, base_options);

  // Invariant (d): replicas converge after hint replay.
  for (int p = 0; p < base_options.hash_partitions; ++p) {
    CheckReplicaConvergence(&cluster, base_options.table, PartitionLabel(p));
  }
  CheckReplicaConvergence(&cluster, "side", "sp");

  // The run must actually have exercised the fault points.
  for (const FaultPoint point :
       {FaultPoint::kMediaReadError, FaultPoint::kMediaWriteError, FaultPoint::kMediaLatency,
        FaultPoint::kCommitLogAppend, FaultPoint::kLwtAmbiguous, FaultPoint::kReplicaDrop,
        FaultPoint::kReplicaDelay, FaultPoint::kNodeFlap, FaultPoint::kClockSkew}) {
    EXPECT_GT(injector.trips(point), 0u)
        << FaultPointName(point) << " never fired; " << injector.Summary();
  }

  // A cache-enabled chaos run that never hit (or never invalidated) the
  // cache would vacuously pass; require that both paths actually ran.
  if (shared_cache) {
    const PackCacheStats cs = cache->Stats();
    EXPECT_GT(cs.hits, 0u) << "chaos run never served from the shared cache";
    EXPECT_GT(cs.invalidations + cs.misses, 0u);
  }
}

TEST(ModelCheckChaos, InvariantsHoldUnderFire) { RunInvariantsUnderFire(/*shared_cache=*/false); }

TEST(ModelCheckChaos, InvariantsHoldUnderFireWithSharedCache) {
  RunInvariantsUnderFire(/*shared_cache=*/true);
}

TEST(ModelCheckChaos, InvariantsHoldUnderFireViaAsyncPipeline) {
  RunInvariantsUnderFire(/*shared_cache=*/false, /*use_async=*/true);
}

// --- Secondary-index chaos ----------------------------------------------------
//
// Indexed traffic under the full fault mix plus the two index-protocol fault
// points (kIndexSplit aborts drains/splits mid-structure, kIndexPersist skips
// the post-commit truncation). The index's contract under fire: a successful
// GetRangeByValue returns exactly the live rows whose attribute lies in range
// — never a stale candidate (read-time verification filters them) and never a
// missing live row (index-first maintenance keeps the index a superset, and
// every abandoned drain leaves its entries in the buffers). The final audit
// uses the primary table's surviving rows as the differential oracle.
TEST(ModelCheckChaos, SecondaryIndexInvariantsUnderFire) {
  const uint64_t seed = ChaosSeed();
  SimulatedClock clock;
  FaultInjector injector(seed);

  Cluster cluster(ChaosClusterOptions(&clock, &injector));
  const SymmetricKey key = SymmetricKey::FromSeed("chaos-index");
  const MiniCryptOptions base_options = ChaosClientOptions(seed);
  SecondaryIndexOptions iopts;
  iopts.leakage = IndexLeakage::kQueriedOrder;
  iopts.leaf_rows = 5;

  constexpr uint64_t kKeyspace = 64;
  constexpr uint64_t kAttrDomain = 32;
  constexpr int kThreads = 4;
  // A fixed pool of query ranges: the manifest's region count stays bounded
  // by the number of distinct ranges ever drained (checked below), however
  // often chaos retries them.
  constexpr uint64_t kQueryRanges[][2] = {{0, 6},   {5, 11},  {12, 18},
                                          {20, 26}, {27, 31}, {0, kAttrDomain - 1}};

  // Clients (and the idempotent backing-table setup) are built before any
  // fault rate is armed: index creation is plumbing, not the protocol under
  // test, and a flaked CreateIndex would abort the run without proving
  // anything.
  std::vector<std::unique_ptr<GenericClient>> workers;
  {
    GenericClient setup(&cluster, base_options, key);
    ASSERT_TRUE(setup.CreateTable().ok());
    ASSERT_TRUE(setup.CreateIndex(iopts).ok());
  }
  for (int t = 0; t < kThreads; ++t) {
    MiniCryptOptions options = base_options;
    options.retry_jitter_seed = seed ^ (0xABC00u + static_cast<uint64_t>(t));
    workers.push_back(std::make_unique<GenericClient>(&cluster, options, key));
    ASSERT_TRUE(workers.back()->CreateIndex(iopts).ok());
  }

  ArmAllFaultPoints(&injector);
  injector.SetRate(FaultPoint::kIndexSplit, 0.08);
  injector.SetRate(FaultPoint::kIndexPersist, 0.08);
  // At least one of each must land whatever the seed draws, so the audit
  // below is never vacuous.
  injector.Script(FaultPoint::kIndexSplit, 1);
  injector.Script(FaultPoint::kIndexPersist, 1);

  const int iters = ChaosIters();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GenericClient& worker = *workers[static_cast<size_t>(t)];
      Rng rng(seed * 31 + static_cast<uint64_t>(t));
      for (int op = 0; op < iters; ++op) {
        if (t == 0 && op % 16 == 0) {
          cluster.ChaosTick();
        }
        const uint64_t k = rng.Uniform(kKeyspace);
        const int kind = static_cast<int>(rng.Uniform(100));
        if (kind < 55) {  // indexed put
          const uint64_t attr = rng.Uniform(kAttrDomain);
          const Status s = worker.Put(
              k, EncodeIndexedValue(attr, "t" + std::to_string(t) + ":" + std::to_string(op)));
          EXPECT_TRUE(s.ok() || s.IsUnavailable() || s.IsAborted() || s.IsCorruption())
              << s.ToString();
        } else if (kind < 70) {  // delete
          const Status s = worker.Delete(k);
          EXPECT_TRUE(s.ok() || s.IsUnavailable() || s.IsAborted() || s.IsCorruption())
              << s.ToString();
        } else {  // by-value range: admissible status; successes well-formed
          const auto& q = kQueryRanges[rng.Uniform(std::size(kQueryRanges))];
          auto got = worker.GetRangeByValue(q[0], q[1]);
          const Status s = got.status();
          EXPECT_TRUE(s.ok() || s.IsUnavailable() || s.IsAborted() || s.IsCorruption())
              << s.ToString();
          if (got.ok()) {
            // Every returned row is verified: its value's attribute must lie
            // in range, and primary keys ascend without duplicates. (Exact
            // row sets are only checkable once writers quiesce — see the
            // final audit.)
            for (size_t i = 0; i < got->size(); ++i) {
              const auto attr = DecodeIndexedAttr((*got)[i].second);
              ASSERT_TRUE(attr.has_value()) << "unindexable row verified into a result";
              EXPECT_GE(*attr, q[0]);
              EXPECT_LE(*attr, q[1]);
              if (i > 0) {
                EXPECT_LT((*got)[i - 1].first, (*got)[i].first)
                    << "by-value result not strictly ascending by primary key";
              }
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  injector.Heal();
  cluster.HealAllNodes();
  cluster.ReplayAllHints();
  SCOPED_TRACE("chaos seed 0x" + std::to_string(seed) + " — rerun with MC_CHAOS_SEED");

  // Differential audit: whatever rows survived on the primary table are the
  // oracle. Every pooled range, plus the full domain, must come back
  // byte-identical through the index path.
  GenericClient reader(&cluster, base_options, key);
  ASSERT_TRUE(reader.CreateIndex(iopts).ok());
  auto rows = reader.GetRange(0, kKeyspace);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::pair<uint64_t, uint64_t>> audits;
  for (const auto& q : kQueryRanges) {
    audits.emplace_back(q[0], q[1]);
  }
  audits.emplace_back(0, ~0ULL);
  for (const auto& [lo, hi] : audits) {
    std::vector<std::pair<uint64_t, std::string>> expect;
    for (const auto& [pk, value] : *rows) {
      const auto attr = DecodeIndexedAttr(value);
      if (attr.has_value() && *attr >= lo && *attr <= hi) {
        expect.emplace_back(pk, value);
      }
    }
    auto got = reader.GetRangeByValue(lo, hi);
    ASSERT_TRUE(got.ok()) << "[" << lo << ", " << hi << "]: " << got.status().ToString();
    EXPECT_EQ(*got, expect) << "index answer diverged from primary-table oracle for ["
                            << lo << ", " << hi << "]";
  }

  // Leakage bound survives chaos: drains retried under faults must merge into
  // existing regions, never mint extra ones beyond the distinct ranges asked.
  auto regions = reader.index()->SortedRegions();
  ASSERT_TRUE(regions.ok()) << regions.status().ToString();
  EXPECT_LE(*regions, std::size(kQueryRanges));

  // The run must actually have exercised the index protocol fault points.
  EXPECT_GT(injector.trips(FaultPoint::kIndexSplit), 0u)
      << "index_split never fired; " << injector.Summary();
  EXPECT_GT(injector.trips(FaultPoint::kIndexPersist), 0u)
      << "index_persist never fired; " << injector.Summary();
}

// --- Key-rotation chaos -------------------------------------------------------
//
// A rotator loops RotateKeys against the full fault mix plus the two rotation
// protocol points (kRotatePersist fails stage-edge persists, kRotateReseal
// crashes the rotator between opening and re-sealing a pack) while four
// ring-sharing writers hammer the same table. Every injected failure pauses
// the rotation mid-protocol; the next call must resume from the durable
// record. The audit re-verifies the standard five invariants — in particular
// (a): no write the rotator raced with may be lost to a re-seal — and two
// rotation-specific ones: after the healed rotation completes, every stored
// pack on every replica carries an epoch at or above the retirement floor,
// and every one still opens through the shared keyring.
TEST(ModelCheckChaos, KeyRotationScheduleHoldsInvariants) {
  const uint64_t seed = ChaosSeed();
  const int iters = ChaosIters();
  std::fprintf(stderr, "[chaos] rotation seed=0x%llx iters=%d (set MC_CHAOS_SEED to replay)\n",
               static_cast<unsigned long long>(seed), iters);

  SimulatedClock clock;
  FaultInjector injector(seed);

  Cluster cluster(ChaosClusterOptions(&clock, &injector));
  const SymmetricKey key = SymmetricKey::FromSeed("chaos-rotate");
  auto ring = Keyring::FromMaster(key);
  const MiniCryptOptions base_options = ChaosClientOptions(seed);

  constexpr int kThreads = 4;
  constexpr uint64_t kKeyspace = 96;

  // Clients (and the table) are built before any fault rate is armed: setup
  // is plumbing, not the protocol under test. All of them — workers, rotator,
  // audit reader — share one keyring, exactly like one customer's clients.
  std::vector<std::unique_ptr<GenericClient>> workers;
  {
    GenericClient setup(&cluster, base_options, ring);
    ASSERT_TRUE(setup.CreateTable().ok());
    for (uint64_t k = 0; k < kKeyspace; k += 3) {  // rotation must find real packs
      ASSERT_TRUE(setup.Put(k, "seed#" + std::to_string(k)).ok());
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    MiniCryptOptions options = base_options;
    options.retry_jitter_seed = seed ^ (0x407A7Eu + static_cast<uint64_t>(t));
    workers.push_back(std::make_unique<GenericClient>(&cluster, options, ring));
  }
  GenericClient rotator(&cluster, base_options, ring);

  ArmAllFaultPoints(&injector);
  injector.SetRate(FaultPoint::kRotatePersist, 0.08);
  injector.SetRate(FaultPoint::kRotateReseal, 0.08);
  // At least one of each must land whatever the seed draws, so the resume
  // path below is never vacuously exercised.
  injector.Script(FaultPoint::kRotatePersist, 1);
  injector.Script(FaultPoint::kRotateReseal, 1);

  std::vector<ThreadTrack> tracks(kThreads);
  std::atomic<bool> workers_done{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GenericClient& worker = *workers[static_cast<size_t>(t)];
      ThreadTrack& track = tracks[static_cast<size_t>(t)];
      std::map<uint64_t, int> own_acked_op;
      const std::string own_tag = "t" + std::to_string(t) + "#";
      Rng rng(seed + 500 + static_cast<uint64_t>(t));
      for (int op = 0; op < iters; ++op) {
        if (op % 4 == 0) {
          cluster.ChaosTick();
        }
        const uint64_t k = rng.Uniform(kKeyspace);
        const int kind = static_cast<int>(rng.Uniform(100));
        // A read can fetch an envelope, lose the CPU while the rotator
        // re-seals that pack and retires the old epoch, then open the stale
        // bytes: a typed KeyUnavailable, not data loss. The op did not apply,
        // so the tracker files it with the other did-not-apply outcomes.
        const auto retriable = [](const Status& s) {
          return s.IsKeyUnavailable() ? Status::Unavailable("stale epoch in hand") : s;
        };
        if (kind < 50) {  // put
          const std::string value = "t" + std::to_string(t) + "#" + std::to_string(op);
          const Status s = worker.Put(k, value);
          RecordOp(&track, k, /*is_delete=*/false, value, retriable(s));
          if (s.ok()) {
            own_acked_op[k] = op;
          }
        } else if (kind < 65) {  // delete
          const Status s = worker.Delete(k);
          RecordOp(&track, k, /*is_delete=*/true, "", retriable(s));
          if (s.ok()) {
            own_acked_op[k] = op;
          }
        } else if (kind < 90) {  // get: admissible status + own-write staleness
          auto got = worker.Get(k);
          const Status s = got.status();
          EXPECT_TRUE(s.ok() || s.IsNotFound() || s.IsUnavailable() || s.IsAborted() ||
                      s.IsKeyUnavailable())
              << s.ToString();
          if (got.ok() && got->rfind(own_tag, 0) == 0) {
            const int read_op = std::atoi(got->c_str() + own_tag.size());
            auto acked = own_acked_op.find(k);
            if (acked != own_acked_op.end()) {
              EXPECT_GE(read_op, acked->second)
                  << "stale read during rotation: key " << k << " returned own value '"
                  << *got << "' older than this thread's acked op " << acked->second;
            }
          }
        } else {  // narrow range
          const Status s = worker.GetRange(k, k + 8).status();
          EXPECT_TRUE(s.ok() || s.IsUnavailable() || s.IsAborted() || s.IsKeyUnavailable())
              << s.ToString();
        }
      }
    });
  }

  // The rotator: keep rotating (and resuming paused rotations) until the
  // writers quiesce. Injected persist failures and reseal crashes surface as
  // Unavailable / Aborted; anything else is a protocol bug.
  std::atomic<int> rotations_completed{0};
  std::thread rotator_thread([&] {
    while (!workers_done.load()) {
      const Status s = rotator.RotateKeys();
      if (s.ok()) {
        rotations_completed.fetch_add(1);
      } else {
        EXPECT_TRUE(s.IsUnavailable() || s.IsAborted()) << s.ToString();
      }
      std::this_thread::yield();
    }
  });

  for (auto& th : threads) {
    th.join();
  }
  workers_done.store(true);
  rotator_thread.join();

  injector.Heal();
  cluster.HealAllNodes();
  cluster.ReplayAllHints();
  SCOPED_TRACE("chaos seed 0x" + std::to_string(seed) + " — rerun with MC_CHAOS_SEED");

  // Drive any paused rotation to completion on the healed cluster, so the
  // audit below sees a quiesced window [retired_below, current].
  {
    Status s = rotator.RotateKeys();
    for (int attempt = 0; attempt < 64 && !s.ok(); ++attempt) {
      s = rotator.RotateKeys();
    }
    ASSERT_TRUE(s.ok()) << "rotation did not converge on a healed cluster: " << s.ToString();
    rotations_completed.fetch_add(1);
  }
  auto final_record = rotator.RotationState();
  ASSERT_TRUE(final_record.ok()) << final_record.status().ToString();
  EXPECT_EQ(final_record->stage, KeyRotationState::kStageIdle);
  EXPECT_GE(ring->retired_below(), 1u) << "no epoch was ever retired";
  EXPECT_GE(rotations_completed.load(), 1);

  // Invariants (a) + (c): every acked write durable, every value admissible.
  GenericClient reader(&cluster, base_options, ring);
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = reader.Get(k);
    ASSERT_TRUE(got.ok() || got.status().IsNotFound())
        << "key " << k << ": " << got.status().ToString();
    bool acked_put_candidate = false;
    bool delete_candidate = false;
    bool value_matches_candidate = false;
    bool touched = false;
    const bool preloaded = (k % 3 == 0);
    if (preloaded && got.ok() && *got == "seed#" + std::to_string(k)) {
      value_matches_candidate = true;  // nobody overwrote the seed value
    }
    for (const ThreadTrack& track : tracks) {
      auto it = track.find(k);
      if (it == track.end()) {
        continue;
      }
      touched = true;
      const KeyTrack& kt = it->second;
      if (kt.last_acked.has_value() && !kt.last_acked->is_delete) {
        acked_put_candidate = true;
      }
      std::vector<const ChaosOp*> candidates;
      if (kt.last_acked.has_value()) {
        candidates.push_back(&*kt.last_acked);
      }
      for (const ChaosOp& op : kt.unacked) {
        candidates.push_back(&op);
      }
      for (const ChaosOp* op : candidates) {
        if (op->is_delete) {
          delete_candidate = true;
        } else if (got.ok() && *got == op->value) {
          value_matches_candidate = true;
        }
      }
    }
    if (!touched && !preloaded) {
      EXPECT_TRUE(got.status().IsNotFound()) << "untouched key " << k << " has a value";
    } else if (got.ok()) {
      EXPECT_TRUE(value_matches_candidate)
          << "key " << k << " holds '" << *got
          << "', which no writer (nor the preload) could have written last";
    } else {
      EXPECT_TRUE(delete_candidate || (!acked_put_candidate && !preloaded))
          << "key " << k << " lost an acknowledged put across the rotation";
    }
  }

  // Anti-entropy re-touch (see RunInvariantsUnderFire) before the strict
  // integrity check.
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = reader.Get(k);
    if (got.ok()) {
      ASSERT_TRUE(reader.Put(k, *got).ok());
    } else {
      ASSERT_TRUE(got.status().IsNotFound()) << got.status().ToString();
      const Status s = reader.Delete(k);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
  }

  // Invariant (b) plus the rotation-specific pair: the ring-sharing crypter
  // must open every stored pack (so nothing is readable only through a
  // retired epoch), and every envelope's stamped epoch must sit at or above
  // the retirement floor.
  const PackCrypter crypter(base_options, ring);
  CheckPackIntegrity(&cluster, crypter, base_options);
  const uint64_t floor = ring->retired_below();
  for (int p = 0; p < base_options.hash_partitions; ++p) {
    const std::string partition = PartitionLabel(p);
    for (int node : cluster.ReplicaNodesFor(partition)) {
      auto rows = cluster.DebugPartitionRows(node, base_options.table, partition);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      for (const auto& [id, row] : *rows) {
        auto v = row.cells.find("v");
        ASSERT_TRUE(v != row.cells.end());
        EXPECT_GE(PackCrypter::EnvelopeEpoch(v->second.value), floor)
            << "pack " << id << " on node " << node << " still sealed below the retirement"
            << " floor after rotation completed";
      }
    }
    // Invariant (d), including the reserved partition holding the record.
    CheckReplicaConvergence(&cluster, base_options.table, partition);
  }
  CheckReplicaConvergence(&cluster, base_options.table, "rotation");

  // The run must actually have exercised the rotation protocol fault points.
  EXPECT_GT(injector.trips(FaultPoint::kRotatePersist), 0u)
      << "rotate_persist never fired; " << injector.Summary();
  EXPECT_GT(injector.trips(FaultPoint::kRotateReseal), 0u)
      << "rotate_reseal never fired; " << injector.Summary();
}

// --- Crash & corruption schedule ---------------------------------------------
//
// The second first-class chaos mode (docs/TESTING.md): instead of the
// network-ish faults above, this schedule crashes whole nodes (memtable gone,
// commit log torn mid-record), flips bits in at-rest blocks as they are
// written, and runs the repair machinery — restart + log replay, scrub +
// rebuild-from-peers, Merkle anti-entropy — concurrently with client traffic.
// The final audit re-verifies all five invariants and additionally proves the
// acceptance property: a corrupted block is never served as data (it is
// detected, quarantined, and rebuilt; the counters must show all three).
// Override MC_CHAOS_SEED / MC_CHAOS_ITERS / MC_CHAOS_CRASH_PERIOD to replay,
// extend, or change the crash cadence.

int ChaosCrashPeriod() {
  if (const char* env = std::getenv("MC_CHAOS_CRASH_PERIOD")) {
    return std::atoi(env);
  }
  return 50;
}

void ArmCrashCorruptionFaults(FaultInjector* injector) {
  // Rate 1.0 makes every CrashNode tear-draw count as a trip, so the audit
  // can assert the schedule actually crashed (the draw itself is taken — and
  // replayable — regardless of the rate).
  injector->SetRate(FaultPoint::kCrash, 1.0);
  injector->SetRate(FaultPoint::kMediaLatency, 0.05);
  injector->set_latency_spike_base_micros(200);
  // kMediaCorruption is deliberately NOT rate-armed: the controller scripts
  // one flip per crash cycle instead. A background rate can corrupt the same
  // row's block on two replicas before any scrub runs, and RF=3 cannot
  // survive two simultaneously corrupted copies of a row in any design (the
  // only remaining copy may be the crash-stale one, whose pack a later
  // read-modify-write then launders under a fresh timestamp). One scripted
  // flip per cycle, scrubbed within the same cycle, keeps the cluster in the
  // single-fault regime where the durability invariant is provable.
}

TEST(ModelCheckChaos, CrashCorruptionScheduleHoldsInvariants) {
  const uint64_t seed = ChaosSeed();
  const int iters = ChaosIters();
  const int crash_period = ChaosCrashPeriod();
  std::fprintf(stderr,
               "[chaos] crash+corruption seed=0x%llx iters=%d period=%d "
               "(set MC_CHAOS_SEED / MC_CHAOS_CRASH_PERIOD to replay)\n",
               static_cast<unsigned long long>(seed), iters, crash_period);

  SimulatedClock clock;
  FaultInjector injector(seed);
  ArmCrashCorruptionFaults(&injector);

  ClusterOptions copts = ChaosClusterOptions(&clock, &injector);
  copts.engine.commitlog_sync_every_appends = 4;  // crashes tear real unsynced tails
  copts.engine.sstable.block_bytes = 1024;        // more blocks: more corruption surface
  Cluster cluster(copts);
  const SymmetricKey key = SymmetricKey::FromSeed("crash-chaos");
  const MiniCryptOptions base_options = ChaosClientOptions(seed + 1);
  GenericClient setup(&cluster, base_options, key);
  ASSERT_TRUE(setup.CreateTable().ok());

  Counter* detected = MetricsRegistry::Instance().GetCounter("storage.corruption.detected");
  Counter* rebuilt = MetricsRegistry::Instance().GetCounter("scrub.blocks_rebuilt");
  const uint64_t detected_before = detected->Value();
  const uint64_t rebuilt_before = rebuilt->Value();

  constexpr int kThreads = 4;
  constexpr uint64_t kKeyspace = 96;
  std::vector<ThreadTrack> tracks(kThreads);
  std::atomic<long> ops_done{0};
  std::atomic<bool> workers_done{false};
  std::atomic<int> crash_cycles{0};

  // The controller serializes crash -> restart -> repair cycles on op-count
  // intervals drawn from the seed. It only crashes when the whole ring is up,
  // and restart drains the crashed node's hints before the next cycle — so
  // every QUORUM-acked write sits on at least two intact replicas when the
  // next crash lands, and any quorum read still intersects its write quorum.
  std::thread controller([&] {
    Rng crng(seed ^ 0xC4A5401ULL);
    uint64_t corruption_scripted = 0;
    auto wait_ops = [&](long delta) {
      const long target = ops_done.load(std::memory_order_relaxed) + delta;
      while (ops_done.load(std::memory_order_relaxed) < target && !workers_done.load()) {
        std::this_thread::yield();
      }
    };
    while (!workers_done.load()) {
      wait_ops(crash_period + static_cast<long>(crng.Uniform(
                                  static_cast<uint64_t>(crash_period) + 1)));
      if (workers_done.load()) {
        break;
      }
      const int node = static_cast<int>(crng.Uniform(3));
      if (!cluster.CrashNode(node).ok()) {
        continue;  // raced shutdown; never true mid-run (only we take nodes down)
      }
      wait_ops(5 + static_cast<long>(crng.Uniform(15)));  // outage traffic queues hints
      EXPECT_TRUE(cluster.RestartNode(node).ok());
      crash_cycles.fetch_add(1);
      // One corrupt block in flight at a time (see ArmCrashCorruptionFaults):
      // arm the next flip only once the previous one has fired — and been
      // scrubbed by the unconditional pass below within its own cycle.
      if (injector.trips(FaultPoint::kMediaCorruption) == corruption_scripted) {
        injector.Script(FaultPoint::kMediaCorruption, 1);
        ++corruption_scripted;
      }
      // Force memtables to at-rest form: the workload rewrites packs in place
      // and rarely crosses the flush threshold on its own, and only flushed
      // blocks are corruption surface for the build-time bit flips.
      EXPECT_TRUE(cluster.FlushAll().ok());
      // Scrub every cycle so the scripted flip is detected and rebuilt before
      // the next one can be armed; anti-entropy runs concurrently with live
      // traffic on a random subset of cycles.
      for (int n = 0; n < 3; ++n) {
        auto r = cluster.ScrubNode(n);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
      if (crng.Bernoulli(0.4)) {
        EXPECT_TRUE(cluster.AntiEntropyRepair(base_options.table).ok());
      }
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MiniCryptOptions options = ChaosClientOptions(seed ^ (0x9E3779B97F4A7C15ULL * (t + 1)));
      GenericClient worker(&cluster, options, key);
      ThreadTrack& track = tracks[static_cast<size_t>(t)];
      std::map<uint64_t, int> own_acked_op;
      const std::string own_tag = "t" + std::to_string(t) + "#";
      Rng rng(seed + 100 + static_cast<uint64_t>(t));
      for (int op = 0; op < iters; ++op) {
        ops_done.fetch_add(1, std::memory_order_relaxed);
        const uint64_t k = rng.Uniform(kKeyspace);
        const int kind = static_cast<int>(rng.Uniform(100));
        if (kind < 50) {  // put
          const std::string value = "t" + std::to_string(t) + "#" + std::to_string(op);
          const Status s = worker.Put(k, value);
          RecordOp(&track, k, /*is_delete=*/false, value, s);
          if (s.ok()) {
            own_acked_op[k] = op;
          }
        } else if (kind < 65) {  // delete
          const Status s = worker.Delete(k);
          RecordOp(&track, k, /*is_delete=*/true, "", s);
          if (s.ok()) {
            own_acked_op[k] = op;
          }
        } else if (kind < 90) {  // get: never corrupt data, never own-stale
          auto got = worker.Get(k);
          const Status s = got.status();
          EXPECT_TRUE(s.ok() || s.IsNotFound() || s.IsUnavailable() || s.IsAborted() ||
                      s.IsCorruption())
              << s.ToString();
          if (got.ok() && got->rfind(own_tag, 0) == 0) {
            const int read_op = std::atoi(got->c_str() + own_tag.size());
            auto acked = own_acked_op.find(k);
            if (acked != own_acked_op.end()) {
              EXPECT_GE(read_op, acked->second)
                  << "stale read: key " << k << " returned own value '" << *got
                  << "' older than this thread's acked op " << acked->second;
            }
          }
        } else {  // narrow range
          const Status s = worker.GetRange(k, k + 8).status();
          EXPECT_TRUE(s.ok() || s.IsUnavailable() || s.IsAborted() || s.IsCorruption())
              << s.ToString();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  workers_done.store(true);
  controller.join();

  // Tiny MC_CHAOS_ITERS overrides may finish before the first cycle; the
  // schedule must still contain at least one crash.
  if (crash_cycles.load() == 0) {
    ASSERT_TRUE(cluster.CrashNode(0).ok());
    ASSERT_TRUE(cluster.RestartNode(0).ok());
  }
  // Likewise the schedule must contain at least one corrupted block, even on
  // a run whose scripted flips never found a block build (e.g. tiny
  // MC_CHAOS_ITERS): script one onto a throwaway partition and flush it to
  // at-rest form (the audit's scrub must then rebuild it). An armed-but-idle
  // controller script may also fire on this flush; both flips land before the
  // audit's scrub loop, and every row is at-rest intact on all replicas at
  // this point, so any rebuild has an intact source.
  if (injector.trips(FaultPoint::kMediaCorruption) == 0) {
    Row backstop;
    backstop.cells["v"] = Cell{"corruption-backstop", 0, false};
    ASSERT_TRUE(
        cluster.Write(base_options.table, "zz-backstop", EncodeKey64(0), backstop).ok());
    injector.Script(FaultPoint::kMediaCorruption, 1);
    ASSERT_TRUE(cluster.FlushAll().ok());
    ASSERT_GE(injector.trips(FaultPoint::kMediaCorruption), 1u);
  }

  // Final audit: stop injecting, restart whatever is down, drain hints, scrub
  // every node until nothing is left to rebuild, then one Merkle repair pass.
  injector.Heal();
  for (int n = 0; n < 3; ++n) {
    if (cluster.IsNodeDown(n)) {
      ASSERT_TRUE(cluster.RestartNode(n).ok());
    }
  }
  cluster.ReplayAllHints();
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.PendingHints(n), 0u) << "node " << n << " still has hints after heal";
  }
  size_t scrub_pass = 0;
  for (int pass = 0; pass < 6; ++pass) {
    scrub_pass = 0;
    for (int n = 0; n < 3; ++n) {
      auto r = cluster.ScrubNode(n);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      scrub_pass += *r;
    }
    if (scrub_pass == 0) {
      break;
    }
  }
  EXPECT_EQ(scrub_pass, 0u) << "scrub did not converge with injection healed";
  ASSERT_TRUE(cluster.AntiEntropyRepair(base_options.table).ok());
  SCOPED_TRACE("crash chaos seed 0x" + std::to_string(seed) + " — rerun with MC_CHAOS_SEED");

  // Invariants (a) + (c): every acked write durable, final value admissible.
  GenericClient reader(&cluster, base_options, key);
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = reader.Get(k);
    ASSERT_TRUE(got.ok() || got.status().IsNotFound())
        << "key " << k << ": " << got.status().ToString();
    bool acked_put_candidate = false;
    bool delete_candidate = false;
    bool value_matches_candidate = false;
    bool touched = false;
    for (const ThreadTrack& track : tracks) {
      auto it = track.find(k);
      if (it == track.end()) {
        continue;
      }
      touched = true;
      const KeyTrack& kt = it->second;
      std::vector<const ChaosOp*> candidates;
      if (kt.last_acked.has_value()) {
        candidates.push_back(&*kt.last_acked);
      }
      for (const ChaosOp& op : kt.unacked) {
        candidates.push_back(&op);
      }
      if (kt.last_acked.has_value() && !kt.last_acked->is_delete) {
        acked_put_candidate = true;
      }
      for (const ChaosOp* op : candidates) {
        if (op->is_delete) {
          delete_candidate = true;
        } else if (got.ok() && *got == op->value) {
          value_matches_candidate = true;
        }
      }
    }
    if (!touched) {
      EXPECT_TRUE(got.status().IsNotFound()) << "untouched key " << k << " has a value";
    } else if (got.ok()) {
      EXPECT_TRUE(value_matches_candidate)
          << "key " << k << " holds '" << *got << "', which no thread could have written last";
    } else {
      EXPECT_TRUE(delete_candidate || !acked_put_candidate)
          << "key " << k << " lost an acknowledged put";
    }
  }

  // Anti-entropy mutate pass (see RunInvariantsUnderFire) so the strict pack
  // integrity check below cannot trip on a split abandoned mid-outage.
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = reader.Get(k);
    if (got.ok()) {
      ASSERT_TRUE(reader.Put(k, *got).ok());
    } else {
      ASSERT_TRUE(got.status().IsNotFound()) << got.status().ToString();
      const Status s = reader.Delete(k);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
  }

  // Invariant (b): pack integrity on every replica.
  const PackCrypter crypter(base_options, key);
  CheckPackIntegrity(&cluster, crypter, base_options);
  // Invariant (d): replicas converge.
  for (int p = 0; p < base_options.hash_partitions; ++p) {
    CheckReplicaConvergence(&cluster, base_options.table, PartitionLabel(p));
  }

  // The schedule must actually have crashed, corrupted, detected, and
  // rebuilt — otherwise the run proved nothing.
  EXPECT_GT(injector.trips(FaultPoint::kCrash), 0u) << injector.Summary();
  EXPECT_GT(injector.trips(FaultPoint::kMediaCorruption), 0u) << injector.Summary();
  EXPECT_GT(detected->Value(), detected_before) << "no corrupt block was ever detected";
  EXPECT_GT(rebuilt->Value(), rebuilt_before) << "scrub never rebuilt a quarantined block";
}

// --- Topology churn schedule -------------------------------------------------
//
// The third first-class chaos mode (docs/TESTING.md): a controller thread
// bootstraps, decommissions, and rebalances the ring while client traffic
// runs at QUORUM, interleaved with node crashes (torn commit logs) and one
// scripted block corruption per cycle. kTopologyPersist / kStreamInterrupt
// are both rate-armed and scripted, so membership ops park mid-state-machine
// and must be driven home by ResumeTopology. The worker loop checks
// read-your-own-acked-writes continuously across ownership flips; the final
// audit re-verifies all five invariants on whatever ring the churn left
// behind. Override MC_CHAOS_NODES to change the starting ring size.

int ChaosNodes() {
  if (const char* env = std::getenv("MC_CHAOS_NODES")) {
    return std::atoi(env);
  }
  return 8;
}

// Drives a parked topology op to completion: restart crashed participants,
// then ResumeTopology, bounded. Ops that abort before parking (a plan-edge
// persist fault) leave nothing inflight and need no resume.
void DriveTopologyToCompletion(Cluster* cluster) {
  for (int attempt = 0; attempt < 64 && cluster->Topology().inflight; ++attempt) {
    for (int n = 0; n < static_cast<int>(cluster->NodeCount()); ++n) {
      if (cluster->NodeMembership(n) != MembershipState::kRemoved && cluster->IsNodeDown(n)) {
        (void)cluster->RestartNode(n);
      }
    }
    if (cluster->ResumeTopology().ok()) {
      break;
    }
  }
  EXPECT_FALSE(cluster->Topology().inflight) << "topology op did not converge under resume";
}

TEST(ModelCheckChaos, TopologyChurnScheduleHoldsInvariants) {
  const uint64_t seed = ChaosSeed();
  const int iters = ChaosIters();
  const int start_nodes = ChaosNodes();
  const int period = ChaosCrashPeriod();
  std::fprintf(stderr,
               "[chaos] topology churn seed=0x%llx iters=%d nodes=%d period=%d "
               "(set MC_CHAOS_SEED / MC_CHAOS_NODES to replay)\n",
               static_cast<unsigned long long>(seed), iters, start_nodes, period);

  SimulatedClock clock;
  FaultInjector injector(seed);
  injector.SetRate(FaultPoint::kCrash, 1.0);  // every tear-draw counts as a trip
  injector.SetRate(FaultPoint::kMediaLatency, 0.03);
  injector.set_latency_spike_base_micros(200);
  injector.SetRate(FaultPoint::kTopologyPersist, 0.04);
  injector.SetRate(FaultPoint::kStreamInterrupt, 0.04);
  // Deterministic floor for the resume machinery regardless of seed: the
  // first persist edge and the first stream session each trip once.
  injector.Script(FaultPoint::kTopologyPersist, 1);
  injector.Script(FaultPoint::kStreamInterrupt, 1);

  ClusterOptions copts = ChaosClusterOptions(&clock, &injector);
  copts.node_count = start_nodes;
  copts.engine.commitlog_sync_every_appends = 4;  // crashes tear real unsynced tails
  Cluster cluster(copts);
  const SymmetricKey key = SymmetricKey::FromSeed("topology-chaos");
  const MiniCryptOptions base_options = ChaosClientOptions(seed + 1);
  GenericClient setup(&cluster, base_options, key);
  ASSERT_TRUE(setup.CreateTable().ok());

  constexpr int kThreads = 4;
  constexpr uint64_t kKeyspace = 96;
  std::vector<ThreadTrack> tracks(kThreads);
  std::atomic<long> ops_done{0};
  std::atomic<bool> workers_done{false};
  std::atomic<int> topology_ops{0};

  // The controller owns the node lifecycle (no ChaosTick flaps): every cycle
  // runs one membership change (rotating bootstrap / decommission /
  // rebalance), then one crash->restart with a torn log, then one scripted
  // block corruption flushed to at-rest form and scrubbed — all while the
  // workers keep QUORUM traffic flowing.
  std::thread controller([&] {
    Rng crng(seed ^ 0x70B0C4A5ULL);
    uint64_t corruption_scripted = 0;
    int cycle = 0;
    auto wait_ops = [&](long delta) {
      const long target = ops_done.load(std::memory_order_relaxed) + delta;
      while (ops_done.load(std::memory_order_relaxed) < target && !workers_done.load()) {
        std::this_thread::yield();
      }
    };
    while (!workers_done.load()) {
      wait_ops(period +
               static_cast<long>(crng.Uniform(static_cast<uint64_t>(period) + 1)));
      if (workers_done.load()) {
        break;
      }
      // 1) Membership churn under live traffic. A fault-parked op is resumed
      // to completion within its own cycle, so cycles never overlap.
      const int kind = cycle % 3;
      if (kind == 0) {
        if (!cluster.BootstrapNode().ok()) {
          DriveTopologyToCompletion(&cluster);
        }
        topology_ops.fetch_add(1);
      } else if (kind == 1) {
        const std::vector<int> serving = cluster.ServingNodes();
        if (serving.size() > static_cast<size_t>(copts.replication_factor) + 1) {
          const int victim = serving[crng.Uniform(serving.size())];
          if (!cluster.DecommissionNode(victim).ok()) {
            DriveTopologyToCompletion(&cluster);
          }
          topology_ops.fetch_add(1);
        }
      } else {
        if (!cluster.RebalanceTokens(4).ok()) {
          DriveTopologyToCompletion(&cluster);
        }
        topology_ops.fetch_add(1);
      }
      // 2) Crash -> outage traffic -> restart (log replay + hint drain).
      const std::vector<int> serving = cluster.ServingNodes();
      const int node = serving[crng.Uniform(serving.size())];
      if (cluster.CrashNode(node).ok()) {
        wait_ops(5 + static_cast<long>(crng.Uniform(15)));
        EXPECT_TRUE(cluster.RestartNode(node).ok());
      }
      // 3) One corrupt block in flight at a time (see the crash schedule).
      if (injector.trips(FaultPoint::kMediaCorruption) == corruption_scripted) {
        injector.Script(FaultPoint::kMediaCorruption, 1);
        ++corruption_scripted;
      }
      EXPECT_TRUE(cluster.FlushAll().ok());
      for (int n : cluster.ServingNodes()) {
        auto r = cluster.ScrubNode(n);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
      ++cycle;
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MiniCryptOptions options = ChaosClientOptions(seed ^ (0x9E3779B97F4A7C15ULL * (t + 1)));
      GenericClient worker(&cluster, options, key);
      ThreadTrack& track = tracks[static_cast<size_t>(t)];
      std::map<uint64_t, int> own_acked_op;
      const std::string own_tag = "t" + std::to_string(t) + "#";
      Rng rng(seed + 100 + static_cast<uint64_t>(t));
      for (int op = 0; op < iters; ++op) {
        ops_done.fetch_add(1, std::memory_order_relaxed);
        const uint64_t k = rng.Uniform(kKeyspace);
        const int kind = static_cast<int>(rng.Uniform(100));
        if (kind < 50) {  // put
          const std::string value = "t" + std::to_string(t) + "#" + std::to_string(op);
          const Status s = worker.Put(k, value);
          RecordOp(&track, k, /*is_delete=*/false, value, s);
          if (s.ok()) {
            own_acked_op[k] = op;
          }
        } else if (kind < 65) {  // delete
          const Status s = worker.Delete(k);
          RecordOp(&track, k, /*is_delete=*/true, "", s);
          if (s.ok()) {
            own_acked_op[k] = op;
          }
        } else if (kind < 90) {  // get: admissible status, never own-stale
          auto got = worker.Get(k);
          const Status s = got.status();
          EXPECT_TRUE(s.ok() || s.IsNotFound() || s.IsUnavailable() || s.IsAborted() ||
                      s.IsCorruption())
              << s.ToString();
          if (got.ok() && got->rfind(own_tag, 0) == 0) {
            const int read_op = std::atoi(got->c_str() + own_tag.size());
            auto acked = own_acked_op.find(k);
            if (acked != own_acked_op.end()) {
              EXPECT_GE(read_op, acked->second)
                  << "stale read across a topology flip: key " << k << " returned own value '"
                  << *got << "' older than this thread's acked op " << acked->second;
            }
          }
        } else {  // narrow range
          const Status s = worker.GetRange(k, k + 8).status();
          EXPECT_TRUE(s.ok() || s.IsUnavailable() || s.IsAborted() || s.IsCorruption())
              << s.ToString();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  workers_done.store(true);
  controller.join();

  // Tiny MC_CHAOS_ITERS overrides may finish before the first cycle; the
  // schedule must still contain one membership change (the scripted persist
  // and stream faults fire on it) and one corrupted block.
  if (topology_ops.load() == 0) {
    // The scripted plan-edge persist fault aborts the first attempt with
    // nothing inflight; keep trying until a node actually joins so the
    // stream path (and its scripted interrupt) runs too.
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (cluster.BootstrapNode().ok()) {
        break;
      }
      DriveTopologyToCompletion(&cluster);
      if (cluster.ServingNodes().size() > static_cast<size_t>(start_nodes)) {
        break;
      }
    }
    ASSERT_GT(cluster.ServingNodes().size(), static_cast<size_t>(start_nodes));
    topology_ops.fetch_add(1);
  }
  if (injector.trips(FaultPoint::kCrash) == 0) {
    const int node = cluster.ServingNodes().front();
    ASSERT_TRUE(cluster.CrashNode(node).ok());
    ASSERT_TRUE(cluster.RestartNode(node).ok());
  }
  if (injector.trips(FaultPoint::kMediaCorruption) == 0) {
    Row backstop;
    backstop.cells["v"] = Cell{"corruption-backstop", 0, false};
    ASSERT_TRUE(
        cluster.Write(base_options.table, "zz-backstop", EncodeKey64(0), backstop).ok());
    injector.Script(FaultPoint::kMediaCorruption, 1);
    ASSERT_TRUE(cluster.FlushAll().ok());
  }

  // Final audit: stop injecting, restart whatever is down (retired nodes stay
  // down forever), drain hints, scrub serving nodes to convergence, one
  // Merkle repair pass — then re-verify the five invariants.
  injector.Heal();
  for (int n = 0; n < static_cast<int>(cluster.NodeCount()); ++n) {
    if (cluster.NodeMembership(n) != MembershipState::kRemoved && cluster.IsNodeDown(n)) {
      ASSERT_TRUE(cluster.RestartNode(n).ok());
    }
  }
  cluster.ReplayAllHints();
  for (int n = 0; n < static_cast<int>(cluster.NodeCount()); ++n) {
    if (cluster.NodeMembership(n) != MembershipState::kRemoved) {
      EXPECT_EQ(cluster.PendingHints(n), 0u) << "node " << n << " still has hints after heal";
    }
  }
  size_t scrub_pass = 0;
  for (int pass = 0; pass < 6; ++pass) {
    scrub_pass = 0;
    for (int n : cluster.ServingNodes()) {
      auto r = cluster.ScrubNode(n);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      scrub_pass += *r;
    }
    if (scrub_pass == 0) {
      break;
    }
  }
  EXPECT_EQ(scrub_pass, 0u) << "scrub did not converge with injection healed";
  ASSERT_TRUE(cluster.AntiEntropyRepair(base_options.table).ok());
  SCOPED_TRACE("topology chaos seed 0x" + std::to_string(seed) + " — rerun with MC_CHAOS_SEED");

  // Invariants (a) + (c): every acked write durable across membership churn,
  // final value admissible.
  GenericClient reader(&cluster, base_options, key);
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = reader.Get(k);
    ASSERT_TRUE(got.ok() || got.status().IsNotFound())
        << "key " << k << ": " << got.status().ToString();
    bool acked_put_candidate = false;
    bool delete_candidate = false;
    bool value_matches_candidate = false;
    bool touched = false;
    for (const ThreadTrack& track : tracks) {
      auto it = track.find(k);
      if (it == track.end()) {
        continue;
      }
      touched = true;
      const KeyTrack& kt = it->second;
      std::vector<const ChaosOp*> candidates;
      if (kt.last_acked.has_value()) {
        candidates.push_back(&*kt.last_acked);
      }
      for (const ChaosOp& op : kt.unacked) {
        candidates.push_back(&op);
      }
      if (kt.last_acked.has_value() && !kt.last_acked->is_delete) {
        acked_put_candidate = true;
      }
      for (const ChaosOp* op : candidates) {
        if (op->is_delete) {
          delete_candidate = true;
        } else if (got.ok() && *got == op->value) {
          value_matches_candidate = true;
        }
      }
    }
    if (!touched) {
      EXPECT_TRUE(got.status().IsNotFound()) << "untouched key " << k << " has a value";
    } else if (got.ok()) {
      EXPECT_TRUE(value_matches_candidate)
          << "key " << k << " holds '" << *got << "', which no thread could have written last";
    } else {
      EXPECT_TRUE(delete_candidate || !acked_put_candidate)
          << "key " << k << " lost an acknowledged put across membership churn";
    }
  }

  // Anti-entropy mutate pass (see RunInvariantsUnderFire) so the strict pack
  // integrity check below cannot trip on a split abandoned mid-outage.
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = reader.Get(k);
    if (got.ok()) {
      ASSERT_TRUE(reader.Put(k, *got).ok());
    } else {
      ASSERT_TRUE(got.status().IsNotFound()) << got.status().ToString();
      const Status s = reader.Delete(k);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
  }

  // Invariant (b): pack integrity on every replica of the churned ring.
  const PackCrypter crypter(base_options, key);
  CheckPackIntegrity(&cluster, crypter, base_options);
  // Invariant (d): replicas converge on the final ownership map.
  for (int p = 0; p < base_options.hash_partitions; ++p) {
    CheckReplicaConvergence(&cluster, base_options.table, PartitionLabel(p));
  }

  // The schedule must actually have churned membership, crashed, parked a
  // topology op on a persist fault, interrupted a stream, and corrupted a
  // block — otherwise the run proved nothing about elasticity under faults.
  EXPECT_GT(topology_ops.load(), 0);
  EXPECT_GT(injector.trips(FaultPoint::kCrash), 0u) << injector.Summary();
  EXPECT_GT(injector.trips(FaultPoint::kTopologyPersist), 0u) << injector.Summary();
  EXPECT_GT(injector.trips(FaultPoint::kStreamInterrupt), 0u) << injector.Summary();
  EXPECT_GT(injector.trips(FaultPoint::kMediaCorruption), 0u) << injector.Summary();
}

// Acceptance: on a 32-node ring, decommissioning a loaded node under live
// QUORUM traffic completes, and the five invariants hold afterward — no
// acked write lost (a), packs intact on every replica (b), final values
// admissible (c), replicas converged (d), and no reader ever saw a value
// older than its own acked write (e, checked inline by the workers).
TEST(ModelCheckChaos, ThirtyTwoNodeDecommissionUnderLoadHoldsInvariants) {
  SimulatedClock clock;
  ClusterOptions copts = ClusterOptions::ForTest();
  copts.node_count = 32;
  copts.replication_factor = 3;
  copts.consistency = Consistency::kQuorum;
  copts.clock = &clock;
  Cluster cluster(copts);
  const SymmetricKey key = SymmetricKey::FromSeed("scale-decommission");
  MiniCryptOptions options;
  options.pack_rows = 4;
  options.hash_partitions = 4;
  GenericClient setup(&cluster, options, key);
  ASSERT_TRUE(setup.CreateTable().ok());

  constexpr uint64_t kKeyspace = 96;
  for (uint64_t k = 0; k < kKeyspace; ++k) {  // the victim must hold real data
    ASSERT_TRUE(setup.Put(k, "seed#" + std::to_string(k)).ok());
  }

  constexpr int kThreads = 2;
  std::vector<ThreadTrack> tracks(kThreads);
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GenericClient worker(&cluster, options, key);
      ThreadTrack& track = tracks[static_cast<size_t>(t)];
      std::map<uint64_t, int> own_acked_op;
      const std::string own_tag = "t" + std::to_string(t) + "#";
      Rng rng(0x32DEC0 + static_cast<uint64_t>(t));
      while (!start.load()) {
        std::this_thread::yield();
      }
      for (int op = 0; op < 120; ++op) {
        const uint64_t k = rng.Uniform(kKeyspace);
        if (rng.Bernoulli(0.7)) {
          const std::string value = "t" + std::to_string(t) + "#" + std::to_string(op);
          const Status s = worker.Put(k, value);
          RecordOp(&track, k, /*is_delete=*/false, value, s);
          if (s.ok()) {
            own_acked_op[k] = op;
          }
        } else {
          auto got = worker.Get(k);
          const Status s = got.status();
          EXPECT_TRUE(s.ok() || s.IsNotFound() || s.IsUnavailable() || s.IsAborted())
              << s.ToString();
          if (got.ok() && got->rfind(own_tag, 0) == 0) {
            const int read_op = std::atoi(got->c_str() + own_tag.size());
            auto acked = own_acked_op.find(k);
            if (acked != own_acked_op.end()) {
              EXPECT_GE(read_op, acked->second) << "stale own read during decommission, key "
                                                << k;
            }
          }
        }
      }
    });
  }

  start.store(true);
  constexpr int kVictim = 7;
  ASSERT_TRUE(cluster.DecommissionNode(kVictim).ok());
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_EQ(cluster.NodeMembership(kVictim), MembershipState::kRemoved);
  EXPECT_EQ(cluster.ServingNodes().size(), 31u);
  EXPECT_FALSE(cluster.RingSnapshot().Contains(kVictim));
  cluster.ReplayAllHints();

  // (a) + (c): every key readable with an admissible value; preloaded keys
  // that nobody overwrote must still hold their seed value.
  GenericClient reader(&cluster, options, key);
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = reader.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << " lost in decommission: "
                          << got.status().ToString();
    bool admissible = (*got == "seed#" + std::to_string(k));
    for (const ThreadTrack& track : tracks) {
      auto it = track.find(k);
      if (it == track.end()) {
        continue;
      }
      if (it->second.last_acked.has_value() && *got == it->second.last_acked->value) {
        admissible = true;
      }
      for (const ChaosOp& op : it->second.unacked) {
        if (*got == op.value) {
          admissible = true;
        }
      }
    }
    EXPECT_TRUE(admissible) << "key " << k << " holds unexplained value '" << *got << "'";
  }

  // (b) + (d): pack integrity and replica convergence on the 31-node ring,
  // with no replica set referencing the retired node.
  const PackCrypter crypter(options, key);
  CheckPackIntegrity(&cluster, crypter, options);
  for (int p = 0; p < options.hash_partitions; ++p) {
    const std::string partition = PartitionLabel(p);
    for (int node : cluster.ReplicaNodesFor(partition)) {
      EXPECT_NE(node, kVictim);
    }
    CheckReplicaConvergence(&cluster, options.table, partition);
  }
}

// Satellite: same seed => identical fault schedule and identical final state.
// A failing chaos run can therefore be replayed exactly via MC_CHAOS_SEED.
// With `with_topology`, a bootstrap runs mid-sequence: its kTopologyPersist /
// kStreamInterrupt draws join the recorded schedule and its deterministic
// resume loop must replay identically too. With `with_index`, puts carry
// indexed values, by-value range queries join the op mix, and the
// kIndexSplit / kIndexPersist draws of the index's drain/split/seal protocols
// join the recorded schedule; the final state includes the by-value answers.
// With `with_rotation`, a key rotation runs mid-sequence: its kRotatePersist /
// kRotateReseal draws join the schedule, its bounded resume loop must replay
// identically, and the final keyring window + durable rotation record join
// the state fingerprint. `consistency` selects the cluster's read/write
// level; `modelled_wait_micros`, when non-null, receives the virtual clock at
// the end of the run — every RTT, transfer, media, delay and backoff charge.
std::pair<std::string, std::string> RunSingleThreadedChaos(
    uint64_t seed, int ops, bool with_topology = false, bool with_index = false,
    bool with_rotation = false, Consistency consistency = Consistency::kQuorum,
    uint64_t* modelled_wait_micros = nullptr) {
  SimulatedClock clock;
  FaultInjector injector(seed);
  injector.set_record_schedule(true);
  ArmAllFaultPoints(&injector);
  if (with_topology) {
    injector.SetRate(FaultPoint::kTopologyPersist, 0.3);
    injector.SetRate(FaultPoint::kStreamInterrupt, 0.3);
    // At least one of each must land whatever the seed draws, so the
    // recorded schedule always exercises the park/resume path.
    injector.Script(FaultPoint::kTopologyPersist, 1);
    injector.Script(FaultPoint::kStreamInterrupt, 1);
  }
  if (with_index) {
    injector.SetRate(FaultPoint::kIndexSplit, 0.2);
    injector.SetRate(FaultPoint::kIndexPersist, 0.2);
    injector.Script(FaultPoint::kIndexSplit, 1);
    injector.Script(FaultPoint::kIndexPersist, 1);
  }
  if (with_rotation) {
    injector.SetRate(FaultPoint::kRotatePersist, 0.2);
    injector.SetRate(FaultPoint::kRotateReseal, 0.2);
    injector.Script(FaultPoint::kRotatePersist, 1);
    injector.Script(FaultPoint::kRotateReseal, 1);
  }

  ClusterOptions copts = ChaosClusterOptions(&clock, &injector);
  // Seed-exact replay needs a deterministic fault-ordinal stream. Concurrent
  // replica legs claim engine-level ordinals (kCommitLogAppend, kMediaLatency)
  // in thread-scheduling order, so this test — and only this test — pins the
  // fan-out back to synchronous replica-order execution (docs/CONCURRENCY.md).
  copts.replica_fanout_threads = 0;
  copts.consistency = consistency;
  // Nonzero network costs make every client round trip and every extra
  // replica hop per quorum vote show in the modelled wait.
  copts.rtt_micros = 300;
  copts.replica_hop_micros = 300;
  Cluster cluster(copts);
  const SymmetricKey key = SymmetricKey::FromSeed("chaos-repro");
  const MiniCryptOptions options = ChaosClientOptions(seed + 7);
  GenericClient client(&cluster, options, key);
  EXPECT_TRUE(client.CreateTable().ok());
  constexpr uint64_t kIndexAttrDomain = 24;
  if (with_index) {
    SecondaryIndexOptions iopts;
    iopts.leakage = IndexLeakage::kQueriedOrder;
    iopts.leaf_rows = 4;
    EXPECT_TRUE(client.CreateIndex(iopts).ok());
  }

  constexpr uint64_t kKeyspace = 48;
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    if (op % 3 == 0) {
      cluster.ChaosTick();
    }
    if (with_topology && op == ops / 2) {
      // One membership change mid-sequence. Its persist edges and stream
      // sessions draw fault ordinals like any other point; the bounded
      // resume loop (heal flapped nodes, resume, repeat) is deterministic,
      // so the whole bootstrap replays exactly under the same seed.
      (void)cluster.BootstrapNode();
      for (int attempt = 0; attempt < 32 && cluster.Topology().inflight; ++attempt) {
        cluster.HealAllNodes();
        if (cluster.ResumeTopology().ok()) {
          break;
        }
      }
      EXPECT_FALSE(cluster.Topology().inflight) << "seeded bootstrap did not converge";
    }
    if (with_rotation && op == ops / 2) {
      // One epoch rotation mid-sequence. Every injected pause (failed stage
      // persist, reseal crash) is resumed by the next call; progress is
      // durable, so the loop converges, and each attempt draws its fault
      // ordinals deterministically — the whole rotation replays exactly.
      Status rs = client.RotateKeys();
      for (int attempt = 0; attempt < 64 && !rs.ok(); ++attempt) {
        EXPECT_TRUE(rs.IsUnavailable() || rs.IsAborted()) << rs.ToString();
        rs = client.RotateKeys();
      }
      EXPECT_TRUE(rs.ok()) << "seeded rotation did not converge: " << rs.ToString();
    }
    const uint64_t k = rng.Uniform(kKeyspace);
    const int kind = static_cast<int>(rng.Uniform(10));
    if (kind < 6) {
      const std::string value = "v" + std::to_string(op);
      (void)client.Put(k, with_index ? EncodeIndexedValue(k % kIndexAttrDomain, value) : value);
    } else if (kind < 8) {
      (void)client.Delete(k);
    } else if (with_index && kind == 9) {
      // By-value queries drive the lazy-sort drains whose kIndexSplit /
      // kIndexPersist draws this test replays. Only the with_index op stream
      // consumes this extra rng draw, so the legacy streams are untouched.
      const uint64_t lo = rng.Uniform(kIndexAttrDomain);
      (void)client.GetRangeByValue(lo, lo + 5);
    } else {
      (void)client.Get(k);
    }
  }
  injector.Heal();
  cluster.HealAllNodes();
  cluster.ReplayAllHints();

  std::string state;
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    auto got = client.Get(k);
    state += got.ok() ? *got : "~";
    state += ';';
  }
  if (with_index) {
    // Fold the healed by-value answers into the state fingerprint: replayed
    // runs must agree on what the index serves, not just the primary rows.
    for (uint64_t lo = 0; lo < kIndexAttrDomain; lo += 6) {
      auto got = client.GetRangeByValue(lo, lo + 5);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      state += "R" + std::to_string(lo) + ":";
      if (got.ok()) {
        for (const auto& [pk, value] : *got) {
          state += std::to_string(pk) + "=" + value + ",";
        }
      } else {
        state += "!";
      }
      state += ';';
    }
  }
  if (with_rotation) {
    // Replayed runs must agree on the keyring window and the durable record,
    // not just the row values the rotated packs decrypt to.
    auto record = client.RotationState();
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    state += "K" + std::to_string(client.keyring()->current_epoch()) + "/" +
             std::to_string(client.keyring()->retired_below()) + "/" +
             (record.ok() ? std::to_string(record->stage) + "." +
                                std::to_string(record->retired_below)
                          : "!") +
             ";";
  }
  if (modelled_wait_micros != nullptr) {
    *modelled_wait_micros = clock.NowMicros();
  }
  return {injector.ScheduleString(), state};
}

TEST(ModelCheckChaos, SameSeedReplaysScheduleAndState) {
  const auto first = RunSingleThreadedChaos(0xD5EED, 160);
  const auto second = RunSingleThreadedChaos(0xD5EED, 160);
  EXPECT_EQ(first.first, second.first) << "fault schedule not reproducible";
  EXPECT_EQ(first.second, second.second) << "final state not reproducible";
  EXPECT_FALSE(first.first.empty());

  const auto other = RunSingleThreadedChaos(0xD5EEE, 160);
  EXPECT_NE(first.first, other.first) << "different seeds produced identical schedules";
}

TEST(ModelCheckChaos, SameSeedReplaysTopologyScheduleAndState) {
  const auto first = RunSingleThreadedChaos(0x70D05EEDULL, 160, /*with_topology=*/true);
  const auto second = RunSingleThreadedChaos(0x70D05EEDULL, 160, /*with_topology=*/true);
  EXPECT_EQ(first.first, second.first) << "topology fault schedule not reproducible";
  EXPECT_EQ(first.second, second.second) << "final state not reproducible";
  // The schedule must actually contain topology fault draws — an empty
  // "topology_persist:" section would mean the bootstrap never drew faults
  // and the test proved nothing about replaying them.
  EXPECT_EQ(first.first.find("topology_persist:;"), std::string::npos);
}

TEST(ModelCheckChaos, SameSeedReplaysIndexScheduleAndState) {
  const auto first =
      RunSingleThreadedChaos(0x1DE75EEDULL, 160, /*with_topology=*/false, /*with_index=*/true);
  const auto second =
      RunSingleThreadedChaos(0x1DE75EEDULL, 160, /*with_topology=*/false, /*with_index=*/true);
  EXPECT_EQ(first.first, second.first) << "index fault schedule not reproducible";
  EXPECT_EQ(first.second, second.second) << "final state (incl. by-value answers) not reproducible";
  // Non-vacuity: both index protocol points must appear in the recorded
  // schedule with at least one draw, mirroring the topology check above.
  EXPECT_EQ(first.first.find("index_split:;"), std::string::npos);
  EXPECT_EQ(first.first.find("index_persist:;"), std::string::npos);
}

TEST(ModelCheckChaos, SameSeedReplaysRotationScheduleAndState) {
  const auto first = RunSingleThreadedChaos(0x407A7E5EEDULL, 160, /*with_topology=*/false,
                                            /*with_index=*/false, /*with_rotation=*/true);
  const auto second = RunSingleThreadedChaos(0x407A7E5EEDULL, 160, /*with_topology=*/false,
                                             /*with_index=*/false, /*with_rotation=*/true);
  EXPECT_EQ(first.first, second.first) << "rotation fault schedule not reproducible";
  EXPECT_EQ(first.second, second.second)
      << "final state (incl. keyring window + rotation record) not reproducible";
  // Non-vacuity: both rotation protocol points must appear in the recorded
  // schedule with at least one draw, and the fingerprint must show the
  // rotation actually advanced the epoch window.
  EXPECT_EQ(first.first.find("rotate_persist:;"), std::string::npos);
  EXPECT_EQ(first.first.find("rotate_reseal:;"), std::string::npos);
  EXPECT_NE(first.second.find("K1/1/0.1;"), std::string::npos)
      << "fingerprint does not show a completed rotation to epoch 1: " << first.second;
}

// Golden replay: the SameSeedReplays* tests compare two runs inside one
// binary, so they cannot notice a change that moves both runs alike. These
// digests pin the coordinator's observable behaviour across commits — which
// fault draws happen in which order, what the healed cluster serves, and how
// much modelled wait the run charged. A refactor that claims "no behaviour
// change" must leave all three untouched; an intended change regenerates them
// from the values printed on failure. The runs seal packs with zlib, so pack
// sizes (and through them media draws and transfer charges) also depend on
// deflate's output; the constants were taken with zlib 1.2.13. A zlib that
// deflates differently moves the schedule and the wait but not the state.
struct GoldenRun {
  const char* name;
  uint64_t seed;
  bool with_topology;
  bool with_index;
  bool with_rotation;
  Consistency consistency;
  uint64_t schedule_fnv;  // Fnv1a64(ScheduleString())
  uint64_t state_fnv;     // Fnv1a64(state fingerprint)
  uint64_t modelled_wait_micros;
};

TEST(ModelCheckChaos, GoldenReplayMatchesPinnedDigests) {
  const GoldenRun runs[] = {
      {"base", 0xD5EED, false, false, false, Consistency::kQuorum, 0xd6714358d5ee5b20ULL,
       0xfac2e87ebccea82eULL, 192149},
      {"topology", 0x70D05EEDULL, true, false, false, Consistency::kQuorum, 0x6a554e245356bd54ULL,
       0x7877dcb4466ff251ULL, 201337},
      {"index", 0x1DE75EEDULL, false, true, false, Consistency::kQuorum, 0xc2460b8054d3131dULL,
       0xd4153f57f5e73d0bULL, 613445},
      {"rotation", 0x407A7E5EEDULL, false, false, true, Consistency::kQuorum, 0x3eb07c847a0c0070ULL,
       0xac6af083f069e25bULL, 211576},
      {"cl_one", 0xD5EED, false, false, false, Consistency::kOne, 0x355f9929331d6c0bULL,
       0xfac2e87ebccea82eULL, 129265},
  };
  for (const GoldenRun& run : runs) {
    uint64_t wait = 0;
    const auto [schedule, state] =
        RunSingleThreadedChaos(run.seed, 160, run.with_topology, run.with_index,
                               run.with_rotation, run.consistency, &wait);
    char actual[128];
    std::snprintf(actual, sizeof(actual), "0x%016llxULL, 0x%016llxULL, %llu",
                  static_cast<unsigned long long>(Fnv1a64(schedule)),
                  static_cast<unsigned long long>(Fnv1a64(state)),
                  static_cast<unsigned long long>(wait));
    EXPECT_EQ(Fnv1a64(schedule), run.schedule_fnv) << run.name << " schedule; actual: " << actual;
    EXPECT_EQ(Fnv1a64(state), run.state_fnv) << run.name << " state; actual: " << actual;
    EXPECT_EQ(wait, run.modelled_wait_micros) << run.name << " modelled wait; actual: " << actual;
  }
}

}  // namespace
}  // namespace minicrypt
