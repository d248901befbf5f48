#include "src/kvstore/cluster.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/common/clock.h"
#include "src/common/coding.h"
#include "src/kvstore/fault_injector.h"
#include "src/kvstore/ring.h"
#include "src/obs/metrics.h"

namespace minicrypt {
namespace {

Row ValueRow(std::string value) {
  Row row;
  row.cells["v"] = Cell{std::move(value), 0, false};
  return row;
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : cluster_(MakeOptions()) { EXPECT_TRUE(cluster_.CreateTable("t").ok()); }

  static ClusterOptions MakeOptions() {
    ClusterOptions o = ClusterOptions::ForTest();
    o.node_count = 3;
    o.replication_factor = 3;
    // These tests read their own CL=ONE writes back. With the concurrent
    // fan-out a write acks on its first replica and a read may reach one
    // whose leg has not run yet; inline legs (docs/CONCURRENCY.md) apply
    // every replica before the write returns. Concurrent fan-out has its
    // own suites (async_cluster_test, replication_test).
    o.replica_fanout_threads = 0;
    return o;
  }

  Cluster cluster_;
};

TEST_F(ClusterTest, WriteThenReadBack) {
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(1), ValueRow("hello")).ok());
  auto row = cluster_.Read("t", "p1", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "hello");
}

TEST_F(ClusterTest, ReadMissingIsNotFound) {
  EXPECT_TRUE(cluster_.Read("t", "p1", EncodeKey64(42)).status().IsNotFound());
}

TEST_F(ClusterTest, UnknownTableRejected) {
  EXPECT_EQ(cluster_.Write("nope", "p", EncodeKey64(1), ValueRow("x")).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ClusterTest, LastWriteWins) {
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(1), ValueRow("first")).ok());
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(1), ValueRow("second")).ok());
  auto row = cluster_.Read("t", "p1", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "second");
}

TEST_F(ClusterTest, InsertIfNotExistsSemantics) {
  EXPECT_TRUE(
      cluster_.WriteIf("t", "p1", EncodeKey64(7), ValueRow("a"), LwtCondition::NotExists())
          .ok());
  Row current;
  const Status second = cluster_.WriteIf("t", "p1", EncodeKey64(7), ValueRow("b"),
                                         LwtCondition::NotExists(), &current);
  EXPECT_TRUE(second.IsConditionFailed());
  EXPECT_EQ(current.cells.at("v").value, "a");
  auto row = cluster_.Read("t", "p1", EncodeKey64(7));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "a");
}

TEST_F(ClusterTest, UpdateIfCellEqualsSemantics) {
  Row initial;
  initial.cells["v"] = Cell{"val", 0, false};
  initial.cells["h"] = Cell{"hash1", 0, false};
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(9), initial).ok());

  Row update;
  update.cells["v"] = Cell{"val2", 0, false};
  update.cells["h"] = Cell{"hash2", 0, false};
  EXPECT_TRUE(cluster_
                  .WriteIf("t", "p1", EncodeKey64(9), update,
                           LwtCondition::CellEquals("h", "hash1"))
                  .ok());
  // Stale token now fails.
  EXPECT_TRUE(cluster_
                  .WriteIf("t", "p1", EncodeKey64(9), update,
                           LwtCondition::CellEquals("h", "hash1"))
                  .IsConditionFailed());
  // Fresh token succeeds.
  Row update3;
  update3.cells["v"] = Cell{"val3", 0, false};
  update3.cells["h"] = Cell{"hash3", 0, false};
  EXPECT_TRUE(cluster_
                  .WriteIf("t", "p1", EncodeKey64(9), update3,
                           LwtCondition::CellEquals("h", "hash2"))
                  .ok());
}

TEST_F(ClusterTest, UpdateIfOnMissingRowFails) {
  EXPECT_TRUE(cluster_
                  .WriteIf("t", "p1", EncodeKey64(404), ValueRow("x"),
                           LwtCondition::CellEquals("h", "whatever"))
                  .IsConditionFailed());
  EXPECT_TRUE(cluster_
                  .WriteIf("t", "p1", EncodeKey64(404), ValueRow("x"),
                           LwtCondition::RowExists())
                  .IsConditionFailed());
}

TEST_F(ClusterTest, ConcurrentLwtExactlyOneWinner) {
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Status s = cluster_.WriteIf("t", "race", EncodeKey64(1),
                                        ValueRow("winner-" + std::to_string(t)),
                                        LwtCondition::NotExists());
      if (s.ok()) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(cluster_.stats().lwt_failures.load(), static_cast<uint64_t>(kThreads - 1));
}

TEST_F(ClusterTest, ReadFloorMatchesSemantics) {
  for (uint64_t k : {100, 200, 300}) {
    ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(k), ValueRow(std::to_string(k))).ok());
  }
  auto f = cluster_.ReadFloor("t", "p1", EncodeKey64(250));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*DecodeKey64(f->first), 200u);
  EXPECT_TRUE(cluster_.ReadFloor("t", "p1", EncodeKey64(50)).status().IsNotFound());
}

TEST_F(ClusterTest, ReadRangeInclusiveAndSorted) {
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(k * 5), ValueRow("x")).ok());
  }
  auto rows = cluster_.ReadRange("t", "p1", EncodeKey64(10), EncodeKey64(50));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 9u);  // 10,15,...,50
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LT((*rows)[i - 1].first, (*rows)[i].first);
  }
}

TEST_F(ClusterTest, DeleteRowHidesCells) {
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(5), ValueRow("x")).ok());
  ASSERT_TRUE(cluster_.DeleteRow("t", "p1", EncodeKey64(5), {"v"}).ok());
  EXPECT_TRUE(cluster_.Read("t", "p1", EncodeKey64(5)).status().IsNotFound());
}

TEST_F(ClusterTest, DeletePartitionDropsEverything) {
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(cluster_.Write("t", "victim", EncodeKey64(k), ValueRow("x")).ok());
  }
  ASSERT_TRUE(cluster_.Write("t", "survivor", EncodeKey64(1), ValueRow("y")).ok());
  ASSERT_TRUE(cluster_.DeletePartition("t", "victim").ok());
  auto rows = cluster_.ReadRange("t", "victim", EncodeKey64(0), EncodeKey64(~0ULL));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_TRUE(cluster_.Read("t", "survivor", EncodeKey64(1)).ok());
}

TEST_F(ClusterTest, QuorumReadSeesNewestReplicaState) {
  ClusterOptions o = MakeOptions();
  o.consistency = Consistency::kQuorum;
  // Quorum writes and reads intersect, so this holds with concurrent legs.
  o.replica_fanout_threads = ClusterOptions().replica_fanout_threads;
  Cluster quorum(o);
  ASSERT_TRUE(quorum.CreateTable("t").ok());
  ASSERT_TRUE(quorum.Write("t", "p", EncodeKey64(1), ValueRow("q")).ok());
  auto row = quorum.Read("t", "p", EncodeKey64(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells.at("v").value, "q");
}

TEST_F(ClusterTest, StatsCountersAdvance) {
  ASSERT_TRUE(cluster_.Write("t", "p1", EncodeKey64(1), ValueRow("x")).ok());
  (void)cluster_.Read("t", "p1", EncodeKey64(1));
  EXPECT_GE(cluster_.stats().writes.load(), 1u);
  EXPECT_GE(cluster_.stats().reads.load(), 1u);
  EXPECT_GT(cluster_.stats().bytes_to_client.load(), 0u);
  cluster_.ResetPerfCounters();
  EXPECT_EQ(cluster_.stats().reads.load(), 0u);
}

TEST(ClusterNetworkModel, QuorumReadChargesOneReplicaHopPerExtraVote) {
  SimulatedClock clock;
  ClusterOptions o = ClusterOptions::ForTest();
  o.node_count = 3;
  o.replication_factor = 3;
  o.replica_fanout_threads = 0;
  o.consistency = Consistency::kQuorum;
  o.clock = &clock;
  o.rtt_micros = 300;
  o.replica_hop_micros = 120;
  o.network_bytes_per_micro = 0;  // no transfer charge: only hops count
  Cluster cluster(o);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Write("t", "p", EncodeKey64(1), ValueRow("q")).ok());
  const uint64_t votes = static_cast<uint64_t>(o.replication_factor / 2 + 1);
  const uint64_t before = clock.NowMicros();
  ASSERT_TRUE(cluster.Read("t", "p", EncodeKey64(1)).ok());
  EXPECT_EQ(clock.NowMicros() - before, 300 + 120 * (votes - 1));
}

// Parks the first SleepMicros after Arm() until Release(); every other sleep
// returns at once. A media read that parks here holds its replica read leg in
// flight for as long as a test needs.
class ParkingClock : public Clock {
 public:
  uint64_t NowMicros() const override { return SystemClock::Get()->NowMicros(); }

  void SleepMicros(uint64_t) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) {
      return;
    }
    armed_ = false;
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
  bool released_ = false;
};

// Replica choice under load. With no block cache every Get is exactly one
// media read on the replica that served it, so per-node media read counts
// say which replicas a read contacted.
class ReplicaChoiceTest : public ::testing::Test {
 protected:
  void Start(Consistency consistency, FaultInjector* fi = nullptr) {
    ClusterOptions o = ClusterOptions::ForTest();
    o.node_count = 3;
    o.replication_factor = 3;
    o.replica_fanout_threads = 0;
    o.consistency = consistency;
    o.clock = &clock_;
    o.network_bytes_per_micro = 0;
    o.block_cache_bytes = 0;
    o.media = MediaProfile::Ssd(1.0);  // a deep queue: a parked read blocks no other
    o.fault_injector = fi;
    cluster_ = std::make_unique<Cluster>(o);
    ASSERT_TRUE(cluster_->CreateTable("t").ok());
    ASSERT_TRUE(cluster_->Write("t", "p", EncodeKey64(1), ValueRow("v")).ok());
    ASSERT_TRUE(cluster_->FlushAll().ok());
    replicas_ = cluster_->ReplicaNodesFor("p");
    ASSERT_EQ(replicas_.size(), 3u);
  }

  void TearDown() override {
    if (parked_.joinable()) {
      clock_.Release();
      parked_.join();
    }
  }

  // Starts a read on another thread and returns once it is parked inside
  // its first replica's media read.
  void ParkOneRead() {
    clock_.Arm();
    parked_ = std::thread([this] { EXPECT_TRUE(cluster_->Read("t", "p", EncodeKey64(1)).ok()); });
    clock_.WaitParked();
  }

  // Media reads per replica (in ring order) that `read` caused.
  std::vector<uint64_t> ReadsPerReplica(const std::function<void()>& read) {
    std::vector<uint64_t> before;
    for (int node : replicas_) {
      before.push_back(cluster_->NodeMediaStats(node)->reads.load());
    }
    read();
    std::vector<uint64_t> delta;
    for (size_t i = 0; i < replicas_.size(); ++i) {
      delta.push_back(cluster_->NodeMediaStats(replicas_[i])->reads.load() - before[i]);
    }
    return delta;
  }

  void ReadOk() {
    auto row = cluster_->Read("t", "p", EncodeKey64(1));
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(row->cells.at("v").value, "v");
  }

  static uint64_t Steered() {
    return MetricsRegistry::Instance().GetCounter("cluster.read.steered")->Value();
  }

  ParkingClock clock_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<int> replicas_;
  std::thread parked_;
};

TEST_F(ReplicaChoiceTest, SingleThreadedOneReadsFollowTheRoundRobin) {
  Start(Consistency::kOne);
  const uint64_t steered = Steered();
  for (size_t i = 0; i < 6; ++i) {
    std::vector<uint64_t> want(3, 0);
    want[i % 3] = 1;
    EXPECT_EQ(ReadsPerReplica([&] { ReadOk(); }), want) << "read " << i;
  }
  EXPECT_EQ(Steered(), steered);
}

TEST_F(ReplicaChoiceTest, OneReadsAvoidAReplicaWithAReadInFlight) {
  Start(Consistency::kOne);
  ParkOneRead();  // round-robin start 0: parked on replicas_[0]
  const uint64_t steered = Steered();
  const std::vector<uint64_t> served = ReadsPerReplica([&] {
    for (int i = 0; i < 6; ++i) {
      ReadOk();
    }
  });
  // Starts 1..6 in tie-break order begin at replicas 1, 2, 0, 1, 2, 0; the
  // two that began at the busy replica go to replica 1, the first idle one.
  EXPECT_EQ(served, (std::vector<uint64_t>{0, 4, 2}));
  if (MetricsRegistry::Instance().enabled()) {
    EXPECT_EQ(Steered() - steered, 2u);
  }
}

TEST_F(ReplicaChoiceTest, ReadErrorFailsOverInLoadOrder) {
  FaultInjector fi(1);
  Start(Consistency::kOne, &fi);
  ParkOneRead();  // round-robin start 0: parked on replicas_[0]
  ReadOk();       // start 1
  // Start 2: the tie-break order is 2, 0, 1, the load order 2, 1, 0. The
  // chosen replica fails; the read goes to the idle replica, not the busy one.
  fi.Script(FaultPoint::kMediaReadError, 1);
  EXPECT_EQ(ReadsPerReplica([&] { ReadOk(); }), (std::vector<uint64_t>{0, 1, 0}));
  // Start 3, load order 1, 2, 0: with both idle replicas failing, the busy
  // one is still a live replica and serves the read.
  fi.Script(FaultPoint::kMediaReadError, 1);
  fi.Script(FaultPoint::kMediaReadError, 1);
  EXPECT_EQ(ReadsPerReplica([&] { ReadOk(); }), (std::vector<uint64_t>{1, 0, 0}));
}

TEST_F(ReplicaChoiceTest, QuorumContactsTheLeastLoadedReplicas) {
  Start(Consistency::kQuorum);
  ParkOneRead();  // ring order: parked on replicas_[0]
  const std::vector<uint64_t> served = ReadsPerReplica([&] { ReadOk(); });
  EXPECT_EQ(served[0], 0u);
  EXPECT_GT(served[1], 0u);
  EXPECT_GT(served[2], 0u);
}

TEST(HashRing, ReplicasAreDistinctAndStable) {
  HashRing ring(16);
  ring.AddNode(0);
  ring.AddNode(1);
  ring.AddNode(2);
  const auto r1 = ring.Replicas("partition-a", 3);
  ASSERT_EQ(r1.size(), 3u);
  EXPECT_NE(r1[0], r1[1]);
  EXPECT_NE(r1[1], r1[2]);
  EXPECT_NE(r1[0], r1[2]);
  EXPECT_EQ(r1, ring.Replicas("partition-a", 3));  // deterministic
}

TEST(HashRing, RfLargerThanNodesReturnsAll) {
  HashRing ring(8);
  ring.AddNode(0);
  ring.AddNode(1);
  EXPECT_EQ(ring.Replicas("x", 5).size(), 2u);
}

TEST(HashRing, LoadSpreadsAcrossNodes) {
  HashRing ring(32);
  for (int n = 0; n < 4; ++n) {
    ring.AddNode(n);
  }
  std::array<int, 4> counts{};
  for (int i = 0; i < 4000; ++i) {
    counts[static_cast<size_t>(ring.Replicas("part" + std::to_string(i), 1)[0])]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 400);  // each node owns a sizeable share
  }
}

TEST(HashRing, RemoveNodeReassigns) {
  HashRing ring(16);
  ring.AddNode(0);
  ring.AddNode(1);
  ring.RemoveNode(0);
  for (int i = 0; i < 100; ++i) {
    const auto replicas = ring.Replicas("k" + std::to_string(i), 1);
    ASSERT_EQ(replicas.size(), 1u);
    EXPECT_EQ(replicas[0], 1);
  }
}

}  // namespace
}  // namespace minicrypt
