#include "src/kvstore/cluster.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/common/clock.h"
#include "src/common/coding.h"
#include "src/kvstore/ring.h"

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
