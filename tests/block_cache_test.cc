#include "src/kvstore/block_cache.h"

#include <gtest/gtest.h>

#include <thread>

namespace minicrypt {
namespace {

std::shared_ptr<const std::string> Block(size_t bytes, char fill = 'x') {
  return std::make_shared<const std::string>(bytes, fill);
}

TEST(BlockCache, HitAndMissAccounting) {
  BlockCache cache(1 << 20, /*shards=*/2);
  EXPECT_FALSE(cache.Get(1, 0).has_value());
  cache.Put(1, 0, Block(100, 'a'));
  auto hit = cache.Get(1, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((**hit)[0], 'a');
  const BlockCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes_used, 100u);
}

TEST(BlockCache, CapacityEnforcedPerShard) {
  BlockCache cache(1000, /*shards=*/1);
  for (uint64_t i = 0; i < 20; ++i) {
    cache.Put(7, i, Block(100));
  }
  const BlockCacheStats stats = cache.Stats();
  EXPECT_LE(stats.bytes_used, 1000u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(BlockCache, LruKeepsRecentlyTouched) {
  BlockCache cache(300, /*shards=*/1);
  cache.Put(1, 0, Block(100, 'a'));
  cache.Put(1, 1, Block(100, 'b'));
  cache.Put(1, 2, Block(100, 'c'));
  // Touch block 0 so block 1 becomes the LRU victim.
  ASSERT_TRUE(cache.Get(1, 0).has_value());
  cache.Put(1, 3, Block(100, 'd'));
  EXPECT_TRUE(cache.Get(1, 0).has_value());
  EXPECT_FALSE(cache.Get(1, 1).has_value());
}

TEST(BlockCache, UpdateReplacesAndReaccounts) {
  BlockCache cache(1 << 20, 1);
  cache.Put(1, 0, Block(100));
  cache.Put(1, 0, Block(300));
  EXPECT_EQ(cache.Stats().bytes_used, 300u);
}

TEST(BlockCache, EraseOwnerDropsOnlyThatOwner) {
  BlockCache cache(1 << 20, 4);
  for (uint64_t i = 0; i < 10; ++i) {
    cache.Put(1, i, Block(50));
    cache.Put(2, i, Block(50));
  }
  cache.EraseOwner(1, 10);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(cache.Get(1, i).has_value());
    EXPECT_TRUE(cache.Get(2, i).has_value());
  }
}

TEST(BlockCache, EraseOwnerLeavesOtherOwnersExactlyAsTheyWere) {
  // One shard, so the LRU order of the survivors is observable.
  BlockCache cache(1000, /*shards=*/1);
  cache.Put(2, 0, Block(70, 'a'));
  cache.Put(1, 0, Block(50));
  cache.Put(3, 5, Block(90, 'c'));
  cache.Put(1, 1, Block(50));
  cache.Put(2, 1, Block(70, 'b'));
  cache.Put(1, 2, Block(50));
  const BlockCacheStats before = cache.Stats();
  ASSERT_EQ(before.bytes_used, 380u);

  cache.EraseOwner(1, 3);
  const BlockCacheStats after = cache.Stats();
  EXPECT_EQ(after.bytes_used, before.bytes_used - 150);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(cache.Contains(1, i));
  }
  EXPECT_TRUE(cache.Contains(2, 0));
  EXPECT_TRUE(cache.Contains(2, 1));
  EXPECT_TRUE(cache.Contains(3, 5));

  // The survivors keep their LRU order: filling the cache evicts (2, 0)
  // first, then (3, 5), and (2, 1) last.
  cache.Put(9, 0, Block(771));
  EXPECT_FALSE(cache.Contains(2, 0));
  EXPECT_TRUE(cache.Contains(3, 5));
  cache.Put(9, 1, Block(90));
  EXPECT_FALSE(cache.Contains(3, 5));
  EXPECT_TRUE(cache.Contains(2, 1));
}

TEST(BlockCache, EraseOwnerStopsAtBlockCount) {
  BlockCache cache(1 << 20, 4);
  cache.Put(1, 0, Block(10));
  cache.Put(1, 1, Block(10));
  cache.EraseOwner(1, 1);
  EXPECT_FALSE(cache.Contains(1, 0));
  EXPECT_TRUE(cache.Contains(1, 1));
  cache.EraseOwner(1, 0);  // an empty table erases nothing
  EXPECT_EQ(cache.Stats().bytes_used, 10u);
}

TEST(BlockCache, KeysThatMixAlikeStayDistinct) {
  // MixKey(1, 0) == MixKey(0, 0x9e3779b97f4a7c15): the hash alone would let
  // one table's block answer for the other's.
  BlockCache cache(1 << 20, 4);
  constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  cache.Put(1, 0, Block(100, 'a'));
  cache.Put(0, kGolden, Block(60, 'b'));
  EXPECT_EQ(cache.Stats().bytes_used, 160u);
  auto first = cache.Get(1, 0);
  auto second = cache.Get(0, kGolden);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((**first)[0], 'a');
  EXPECT_EQ((**second)[0], 'b');
  cache.EraseOwner(1, 1);
  EXPECT_FALSE(cache.Contains(1, 0));
  EXPECT_TRUE(cache.Contains(0, kGolden));
  EXPECT_EQ(cache.Stats().bytes_used, 60u);
}

TEST(BlockCache, ContainsCountsNothingAndKeepsLruOrder) {
  BlockCache cache(300, /*shards=*/1);
  cache.Put(1, 0, Block(100, 'a'));
  cache.Put(1, 1, Block(100, 'b'));
  cache.Put(1, 2, Block(100, 'c'));
  const BlockCacheStats before = cache.Stats();
  EXPECT_TRUE(cache.Contains(1, 0));
  EXPECT_FALSE(cache.Contains(1, 9));
  const BlockCacheStats after = cache.Stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  // Block 0 is still the LRU victim: probing it did not refresh it.
  cache.Put(1, 3, Block(100, 'd'));
  EXPECT_FALSE(cache.Contains(1, 0));
  EXPECT_TRUE(cache.Contains(1, 1));
  EXPECT_FALSE(BlockCache(0).Contains(1, 0));
}

TEST(BlockCache, ZeroCapacityDisablesCaching) {
  BlockCache cache(0);
  cache.Put(1, 0, Block(10));
  EXPECT_FALSE(cache.Get(1, 0).has_value());
  EXPECT_EQ(cache.Stats().bytes_used, 0u);
}

TEST(BlockCache, ConcurrentMixedAccessIsSafe) {
  BlockCache cache(64 * 1024, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < 2000; ++i) {
        const uint64_t key = (i * 7 + static_cast<uint64_t>(t)) % 256;
        if (i % 3 == 0) {
          cache.Put(static_cast<uint64_t>(t % 2), key, Block(64));
        } else {
          auto block = cache.Get(static_cast<uint64_t>(t % 2), key);
          if (block.has_value()) {
            ASSERT_EQ((*block)->size(), 64u);
          }
          (void)cache.Contains(static_cast<uint64_t>(t % 2), key);
        }
        if (i % 500 == 0) {
          cache.EraseOwner(0, 256);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_LE(cache.Stats().bytes_used, 64u * 1024);
}

}  // namespace
}  // namespace minicrypt
