// Sharded LRU block cache with a byte capacity. This models the server's RAM:
// the paper's central performance mechanism is that compression lets ~4x more
// data fit here before reads start paying media latency (paper §1, §8.1).

#ifndef MINICRYPT_SRC_KVSTORE_BLOCK_CACHE_H_
#define MINICRYPT_SRC_KVSTORE_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace minicrypt {

struct BlockCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t bytes_used = 0;
};

class BlockCache {
 public:
  // `capacity_bytes` == 0 disables caching entirely (every lookup misses).
  explicit BlockCache(size_t capacity_bytes, int shards = 8);

  // A block is keyed by (owner, index): the owner is the SSTable id (each
  // engine of a node offsets its ids into a disjoint range), the index is the
  // block's position in that table. Lookups compare the whole pair, so two
  // keys that hash alike never serve each other's block.
  std::optional<std::shared_ptr<const std::string>> Get(uint64_t owner, uint64_t index);

  void Put(uint64_t owner, uint64_t index, std::shared_ptr<const std::string> block);

  // Whether (owner, index) is resident. A pure probe: it counts no hit or
  // miss and leaves the LRU order alone, so compaction can ask which of its
  // inputs were hot without skewing the hit ratio or refreshing them.
  bool Contains(uint64_t owner, uint64_t index) const;

  // Drops blocks (owner, 0..block_count-1) — every block of an SSTable of
  // `block_count` blocks (called when it dies in compaction). Touches only
  // those keys' shards, never the rest of the cache.
  void EraseOwner(uint64_t owner, uint64_t block_count);

  // Drops everything (a node crash wipes its RAM). Hit/miss/eviction counters
  // survive — they describe history, not contents.
  void Clear();

  BlockCacheStats Stats() const;
  size_t capacity_bytes() const { return capacity_; }

 private:
  struct Key {
    uint64_t owner;
    uint64_t index;
    bool operator==(const Key& other) const {
      return owner == other.owner && index == other.index;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const { return MixKey(key.owner, key.index); }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const std::string> block;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  static uint64_t MixKey(uint64_t owner, uint64_t index);
  Shard& ShardFor(const Key& key) const;
  void EvictLocked(Shard& shard, size_t per_shard_capacity);

  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_KVSTORE_BLOCK_CACHE_H_
