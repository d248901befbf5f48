#include "src/kvstore/block_cache.h"

#include <vector>

#include "src/obs/metrics.h"

namespace minicrypt {

BlockCache::BlockCache(size_t capacity_bytes, int shards) : capacity_(capacity_bytes) {
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

uint64_t BlockCache::MixKey(uint64_t owner, uint64_t index) {
  uint64_t h = owner * 0x9e3779b97f4a7c15ULL + index;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h;
}

BlockCache::Shard& BlockCache::ShardFor(const Key& key) const {
  return *shards_[MixKey(key.owner, key.index) % shards_.size()];
}

std::optional<std::shared_ptr<const std::string>> BlockCache::Get(uint64_t owner,
                                                                  uint64_t index) {
  if (capacity_ == 0) {
    return std::nullopt;
  }
  const Key key{owner, index};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    shard.misses++;
    OBS_COUNTER_INC("cache.miss");
    return std::nullopt;
  }
  shard.hits++;
  OBS_COUNTER_INC("cache.hit");
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->block;
}

void BlockCache::Put(uint64_t owner, uint64_t index,
                     std::shared_ptr<const std::string> block) {
  if (capacity_ == 0) {
    return;
  }
  const Key key{owner, index};
  Shard& shard = ShardFor(key);
  const size_t per_shard = capacity_ / shards_.size();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.bytes -= it->second->block->size();
    shard.bytes += block->size();
    it->second->block = std::move(block);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key, std::move(block)});
    shard.bytes += shard.lru.front().block->size();
    shard.map[key] = shard.lru.begin();
  }
  EvictLocked(shard, per_shard);
}

bool BlockCache::Contains(uint64_t owner, uint64_t index) const {
  if (capacity_ == 0) {
    return false;
  }
  const Key key{owner, index};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.map.count(key) != 0;
}

void BlockCache::EvictLocked(Shard& shard, size_t per_shard_capacity) {
  uint64_t evicted = 0;
  while (shard.bytes > per_shard_capacity && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.block->size();
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    shard.evictions++;
    evicted++;
  }
  if (evicted > 0) {
    OBS_COUNTER_ADD("cache.evictions", evicted);
  }
}

void BlockCache::EraseOwner(uint64_t owner, uint64_t block_count) {
  if (capacity_ == 0) {
    return;
  }
  for (uint64_t index = 0; index < block_count; ++index) {
    const Key key{owner, index};
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.bytes -= it->second->block->size();
      shard.lru.erase(it->second);
      shard.map.erase(it);
    }
  }
}

void BlockCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.map.clear();
    shard.bytes = 0;
  }
}

BlockCacheStats BlockCache::Stats() const {
  BlockCacheStats out;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
    out.hits += shard_ptr->hits;
    out.misses += shard_ptr->misses;
    out.evictions += shard_ptr->evictions;
    out.bytes_used += shard_ptr->bytes;
  }
  return out;
}

}  // namespace minicrypt
