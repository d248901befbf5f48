#include "src/core/pack_cache.h"

#include <algorithm>
#include <functional>

#include "src/common/coding.h"
#include "src/obs/metrics.h"

namespace minicrypt {

namespace {

// Rough in-memory footprint of one cached pack: entry bytes plus per-entry and
// per-slot bookkeeping. Exactness does not matter — it only has to make the
// byte capacity meaningful.
size_t ApproxPackBytes(const Pack& pack, size_t key_bytes, size_t hash_bytes) {
  // Entries are views into the pack's arena, so the arena plus the view
  // index is the whole footprint.
  const size_t bytes = sizeof(Pack) + 64 +  // slot + list node overhead
                       pack.ArenaBytes() +
                       pack.entries().size() * sizeof(Pack::EntryView);
  return bytes + key_bytes + hash_bytes;
}

}  // namespace

PackCache::PackCache(size_t capacity_bytes, uint64_t ttl_micros, Clock* clock, int shards)
    : capacity_(capacity_bytes), ttl_micros_(ttl_micros), clock_(clock) {
  const int n = std::max(1, shards);
  shards_.reserve(n);
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<PackCache> PackCache::FromOptions(size_t capacity_bytes, uint64_t ttl_micros,
                                                  Clock* clock) {
  if (capacity_bytes == 0) {
    return nullptr;
  }
  return std::make_shared<PackCache>(capacity_bytes, ttl_micros, clock);
}

std::string PackCache::ScopePrefix(std::string_view table, std::string_view partition) {
  std::string out;
  PutVarint64(&out, table.size());
  out.append(table);
  PutVarint64(&out, partition.size());
  out.append(partition);
  return out;
}

PackCache::Shard& PackCache::ShardForScope(std::string_view scope) {
  const size_t h = std::hash<std::string_view>{}(scope);
  return *shards_[h % shards_.size()];
}

bool PackCache::FreshLocked(const CachedPack& cached) const {
  if (ttl_micros_ == 0) {
    return false;
  }
  const uint64_t now = clock_->NowMicros();
  return now >= cached.validated_at_micros && now - cached.validated_at_micros <= ttl_micros_;
}

void PackCache::TouchLocked(Shard& shard, Slot& slot, const std::string& key) {
  shard.lru.erase(slot.lru_it);
  shard.lru.push_front(key);
  slot.lru_it = shard.lru.begin();
}

void PackCache::EvictLocked(Shard& shard) {
  const size_t per_shard = capacity_ / shards_.size();
  while (shard.bytes > per_shard && !shard.lru.empty()) {
    const std::string victim = shard.lru.back();
    shard.lru.pop_back();
    auto it = shard.map.find(victim);
    if (it != shard.map.end()) {
      shard.bytes -= std::min(shard.bytes, it->second.bytes);
      shard.map.erase(it);
      shard.evictions++;
      OBS_COUNTER_INC("client.cache.evictions");
    }
  }
}

std::optional<std::pair<std::string, PackCache::CachedPack>> PackCache::Floor(
    std::string_view table, std::string_view partition, std::string_view stored_key,
    bool only_fresh) {
  if (!enabled()) {
    return std::nullopt;
  }
  const std::string scope = ScopePrefix(table, partition);
  std::string probe = scope;
  probe.append(stored_key);
  Shard& shard = ShardForScope(scope);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Greatest key <= scope||stored_key that still lies inside the scope.
  auto it = shard.map.upper_bound(probe);
  if (it == shard.map.begin()) {
    return std::nullopt;
  }
  --it;
  if (it->first.size() < scope.size() || it->first.compare(0, scope.size(), scope) != 0) {
    return std::nullopt;
  }
  if (only_fresh && !FreshLocked(it->second.cached)) {
    return std::nullopt;
  }
  TouchLocked(shard, it->second, it->first);
  return std::make_pair(it->first.substr(scope.size()), it->second.cached);
}

std::shared_ptr<const Pack> PackCache::ValidateAndGet(std::string_view table,
                                                      std::string_view partition,
                                                      std::string_view pack_id,
                                                      std::string_view expected_hash) {
  if (!enabled()) {
    return nullptr;
  }
  const std::string scope = ScopePrefix(table, partition);
  std::string key = scope;
  key.append(pack_id);
  Shard& shard = ShardForScope(scope);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    shard.misses++;
    OBS_COUNTER_INC("client.cache.misses");
    return nullptr;
  }
  if (it->second.cached.hash != expected_hash) {
    // The server holds a newer version of this pack: drop ours.
    shard.invalidations++;
    shard.misses++;
    OBS_COUNTER_INC("client.cache.invalidations");
    OBS_COUNTER_INC("client.cache.misses");
    shard.bytes -= std::min(shard.bytes, it->second.bytes);
    shard.lru.erase(it->second.lru_it);
    shard.map.erase(it);
    return nullptr;
  }
  it->second.cached.validated_at_micros = clock_->NowMicros();
  TouchLocked(shard, it->second, it->first);
  shard.hits++;
  shard.revalidations++;
  OBS_COUNTER_INC("client.cache.hits");
  OBS_COUNTER_INC("client.cache.revalidations");
  return it->second.cached.pack;
}

void PackCache::RecordTtlServe() {
  if (!enabled()) {
    return;
  }
  Shard& shard = *shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.hits++;
  shard.ttl_hits++;
  OBS_COUNTER_INC("client.cache.hits");
  OBS_COUNTER_INC("client.cache.ttl_hits");
}

void PackCache::Put(std::string_view table, std::string_view partition, std::string_view pack_id,
                    std::shared_ptr<const Pack> pack, std::string hash) {
  // A partial pack (opened with a bound) must never answer for the whole.
  if (!enabled() || pack == nullptr || !pack->complete()) {
    return;
  }
  const std::string scope = ScopePrefix(table, partition);
  std::string key = scope;
  key.append(pack_id);
  const size_t bytes = ApproxPackBytes(*pack, key.size(), hash.size());
  Shard& shard = ShardForScope(scope);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.bytes -= std::min(shard.bytes, it->second.bytes);
    it->second.cached = CachedPack{std::move(pack), std::move(hash), clock_->NowMicros()};
    it->second.bytes = bytes;
    shard.bytes += bytes;
    TouchLocked(shard, it->second, it->first);
  } else {
    shard.lru.push_front(key);
    Slot slot;
    slot.cached = CachedPack{std::move(pack), std::move(hash), clock_->NowMicros()};
    slot.bytes = bytes;
    slot.lru_it = shard.lru.begin();
    shard.map.emplace(std::move(key), std::move(slot));
    shard.bytes += bytes;
  }
  EvictLocked(shard);
}

void PackCache::Invalidate(std::string_view table, std::string_view partition,
                           std::string_view pack_id) {
  if (!enabled()) {
    return;
  }
  const std::string scope = ScopePrefix(table, partition);
  std::string key = scope;
  key.append(pack_id);
  Shard& shard = ShardForScope(scope);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return;
  }
  shard.bytes -= std::min(shard.bytes, it->second.bytes);
  shard.lru.erase(it->second.lru_it);
  shard.map.erase(it);
  shard.invalidations++;
  OBS_COUNTER_INC("client.cache.invalidations");
}

PackCacheStats PackCache::Stats() const {
  PackCacheStats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->hits;
    out.ttl_hits += shard->ttl_hits;
    out.misses += shard->misses;
    out.revalidations += shard->revalidations;
    out.invalidations += shard->invalidations;
    out.evictions += shard->evictions;
    out.bytes_used += shard->bytes;
  }
  return out;
}

}  // namespace minicrypt
