// Client-side decrypted-pack cache (shared, sharded, version-validated).
//
// MiniCrypt's read path pays a full envelope fetch + decrypt + decompress per
// Get even when consecutive gets hit the same pack. This cache keeps recently
// opened packs in client memory, keyed by (table, partition, packID) and
// guarded by the pack's LWT version — the SHA-256 envelope hash the server
// already stores as the update-if token. A cached entry is only served after a
// cheap version-only floor probe (Cluster::ReadFloorCell) confirms the stored
// hash still matches, so the cache can never return bytes the server has since
// replaced. Holding plaintext here does not weaken the threat model: the cache
// lives on the key-holding client, which can decrypt every envelope anyway.
//
// Coherence protocol (see docs/ARCHITECTURE.md "Client pack cache"):
//   * read  — probe the server floor for the hash column only; serve the
//     cached pack iff (packID, hash) match, else refetch and replace.
//   * write — on an acked LWT, Put() the post-image under the new hash; on
//     ConditionFailed or an ambiguous (Unavailable) LWT, Invalidate().
//   * ttl   — with cache_ttl_micros > 0, entries validated within the TTL may
//     be served without probing (bounded staleness, opt-in). ttl == 0 (the
//     default) probes on every read and is fully coherent.

#ifndef MINICRYPT_SRC_CORE_PACK_CACHE_H_
#define MINICRYPT_SRC_CORE_PACK_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/core/pack.h"

namespace minicrypt {

struct PackCacheStats {
  uint64_t hits = 0;           // probe-confirmed + TTL-fresh serves
  uint64_t ttl_hits = 0;       // subset of hits served without a probe
  uint64_t misses = 0;         // lookups that required an envelope fetch
  uint64_t revalidations = 0;  // probe confirmed a cached version
  uint64_t invalidations = 0;  // version mismatch or explicit Invalidate()
  uint64_t evictions = 0;
  uint64_t bytes_used = 0;
};

// Thread-safe. Multiple GenericClient / AppendClient instances may share one
// PackCache (pass the same shared_ptr); packs are handed out as
// shared_ptr<const Pack> so readers never see a mutating entry.
class PackCache {
 public:
  struct CachedPack {
    std::shared_ptr<const Pack> pack;
    std::string hash;             // envelope hash the pack was opened from
    uint64_t validated_at_micros = 0;
  };

  // `capacity_bytes` == 0 disables the cache (every lookup misses, Put is a
  // no-op). `ttl_micros` == 0 means entries are never TTL-fresh: every read
  // revalidates against the server.
  PackCache(size_t capacity_bytes, uint64_t ttl_micros, Clock* clock, int shards = 8);

  // Convenience: build a cache from client options, or nullptr when the
  // options leave caching off.
  static std::shared_ptr<PackCache> FromOptions(size_t capacity_bytes, uint64_t ttl_micros,
                                                Clock* clock);

  bool enabled() const { return capacity_ > 0; }
  size_t capacity_bytes() const { return capacity_; }
  uint64_t ttl_micros() const { return ttl_micros_; }

  // Greatest cached packID <= stored_key within (table, partition), i.e. the
  // cached candidate for the pack owning stored_key. With `only_fresh` the
  // entry is returned only when validated within the TTL. Does not count
  // hit/miss — the caller decides whether the candidate is usable.
  std::optional<std::pair<std::string, CachedPack>> Floor(std::string_view table,
                                                          std::string_view partition,
                                                          std::string_view stored_key,
                                                          bool only_fresh);

  // The probe-confirm step: returns the cached pack iff an entry for pack_id
  // exists and its hash equals `expected_hash` (the hash the server floor just
  // reported). Counts a hit + revalidation on match (and refreshes the TTL
  // stamp), an invalidation + miss on version mismatch (entry dropped), and a
  // plain miss when absent.
  std::shared_ptr<const Pack> ValidateAndGet(std::string_view table, std::string_view partition,
                                             std::string_view pack_id,
                                             std::string_view expected_hash);

  // Caller served a TTL-fresh entry without probing; account it as a hit.
  void RecordTtlServe();

  // Insert or replace. The entry is stamped validated-now. A partial pack
  // (!complete()) is refused: the cache only holds whole packs.
  void Put(std::string_view table, std::string_view partition, std::string_view pack_id,
           std::shared_ptr<const Pack> pack, std::string hash);

  // Drop one entry (ambiguous LWT, lost race, version skew).
  void Invalidate(std::string_view table, std::string_view partition, std::string_view pack_id);

  PackCacheStats Stats() const;

 private:
  struct Slot {
    CachedPack cached;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;  // into Shard::lru
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Slot> map;  // ordered: enables Floor()
    std::list<std::string> lru;       // front = most recent, holds map keys
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t ttl_hits = 0;
    uint64_t misses = 0;
    uint64_t revalidations = 0;
    uint64_t invalidations = 0;
    uint64_t evictions = 0;
  };

  // varint(len(table)) || table || varint(len(partition)) || partition.
  // All packIDs of one (table, partition) share a scope prefix, so Floor is an
  // upper_bound within one shard's ordered map.
  static std::string ScopePrefix(std::string_view table, std::string_view partition);

  Shard& ShardForScope(std::string_view scope);
  void TouchLocked(Shard& shard, Slot& slot, const std::string& key);
  void EvictLocked(Shard& shard);
  bool FreshLocked(const CachedPack& cached) const;

  const size_t capacity_;
  const uint64_t ttl_micros_;
  Clock* const clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_CORE_PACK_CACHE_H_
