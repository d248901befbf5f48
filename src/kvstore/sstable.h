// Immutable sorted-run file of the LSM engine.
//
// Layout (all in a single "media extent" byte buffer that reads are charged
// against): a sequence of data blocks, each holding encoded (key, row)
// entries in sorted order, followed by a checksummed footer. The sparse index
// (first key + offset + length per block) and the bloom filter are kept in
// RAM, as real stores do; data blocks are fetched through the BlockCache and
// charged to the Media model on miss.
//
// Format v2 (docs/FORMATS.md): every at-rest block carries a trailing CRC32
// over its tag byte + payload, and the footer repeats every block's CRC plus
// table-level metadata under its own CRC. Reads verify the block CRC on every
// fetch (cache hit or media read); a mismatch surfaces as Status::Corruption
// naming the table, SSTable id, and block index, and the engine quarantines
// the table. `SstableOptions::verify_checksums` exists only so benchmarks can
// measure the verification overhead.
//
// Optional server-side block compression (zlib) models Cassandra's at-rest
// SSTable compression: the cached/at-rest form is the compressed block, and
// every access pays a decompress. This is what makes the vanilla client's
// effective memory footprint smaller than raw (paper §8.1.1) while client-
// encrypted tables gain nothing from it.

#ifndef MINICRYPT_SRC_KVSTORE_SSTABLE_H_
#define MINICRYPT_SRC_KVSTORE_SSTABLE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/kvstore/block_cache.h"
#include "src/kvstore/bloom.h"
#include "src/kvstore/media.h"
#include "src/kvstore/row.h"

namespace minicrypt {

class FaultInjector;

struct SstableOptions {
  size_t block_bytes = 4096;
  int bloom_bits_per_key = 10;
  bool server_compression = false;  // compress blocks at rest (zlib)
  bool verify_checksums = true;     // verify block CRC32 on every fetch
  std::string table;                // table name, for corruption messages
};

class Sstable;

// Accumulates sorted entries and seals them into an Sstable. Keys must be
// added in strictly increasing order.
class SstableBuilder {
 public:
  SstableBuilder(uint64_t id, SstableOptions options);

  void Add(std::string_view encoded_key, const Row& row);

  // Seals the table. `media` is charged for the sequential write.
  // `fault_injector` (optional) is consulted at the kMediaCorruption point
  // once per block: a trip flips one seeded bit of the stored block — the
  // write that "went bad on the platter". The flip happens after checksums
  // are computed, so it is always detectable.
  std::shared_ptr<Sstable> Finish(Media* media, FaultInjector* fault_injector = nullptr);

  size_t entry_count() const { return entry_count_; }

 private:
  void FlushBlock();

  uint64_t id_;
  SstableOptions options_;
  std::vector<std::string> blocks_;          // at-rest (possibly compressed) blocks
  std::vector<std::string> block_first_key_;
  std::vector<std::string> block_last_key_;
  std::string pending_;                       // current raw block under construction
  std::string pending_first_key_;
  std::string last_key_;
  std::vector<std::string> keys_for_bloom_;
  size_t entry_count_ = 0;
};

class Sstable {
 public:
  // Looks up the newest row for the key. Ok(nullopt) when absent; Corruption
  // when the covering block fails its checksum or fails to decode.
  // Media/cache charging happens inside.
  Result<std::optional<Row>> Get(std::string_view encoded_key, BlockCache* cache,
                                 Media* media) const;

  // Largest key <= `encoded_key` that starts with `prefix`. Returns the key
  // (owned string), Ok(nullopt) when absent, Corruption on a bad block.
  Result<std::optional<std::string>> FloorKey(std::string_view prefix,
                                              std::string_view encoded_key, BlockCache* cache,
                                              Media* media) const;

  // Applies `fn` to every entry with lo <= key <= hi (encoded keys) in order.
  // Return false from `fn` to stop early.
  Status Scan(std::string_view lo, std::string_view hi,
              const std::function<bool(std::string_view, const Row&)>& fn, BlockCache* cache,
              Media* media) const;

  // Scrub entry: verifies the footer and every block's CRC32 without going
  // through the cache. `media`, when non-null, is charged one streaming read
  // of the whole extent. Returns the first corruption found.
  Status VerifyChecksums(Media* media) const;

  // Pre-populates `cache` with this table's at-rest blocks (no media charge).
  // Benchmarks use it to model the paper's multi-minute cache warmup without
  // spending wall-clock time; LRU eviction applies normally when the table
  // exceeds the cache. `serves_partition`, when set, filters blocks to those
  // whose first row belongs to a partition this node actually serves reads
  // for — warming a replica with blocks it never serves only pollutes LRU.
  void WarmInto(BlockCache* cache,
                const std::function<bool(std::string_view partition)>& serves_partition = {})
      const;

  // Puts each block whose key range [first, last] satisfies `want` (every
  // block when unset) into `cache`, without a media charge. The cache shares
  // the table's own immutable bytes, so a resident block costs no second
  // copy. Returns how many blocks were put; 0 for a null or 0-byte cache.
  size_t CacheBlocks(
      BlockCache* cache,
      const std::function<bool(std::string_view first, std::string_view last)>& want = {}) const;

  // Appends the [first, last] key range of every block of this table that
  // `cache` holds. Probes with BlockCache::Contains, so hit/miss counters and
  // LRU order are untouched. The views live as long as this table.
  void AppendResidentRanges(const BlockCache& cache,
                            std::vector<std::pair<std::string_view, std::string_view>>* out) const;

  uint64_t id() const { return id_; }
  size_t entry_count() const { return entry_count_; }
  size_t block_count() const { return blocks_.size(); }
  // Bytes at rest (what the block cache would hold if fully resident).
  size_t at_rest_bytes() const { return at_rest_bytes_; }
  std::string_view smallest_key() const { return smallest_; }
  std::string_view largest_key() const { return largest_; }
  bool MayContain(std::string_view encoded_key) const { return bloom_.MayContain(encoded_key); }

 private:
  friend class SstableBuilder;
  Sstable(uint64_t id, SstableOptions options, BloomFilter bloom);

  // Fetches block `idx` through the cache, charging media on miss, verifying
  // the block CRC, and returns the *raw* (decompressed) block bytes.
  Result<std::shared_ptr<const std::string>> FetchBlock(size_t idx, BlockCache* cache,
                                                        Media* media) const;

  // "table 't' sstable #4 block 7" — prefix for corruption messages.
  std::string BlockContext(size_t idx) const;

  // Index of the last block whose first key <= `encoded_key`, or -1.
  int FindBlock(std::string_view encoded_key) const;

  uint64_t id_;
  SstableOptions options_;
  BloomFilter bloom_;
  // At-rest form ("on media"), CRC-suffixed. Immutable once built, so the
  // block cache holds these same pointers instead of copies.
  std::vector<std::shared_ptr<const std::string>> blocks_;
  std::vector<std::string> block_first_key_;
  // In-memory index only (not in the footer): lets FloorKey answer from the
  // index and compaction match output blocks to hot input ranges.
  std::vector<std::string> block_last_key_;
  std::vector<uint32_t> block_crcs_;  // authoritative copy, mirrored in footer_
  std::string footer_;                // v2 checksummed footer (see FORMATS.md)
  size_t entry_count_ = 0;
  size_t at_rest_bytes_ = 0;
  std::string smallest_;
  std::string largest_;
};

// Decodes every (key, row) entry of a raw block in order.
Status ForEachBlockEntry(std::string_view raw_block,
                         const std::function<bool(std::string_view, const Row&)>& fn);

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_KVSTORE_SSTABLE_H_
