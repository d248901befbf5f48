#include "src/kvstore/sstable.h"

#include "src/common/coding.h"
#include "src/common/cpu_features.h"
#include "src/common/crc32c.h"
#include "src/compress/compressor.h"
#include "src/kvstore/corruption.h"
#include "src/kvstore/fault_injector.h"
#include "src/obs/metrics.h"

namespace minicrypt {

namespace {

// v2 block checksums use CRC32C with runtime SSE4.2/scalar dispatch
// (src/common/crc32c.h). Builder and reader live in this TU, so the
// polynomial choice is a private detail of the at-rest format.
uint32_t Crc32(std::string_view data) {
  RecordKernelDispatch(CurrentSimdLevel() >= SimdLevel::kSse42 ? SimdLevel::kSse42
                                                               : SimdLevel::kScalar);
  return Crc32c(data);
}

// Magic bytes of the v2 checksummed footer (docs/FORMATS.md).
constexpr std::string_view kFooterMagic = "MCS2";

// Tag byte in front of, and fixed32 CRC behind, every at-rest block body.
constexpr size_t kBlockFramingBytes = 1 + 4;

// Little-endian fixed32 from the first 4 bytes, 0 when too short.
uint32_t ReadFixed32(std::string_view bytes) {
  auto v = GetFixed32(&bytes);
  return v.ok() ? *v : 0;
}

// v2 at-rest framing: 1-byte tag (0 = raw, 1 = zlib) + payload + fixed32
// CRC32 over tag||payload. The CRC suffix is appended by the builder; these
// helpers frame/unframe the tag||payload body. Incompressible blocks stay raw.
// The body is reserved with room for the CRC, so the stored block (which the
// block cache pins) carries no spare capacity.
std::string CompressBlockBody(std::string_view raw, bool server_compression) {
  if (server_compression) {
    const Compressor* zlib = FindCompressor("zlib");
    auto compressed = zlib->Compress(raw);
    if (compressed.ok() && compressed->size() + 1 < raw.size()) {
      std::string out;
      out.reserve(compressed->size() + kBlockFramingBytes);
      out.push_back('\x01');
      out.append(*compressed);
      return out;
    }
  }
  std::string out;
  out.reserve(raw.size() + kBlockFramingBytes);
  out.push_back('\x00');
  out.append(raw);
  return out;
}

Result<std::string> DecompressBlockBody(std::string_view body, const std::string& context) {
  if (body.empty()) {
    return CorruptionDetected(context + ": empty at-rest block");
  }
  const char tag = body.front();
  body.remove_prefix(1);
  if (tag == '\x00') {
    return std::string(body);
  }
  if (tag == '\x01') {
    auto raw = FindCompressor("zlib")->Decompress(body);
    if (!raw.ok()) {
      return CorruptionDetected(context + ": at-rest block fails to decompress (" +
                                raw.status().message() + ")");
    }
    return raw;
  }
  return CorruptionDetected(context + ": unknown at-rest block tag " +
                            std::to_string(static_cast<int>(tag)));
}

}  // namespace

Status ForEachBlockEntry(std::string_view raw_block,
                         const std::function<bool(std::string_view, const Row&)>& fn) {
  std::string_view in = raw_block;
  while (!in.empty()) {
    MC_ASSIGN_OR_RETURN(std::string_view key, GetLengthPrefixed(&in));
    MC_ASSIGN_OR_RETURN(Row row, DecodeRow(&in));
    if (!fn(key, row)) {
      return Status::Ok();
    }
  }
  return Status::Ok();
}

SstableBuilder::SstableBuilder(uint64_t id, SstableOptions options)
    : id_(id), options_(std::move(options)) {}

void SstableBuilder::Add(std::string_view encoded_key, const Row& row) {
  if (pending_.empty()) {
    pending_first_key_ = std::string(encoded_key);
  }
  PutLengthPrefixed(&pending_, encoded_key);
  EncodeRow(row, &pending_);
  last_key_ = std::string(encoded_key);
  keys_for_bloom_.emplace_back(encoded_key);
  ++entry_count_;
  if (pending_.size() >= options_.block_bytes) {
    FlushBlock();
  }
}

void SstableBuilder::FlushBlock() {
  if (pending_.empty()) {
    return;
  }
  std::string body = CompressBlockBody(pending_, options_.server_compression);
  PutFixed32(&body, Crc32(body));  // v2: trailing block checksum
  blocks_.push_back(std::move(body));
  block_first_key_.push_back(pending_first_key_);
  block_last_key_.push_back(last_key_);
  pending_.clear();
  pending_first_key_.clear();
}

std::shared_ptr<Sstable> SstableBuilder::Finish(Media* media, FaultInjector* fault_injector) {
  FlushBlock();
  BloomFilter bloom(keys_for_bloom_.size(), options_.bloom_bits_per_key);
  for (const auto& k : keys_for_bloom_) {
    bloom.Add(k);
  }
  auto table = std::shared_ptr<Sstable>(new Sstable(id_, options_, std::move(bloom)));
  table->entry_count_ = entry_count_;

  // v2 footer: magic, counts, then every block's CRC + stored length + first
  // key, sealed under its own CRC. The footer's CRC copies are authoritative
  // for scrub: a bit-flip in a block disagrees with the footer even if it
  // happens to land in the block's own CRC suffix.
  std::string footer(kFooterMagic);
  PutVarint64(&footer, blocks_.size());
  PutVarint64(&footer, table->entry_count_);
  table->block_crcs_.reserve(blocks_.size());
  for (size_t i = 0; i < blocks_.size(); ++i) {
    const std::string& stored = blocks_[i];
    uint32_t crc = 0;
    if (stored.size() >= 4) {
      crc = ReadFixed32(std::string_view(stored.data() + stored.size() - 4, 4));
    }
    table->block_crcs_.push_back(crc);
    PutFixed32(&footer, crc);
    PutVarint64(&footer, stored.size());
    PutLengthPrefixed(&footer, block_first_key_[i]);
  }
  PutFixed32(&footer, Crc32(footer));
  table->footer_ = std::move(footer);

  // Media corruption injection: one draw per stored block, after all
  // checksums are computed, so every injected flip is detectable. Flips land
  // before the blocks become shared (and immutable).
  if (fault_injector != nullptr) {
    const std::string context =
        "table '" + options_.table + "' sstable #" + std::to_string(id_);
    for (auto& stored : blocks_) {
      uint64_t draw = 0;
      if (!stored.empty() &&
          fault_injector->Fire(FaultPoint::kMediaCorruption, context, &draw)) {
        const uint64_t bit = draw % (stored.size() * 8);
        stored[bit / 8] = static_cast<char>(stored[bit / 8] ^ (1u << (bit % 8)));
        OBS_COUNTER_INC("storage.corruption.injected");
      }
    }
  }

  table->blocks_.reserve(blocks_.size());
  for (auto& b : blocks_) {
    table->at_rest_bytes_ += b.size();
    table->blocks_.push_back(std::make_shared<const std::string>(std::move(b)));
  }
  blocks_.clear();
  table->at_rest_bytes_ += table->footer_.size();
  table->block_first_key_ = std::move(block_first_key_);
  table->block_last_key_ = std::move(block_last_key_);
  if (!table->block_first_key_.empty()) {
    table->smallest_ = table->block_first_key_.front();
    table->largest_ = last_key_;
  }
  if (media != nullptr && table->at_rest_bytes_ > 0) {
    media->Write(table->at_rest_bytes_, /*sequential=*/true);
  }
  return table;
}

Sstable::Sstable(uint64_t id, SstableOptions options, BloomFilter bloom)
    : id_(id), options_(std::move(options)), bloom_(std::move(bloom)) {}

std::string Sstable::BlockContext(size_t idx) const {
  return "table '" + options_.table + "' sstable #" + std::to_string(id_) + " block " +
         std::to_string(idx) + "/" + std::to_string(blocks_.size());
}

void Sstable::WarmInto(
    BlockCache* cache,
    const std::function<bool(std::string_view partition)>& serves_partition) const {
  if (!serves_partition) {
    CacheBlocks(cache);
    return;
  }
  CacheBlocks(cache, [&](std::string_view first, std::string_view /*last*/) {
    auto decoded = DecodeRowKey(first);
    return decoded.ok() && serves_partition(decoded->partition);
  });
}

size_t Sstable::CacheBlocks(
    BlockCache* cache,
    const std::function<bool(std::string_view first, std::string_view last)>& want) const {
  if (cache == nullptr || cache->capacity_bytes() == 0) {
    return 0;
  }
  size_t put = 0;
  for (size_t idx = 0; idx < blocks_.size(); ++idx) {
    if (want && !want(block_first_key_[idx], block_last_key_[idx])) {
      continue;
    }
    cache->Put(id_, idx, blocks_[idx]);
    ++put;
  }
  return put;
}

void Sstable::AppendResidentRanges(
    const BlockCache& cache,
    std::vector<std::pair<std::string_view, std::string_view>>* out) const {
  for (size_t idx = 0; idx < blocks_.size(); ++idx) {
    if (cache.Contains(id_, idx)) {
      out->emplace_back(block_first_key_[idx], block_last_key_[idx]);
    }
  }
}

Result<std::shared_ptr<const std::string>> Sstable::FetchBlock(size_t idx, BlockCache* cache,
                                                               Media* media) const {
  std::shared_ptr<const std::string> at_rest;
  if (cache != nullptr) {
    auto hit = cache->Get(id_, idx);
    if (hit.has_value()) {
      at_rest = *hit;
    }
  }
  if (at_rest == nullptr) {
    // Media holds the at-rest form; decompress/verify per access.
    if (media != nullptr) {
      media->Read(blocks_[idx]->size());
    }
    at_rest = blocks_[idx];
    if (cache != nullptr) {
      cache->Put(id_, idx, at_rest);
    }
  }
  // v2 framing: tag || payload || fixed32 crc. Verify on every fetch — cached
  // copies included — so a flipped bit can never decode into plausible rows.
  if (at_rest->size() < 5) {
    return CorruptionDetected(BlockContext(idx) + ": at-rest block truncated (" +
                              std::to_string(at_rest->size()) + " bytes)");
  }
  std::string_view body(at_rest->data(), at_rest->size() - 4);
  if (options_.verify_checksums) {
    const uint32_t stored_crc =
        ReadFixed32(std::string_view(at_rest->data() + at_rest->size() - 4, 4));
    const uint32_t actual_crc = Crc32(body);
    if (actual_crc != stored_crc ||
        (idx < block_crcs_.size() && stored_crc != block_crcs_[idx])) {
      OBS_COUNTER_INC("storage.corruption.block_crc_mismatches");
      return CorruptionDetected(BlockContext(idx) + ": block checksum mismatch (stored " +
                                std::to_string(stored_crc) + ", computed " +
                                std::to_string(actual_crc) + ")");
    }
  }
  MC_ASSIGN_OR_RETURN(std::string raw, DecompressBlockBody(body, BlockContext(idx)));
  return std::make_shared<const std::string>(std::move(raw));
}

Status Sstable::VerifyChecksums(Media* media) const {
  if (media != nullptr && at_rest_bytes_ > 0) {
    media->Read(at_rest_bytes_);  // one streaming read of the whole extent
  }
  // Footer first: magic + its own CRC + counts must line up.
  if (footer_.size() < kFooterMagic.size() + 4 ||
      std::string_view(footer_).substr(0, kFooterMagic.size()) != kFooterMagic) {
    return CorruptionDetected("table '" + options_.table + "' sstable #" + std::to_string(id_) +
                              ": footer magic missing");
  }
  std::string_view body(footer_.data(), footer_.size() - 4);
  if (Crc32(body) != ReadFixed32(std::string_view(footer_.data() + footer_.size() - 4, 4))) {
    return CorruptionDetected("table '" + options_.table + "' sstable #" + std::to_string(id_) +
                              ": footer checksum mismatch");
  }
  std::string_view in = body.substr(kFooterMagic.size());
  auto block_count = GetVarint64(&in);
  auto entries = GetVarint64(&in);
  if (!block_count.ok() || !entries.ok() || *block_count != blocks_.size() ||
      *entries != entry_count_) {
    return CorruptionDetected("table '" + options_.table + "' sstable #" + std::to_string(id_) +
                              ": footer block/entry counts disagree with the table");
  }
  for (size_t idx = 0; idx < blocks_.size(); ++idx) {
    auto footer_crc = GetFixed32(&in);
    auto stored_len = GetVarint64(&in);
    auto first_key = GetLengthPrefixed(&in);
    if (!footer_crc.ok() || !stored_len.ok() || !first_key.ok()) {
      return CorruptionDetected("table '" + options_.table + "' sstable #" +
                                std::to_string(id_) + ": footer entry " + std::to_string(idx) +
                                " truncated");
    }
    const std::string& stored = *blocks_[idx];
    if (*stored_len != stored.size() || stored.size() < 5) {
      return CorruptionDetected(BlockContext(idx) + ": stored size " +
                                std::to_string(stored.size()) + " != footer size " +
                                std::to_string(*stored_len));
    }
    std::string_view block_body(stored.data(), stored.size() - 4);
    const uint32_t block_crc =
        ReadFixed32(std::string_view(stored.data() + stored.size() - 4, 4));
    if (Crc32(block_body) != block_crc || block_crc != *footer_crc) {
      OBS_COUNTER_INC("storage.corruption.block_crc_mismatches");
      return CorruptionDetected(BlockContext(idx) + ": block checksum mismatch during scrub");
    }
  }
  return Status::Ok();
}

int Sstable::FindBlock(std::string_view encoded_key) const {
  // Last block whose first key <= encoded_key (binary search).
  int lo = 0;
  int hi = static_cast<int>(block_first_key_.size()) - 1;
  int ans = -1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (block_first_key_[static_cast<size_t>(mid)] <= encoded_key) {
      ans = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return ans;
}

Result<std::optional<Row>> Sstable::Get(std::string_view encoded_key, BlockCache* cache,
                                        Media* media) const {
  if (blocks_.empty() || !bloom_.MayContain(encoded_key)) {
    return std::optional<Row>();
  }
  const int b = FindBlock(encoded_key);
  if (b < 0) {
    return std::optional<Row>();
  }
  MC_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> block,
                      FetchBlock(static_cast<size_t>(b), cache, media));
  std::optional<Row> found;
  MC_RETURN_IF_ERROR(ForEachBlockEntry(*block, [&](std::string_view key, const Row& row) {
    if (key == encoded_key) {
      found = row;
      return false;
    }
    return key < encoded_key;  // keep scanning while below
  }));
  return found;
}

Result<std::optional<std::string>> Sstable::FloorKey(std::string_view prefix,
                                                     std::string_view encoded_key,
                                                     BlockCache* cache, Media* media) const {
  if (blocks_.empty() || smallest_ > encoded_key) {
    return std::optional<std::string>();
  }
  const int b = FindBlock(encoded_key);
  if (b < 0) {
    return std::optional<std::string>();
  }
  // Block b's first key is <= target, so the table's floor is in block b.
  // When the whole block is <= target the floor is its last key and the
  // index answers without a fetch; the caller's row read verifies the block.
  const auto idx = static_cast<size_t>(b);
  std::string best;
  if (block_last_key_[idx] <= encoded_key) {
    best = block_last_key_[idx];
  } else {
    MC_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> block,
                        FetchBlock(idx, cache, media));
    MC_RETURN_IF_ERROR(ForEachBlockEntry(*block, [&](std::string_view key, const Row& row) {
      if (key > encoded_key) {
        return false;
      }
      best = std::string(key);
      return true;
    }));
  }
  if (best.size() >= prefix.size() &&
      std::string_view(best).substr(0, prefix.size()) == prefix) {
    return std::optional<std::string>(std::move(best));
  }
  // The floor belongs to an earlier partition: no key of this partition is
  // <= target in this table.
  return std::optional<std::string>();
}

Status Sstable::Scan(std::string_view lo, std::string_view hi,
                     const std::function<bool(std::string_view, const Row&)>& fn,
                     BlockCache* cache, Media* media) const {
  if (blocks_.empty() || hi < smallest_ || lo > largest_) {
    return Status::Ok();
  }
  int b = FindBlock(lo);
  if (b < 0) {
    b = 0;
  }
  for (size_t idx = static_cast<size_t>(b); idx < blocks_.size(); ++idx) {
    if (block_first_key_[idx] > hi) {
      break;
    }
    MC_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> block,
                        FetchBlock(idx, cache, media));
    bool keep_going = true;
    MC_RETURN_IF_ERROR(ForEachBlockEntry(*block, [&](std::string_view key, const Row& row) {
      if (key > hi) {
        keep_going = false;
        return false;
      }
      if (key >= lo) {
        if (!fn(key, row)) {
          keep_going = false;
          return false;
        }
      }
      return true;
    }));
    if (!keep_going) {
      break;
    }
  }
  return Status::Ok();
}

}  // namespace minicrypt
