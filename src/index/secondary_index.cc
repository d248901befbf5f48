#include "src/index/secondary_index.h"

#include <algorithm>
#include <set>

#include "src/common/coding.h"
#include "src/core/pack_row.h"
#include "src/obs/metrics.h"

namespace minicrypt {

namespace {

// The manifest pack holds a single entry under this key.
constexpr std::string_view kManifestEntryKey = "m";

// An index entry's pack key: attr (big-endian) || pk (big-endian). Unique per
// (attr, pk), and lexicographic order == (attr, pk) order, so in-range slices
// of a sorted leaf are contiguous.
std::string EntryKey(uint64_t attr, uint64_t pk) {
  std::string out = EncodeKey64(attr);
  AppendKey64(&out, pk);
  return out;
}

Result<std::pair<uint64_t, uint64_t>> DecodeEntryKey(std::string_view key) {
  if (key.size() != 16) {
    return Status::Corruption("index entry key is not attr||pk");
  }
  MC_ASSIGN_OR_RETURN(uint64_t attr, DecodeKey64(key.substr(0, 8)));
  MC_ASSIGN_OR_RETURN(uint64_t pk, DecodeKey64(key.substr(8, 8)));
  return std::make_pair(attr, pk);
}

std::string SegmentRowKey(uint64_t seq) {
  std::string out(kIndexSegmentPrefix);
  AppendKey64(&out, seq);
  return out;
}

// Largest string of the same length strictly below `s`; nullopt when `s` is
// the all-zero minimum.
std::optional<std::string> PredecessorKey(std::string s) {
  for (size_t i = s.size(); i-- > 0;) {
    if (s[i] != '\0') {
      s[i] = static_cast<char>(static_cast<uint8_t>(s[i]) - 1);
      std::fill(s.begin() + static_cast<long>(i) + 1, s.end(), '\xff');
      return s;
    }
  }
  return std::nullopt;
}

// Collects the pks of `pack`'s entries whose attr lies in [lo, hi].
Status CollectInRange(const Pack& pack, uint64_t lo, uint64_t hi, std::set<uint64_t>* pks) {
  for (const auto& entry : pack.entries()) {
    MC_ASSIGN_OR_RETURN(auto decoded, DecodeEntryKey(entry.key));
    if (decoded.first >= lo && decoded.first <= hi) {
      pks->insert(decoded.second);
    }
  }
  return Status::Ok();
}

}  // namespace

std::string_view IndexLeakageName(IndexLeakage leakage) {
  switch (leakage) {
    case IndexLeakage::kNoOrder:
      return "no_order";
    case IndexLeakage::kQueriedOrder:
      return "queried_order";
    case IndexLeakage::kTotalOrder:
      return "total_order";
  }
  return "unknown";
}

SecondaryIndex::SecondaryIndex(Cluster* cluster, const MiniCryptOptions& options,
                               const SymmetricKey& key, SecondaryIndexOptions iopts)
    : cluster_(cluster),
      options_(options),
      iopts_(std::move(iopts)),
      table_(options.table + ".idx." + iopts_.name),
      crypter_(options, key.Derive("index-pack:" + iopts_.name)),
      ope_(key.Derive("index-ope:" + iopts_.name)),
      backoff_(options.retry_backoff_base_micros, options.retry_backoff_max_micros,
               options.retry_jitter_seed != 0 ? options.retry_jitter_seed ^ 0x1D0ull
                                              : 0x5EC1D0ull) {
  options_.table = table_;
}

Status SecondaryIndex::CreateBacking() {
  return cluster_->CreateTable(table_, /*server_compression=*/false);
}

void SecondaryIndex::BackoffBeforeRetry(int attempt) {
  uint64_t delay = 0;
  {
    std::lock_guard<std::mutex> lock(backoff_mu_);
    delay = backoff_.NextDelayMicros(attempt);
  }
  if (delay > 0) {
    cluster_->options().clock->SleepMicros(delay);
  }
}

int SecondaryIndex::MaxRetries() const {
  return iopts_.max_retries != 0 ? iopts_.max_retries : options_.max_put_retries;
}

size_t SecondaryIndex::LeafRows() const {
  return iopts_.leaf_rows != 0 ? iopts_.leaf_rows : options_.pack_rows;
}

size_t SecondaryIndex::BufferSealRows() const {
  return iopts_.buffer_seal_rows != 0 ? iopts_.buffer_seal_rows : (LeafRows() * 3 + 1) / 2;
}

void SecondaryIndex::PublishSortedRegions(size_t regions) {
  OBS_GAUGE_SET("index.sorted_regions", static_cast<double>(regions));
}

bool SecondaryIndex::InjectedFault(FaultPoint point, FailPoint step, std::string_view context) {
  if (fail_point_.load(std::memory_order_relaxed) == step) {
    return true;
  }
  FaultInjector* injector = cluster_->options().fault_injector;
  return injector != nullptr && injector->Fire(point, context);
}

// --- Row plumbing --------------------------------------------------------------

Result<SecondaryIndex::IndexRow> SecondaryIndex::ReadIndexRow(std::string_view partition,
                                                              std::string_view row_key) {
  Result<Row> row = Status::Unavailable("index read never attempted");
  for (int attempt = 0; attempt < MaxRetries(); ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
    }
    row = cluster_->Read(table_, partition, row_key);
    if (row.ok() || !row.status().IsUnavailable()) {
      break;
    }
  }
  if (!row.ok()) {
    return row.status();
  }
  MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(*row));
  MC_ASSIGN_OR_RETURN(Pack pack, crypter_.Open(cells.first));
  IndexRow out;
  out.row_key = std::string(row_key);
  out.pack = std::move(pack);
  out.hash = std::string(cells.second);
  return out;
}

Result<std::vector<SecondaryIndex::IndexRow>> SecondaryIndex::ReadSegments() {
  const std::string lo(kIndexSegmentPrefix);
  const std::string hi = lo + std::string(8, '\xff');
  Result<std::vector<std::pair<std::string, Row>>> rows =
      Status::Unavailable("segment scan never attempted");
  for (int attempt = 0; attempt < MaxRetries(); ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
    }
    rows = cluster_->ReadRange(table_, kIndexBufferPartition, lo, hi);
    if (rows.ok() || !rows.status().IsUnavailable()) {
      break;
    }
  }
  if (!rows.ok()) {
    return rows.status();
  }
  std::vector<IndexRow> out;
  out.reserve(rows->size());
  for (auto& [id, row] : *rows) {
    MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(row));
    MC_ASSIGN_OR_RETURN(Pack pack, crypter_.Open(cells.first));
    IndexRow seg;
    seg.row_key = id;
    seg.pack = std::move(pack);
    seg.hash = std::string(cells.second);
    out.push_back(std::move(seg));
  }
  return out;
}

Status SecondaryIndex::WriteIndexPack(std::string_view partition, std::string_view row_key,
                                      const Pack& pack, std::string_view expected_hash) {
  MC_ASSIGN_OR_RETURN(SealedPack sealed, crypter_.Seal(pack));
  const std::string serialized = pack.Serialize();
  Status s = Status::Unavailable("index write never attempted");
  for (int attempt = 0; attempt < MaxRetries(); ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
    }
    s = expected_hash.empty()
            ? cluster_->WriteIf(table_, partition, row_key, PackRow(sealed),
                                LwtCondition::NotExists())
            : cluster_->WriteIf(table_, partition, row_key, PackRow(sealed),
                                LwtCondition::CellEquals(std::string(kHashColumn),
                                                         std::string(expected_hash)));
    if (s.ok() || s.IsConditionFailed() || s.IsAlreadyExists()) {
      return s;
    }
    if (!s.IsUnavailable()) {
      return s;
    }
    // Ambiguous LWT outcome: re-read and verify by content (sealing is
    // randomized, so envelope bytes never match across attempts; the
    // serialized plaintext does).
    auto current = cluster_->Read(table_, partition, row_key);
    if (current.ok()) {
      auto cells = ExtractPackCells(*current);
      if (!cells.ok()) {
        return cells.status();
      }
      if (cells->second == sealed.hash) {
        return Status::Ok();  // our exact envelope landed
      }
      auto stored = crypter_.Open(cells->first);
      if (!stored.ok()) {
        return stored.status();
      }
      if (stored->Serialize() == serialized) {
        return Status::Ok();  // identical content (ours, or a peer's equal write)
      }
      // Different content is stored: behave like a lost LWT race so the
      // caller re-reads and reconciles.
      return Status::ConditionFailed("index pack moved under ambiguous write");
    }
    if (!current.status().IsNotFound() && !current.status().IsUnavailable()) {
      return current.status();
    }
    // NotFound (insert did not land) or still unavailable: loop and retry.
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNTER_INC("index.retries");
  }
  return s;
}

// --- Manifest -------------------------------------------------------------------

std::string SecondaryIndex::SerializeManifest(const Manifest& m) {
  std::string out;
  PutVarint64(&out, m.regions.size());
  for (const Region& r : m.regions) {
    PutFixed64(&out, r.lo);
    PutFixed64(&out, r.hi);
    PutVarint64(&out, r.leaf_mins.size());
    for (uint64_t min : r.leaf_mins) {
      PutFixed64(&out, min);
    }
  }
  return out;
}

Result<SecondaryIndex::Manifest> SecondaryIndex::ParseManifest(std::string_view bytes) {
  Manifest m;
  MC_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&bytes));
  m.regions.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Region r;
    MC_ASSIGN_OR_RETURN(r.lo, GetFixed64(&bytes));
    MC_ASSIGN_OR_RETURN(r.hi, GetFixed64(&bytes));
    MC_ASSIGN_OR_RETURN(uint64_t leaves, GetVarint64(&bytes));
    r.leaf_mins.reserve(leaves);
    for (uint64_t j = 0; j < leaves; ++j) {
      MC_ASSIGN_OR_RETURN(uint64_t min, GetFixed64(&bytes));
      r.leaf_mins.push_back(min);
    }
    m.regions.push_back(std::move(r));
  }
  if (!bytes.empty()) {
    return Status::Corruption("trailing bytes after index manifest");
  }
  return m;
}

Result<std::pair<SecondaryIndex::Manifest, std::string>> SecondaryIndex::ReadManifest() {
  auto row = ReadIndexRow(kIndexRootPartition, kIndexRootRow);
  if (!row.ok()) {
    if (row.status().IsNotFound()) {
      return std::make_pair(Manifest{}, std::string());
    }
    return row.status();
  }
  auto value = row->pack.Find(kManifestEntryKey);
  if (!value.has_value()) {
    return Status::Corruption("index root pack missing manifest entry");
  }
  MC_ASSIGN_OR_RETURN(Manifest m, ParseManifest(*value));
  return std::make_pair(std::move(m), row->hash);
}

Status SecondaryIndex::WriteManifest(const Manifest& m, std::string_view expected_hash) {
  Pack pack;
  pack.Upsert(kManifestEntryKey, SerializeManifest(m));
  return WriteIndexPack(kIndexRootPartition, kIndexRootRow, pack, expected_hash);
}

// --- Insert paths ---------------------------------------------------------------

Status SecondaryIndex::Add(uint64_t attr, uint64_t pk) {
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNTER_INC("index.inserts");
  const std::string entry_key = EntryKey(attr, pk);
  if (iopts_.leakage == IndexLeakage::kTotalOrder) {
    return AddTotalOrder(attr, entry_key);
  }
  return AddToBuffer(entry_key);
}

Status SecondaryIndex::AddToBuffer(const std::string& entry_key) {
  for (int attempt = 0; attempt < MaxRetries(); ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
      stats_.retries.fetch_add(1, std::memory_order_relaxed);
      OBS_COUNTER_INC("index.retries");
    }
    auto buf = ReadIndexRow(kIndexBufferPartition, kIndexBufferRow);
    if (!buf.ok() && !buf.status().IsNotFound()) {
      return buf.status();
    }
    Pack pack = buf.ok() ? std::move(buf->pack) : Pack();
    const std::string hash = buf.ok() ? buf->hash : "";
    if (pack.Find(entry_key).has_value()) {
      return Status::Ok();  // already durable (an earlier ambiguous attempt landed)
    }
    pack.Upsert(entry_key, "");
    const Status s = WriteIndexPack(kIndexBufferPartition, kIndexBufferRow, pack, hash);
    if (s.ok()) {
      if (pack.size() >= BufferSealRows()) {
        // Best-effort seal; the entry is durable either way, and a failed or
        // skipped seal just leaves a fuller buffer for the next writer.
        (void)SealBufferSegment();
      }
      return Status::Ok();
    }
    if (s.IsConditionFailed() || s.IsAlreadyExists()) {
      continue;  // lost the RMW race (or a seal truncated the buffer): re-read
    }
    return s;
  }
  return Status::Aborted("index add exceeded retry budget under contention (" + table_ + ")");
}

Status SecondaryIndex::SealBufferSegment() {
  auto buf = ReadIndexRow(kIndexBufferPartition, kIndexBufferRow);
  if (!buf.ok()) {
    return buf.status().IsNotFound() ? Status::Ok() : buf.status();
  }
  if (buf->pack.size() < BufferSealRows()) {
    return Status::Ok();  // a peer sealed it first
  }
  MC_ASSIGN_OR_RETURN(auto segments, ReadSegments());
  // Concurrency on the same seq converges by unioning: INSERT IF NOT EXISTS
  // races to create it; losers merge their buffer snapshot in.
  const uint64_t seq = segments.size();
  const std::string seg_key = SegmentRowKey(seq);
  Status s = WriteIndexPack(kIndexBufferPartition, seg_key, buf->pack, "");
  for (int attempt = 0; attempt < MaxRetries() && (s.IsConditionFailed() || s.IsAlreadyExists());
       ++attempt) {
    auto existing = ReadIndexRow(kIndexBufferPartition, seg_key);
    if (!existing.ok()) {
      if (existing.status().IsNotFound()) {
        s = WriteIndexPack(kIndexBufferPartition, seg_key, buf->pack, "");
        continue;
      }
      return existing.status();
    }
    Pack merged = existing->pack;
    bool changed = false;
    for (const auto& entry : buf->pack.entries()) {
      changed |= merged.Upsert(entry.key, entry.value);
    }
    if (!changed) {
      s = Status::Ok();  // segment already holds everything we sealed
      break;
    }
    s = WriteIndexPack(kIndexBufferPartition, seg_key, merged, existing->hash);
  }
  if (!s.ok()) {
    return s;
  }
  stats_.buffer_seals.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNTER_INC("index.buffer_seals");
  if (InjectedFault(FaultPoint::kIndexPersist, FailPoint::kAfterSegmentWrite,
                    "seal:" + table_)) {
    // The segment is durable; the buffer keeps a duplicate copy of its
    // entries. Queries tolerate duplicates, and the next overflow re-seals.
    return Status::Ok();
  }
  // Truncate the buffer, conditioned on the image we sealed — entries added
  // concurrently move the hash and the truncation cleanly loses.
  const Status ts =
      WriteIndexPack(kIndexBufferPartition, kIndexBufferRow, Pack(), buf->hash);
  if (ts.IsConditionFailed() || ts.IsAlreadyExists()) {
    return Status::Ok();
  }
  return ts;
}

Status SecondaryIndex::AddTotalOrder(uint64_t attr, const std::string& entry_key) {
  const std::string label = ope_.Encrypt(attr);
  for (int attempt = 0; attempt < MaxRetries(); ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
      stats_.retries.fetch_add(1, std::memory_order_relaxed);
      OBS_COUNTER_INC("index.retries");
    }
    auto floor = cluster_->ReadFloor(table_, kIndexLeafPartition, label);
    if (!floor.ok()) {
      if (floor.status().IsUnavailable()) {
        continue;
      }
      if (!floor.status().IsNotFound()) {
        return floor.status();
      }
      // No leaf at or below this attr: create one labeled with its OPE image
      // (exactly how the primary table plants a new pack).
      Pack fresh;
      fresh.Upsert(entry_key, "");
      const Status s = WriteIndexPack(kIndexLeafPartition, label, fresh, "");
      if (s.ok()) {
        return Status::Ok();
      }
      if (s.IsConditionFailed() || s.IsAlreadyExists()) {
        continue;  // a peer planted it first; re-route through the floor
      }
      return s;
    }
    MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(floor->second));
    MC_ASSIGN_OR_RETURN(Pack pack, crypter_.Open(cells.first));
    IndexRow leaf;
    leaf.row_key = floor->first;
    leaf.hash = std::string(cells.second);
    if (pack.size() > (LeafRows() * 3 + 1) / 2 &&
        pack.entries().front().key.compare(0, 8, pack.entries().back().key, 0, 8) != 0) {
      // Oversized and spanning more than one attribute: split at an attr
      // boundary. A single-attribute run is indivisible under attr-labeled
      // routing (a second leaf would need this leaf's own label) and simply
      // grows past the threshold.
      leaf.pack = std::move(pack);
      MC_RETURN_IF_ERROR(SplitLeaf(leaf));
      continue;  // re-route: the entry may now belong to the right half
    }
    if (pack.Find(entry_key).has_value()) {
      return Status::Ok();
    }
    pack.Upsert(entry_key, "");
    const Status s = WriteIndexPack(kIndexLeafPartition, leaf.row_key, pack, leaf.hash);
    if (s.ok()) {
      return Status::Ok();
    }
    if (s.IsConditionFailed() || s.IsAlreadyExists()) {
      continue;
    }
    return s;
  }
  return Status::Aborted("total-order index add exceeded retry budget (" + table_ + ")");
}

Status SecondaryIndex::SplitLeaf(const IndexRow& leaf) {
  stats_.leaf_splits.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNTER_INC("index.leaf_splits");
  // The cut must land on an attribute boundary: a count-based midpoint can
  // fall inside a run of equal attrs, making the right half's label equal to
  // an existing leaf's — in the worst case this leaf's own, turning the
  // split into a self-overwrite that discards the right half. Deterministic
  // given the pack's content: the first boundary at or after the midpoint,
  // else the last one before it.
  const auto& entries = leaf.pack.entries();
  const size_t mid = entries.size() / 2;
  size_t cut = 0;
  for (size_t j = mid; j < entries.size(); ++j) {
    if (entries[j].key.compare(0, 8, entries[j - 1].key, 0, 8) != 0) {
      cut = j;
      break;
    }
  }
  if (cut == 0) {
    for (size_t j = mid; j-- > 1;) {
      if (entries[j].key.compare(0, 8, entries[j - 1].key, 0, 8) != 0) {
        cut = j;
        break;
      }
    }
  }
  if (cut == 0) {
    return Status::Internal("split requested on a single-attribute leaf");
  }
  std::vector<Pack::Entry> left_entries;
  std::vector<Pack::Entry> right_entries;
  left_entries.reserve(cut);
  right_entries.reserve(entries.size() - cut);
  for (size_t j = 0; j < entries.size(); ++j) {
    (j < cut ? left_entries : right_entries)
        .push_back(Pack::Entry{std::string(entries[j].key), std::string(entries[j].value)});
  }
  MC_ASSIGN_OR_RETURN(Pack left, Pack::FromSorted(std::move(left_entries)));
  MC_ASSIGN_OR_RETURN(Pack right, Pack::FromSorted(std::move(right_entries)));
  MC_ASSIGN_OR_RETURN(auto decoded, DecodeEntryKey(*right.MinKey()));
  const std::string right_label = ope_.Encrypt(decoded.first);
  // Step 1: land the right half. The label may already exist — a peer racing
  // the same deterministic split (identical bytes), or an earlier split whose
  // right half started at the same attribute (a cut inside a run of equal
  // attrs; different bytes). Unioning converges both: the left truncation
  // below must never run unless every right-half entry is durable somewhere.
  MC_RETURN_IF_ERROR(WriteLeafUnioning(right_label, right));
  if (InjectedFault(FaultPoint::kIndexSplit, FailPoint::kAfterRightInsert,
                    "leaf-split:" + table_)) {
    // Crash between insert and truncate: the right half exists twice. Both
    // copies hold identical (attr, pk) entries, so queries merely see
    // duplicate candidates; the next Add routed here finishes the job.
    return Status::Aborted("injected index split failure");
  }
  // Step 2: truncate the left leaf under its pre-split hash. ConditionFailed
  // means a peer (or our own ambiguously-applied attempt) already did.
  const Status ls = WriteIndexPack(kIndexLeafPartition, leaf.row_key, left, leaf.hash);
  if (ls.IsConditionFailed() || ls.IsAlreadyExists()) {
    return Status::Ok();
  }
  return ls;
}

Status SecondaryIndex::WriteLeafUnioning(const std::string& label, const Pack& pack) {
  Status s = WriteIndexPack(kIndexLeafPartition, label, pack, "");
  for (int attempt = 0; attempt < MaxRetries() && (s.IsConditionFailed() || s.IsAlreadyExists());
       ++attempt) {
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNTER_INC("index.retries");
    auto existing = ReadIndexRow(kIndexLeafPartition, label);
    if (!existing.ok()) {
      if (existing.status().IsNotFound()) {
        s = WriteIndexPack(kIndexLeafPartition, label, pack, "");
        continue;
      }
      return existing.status();
    }
    Pack unioned = existing->pack;
    bool changed = false;
    for (const auto& entry : pack.entries()) {
      changed |= unioned.Upsert(entry.key, entry.value);
    }
    if (!changed) {
      return Status::Ok();  // the stored leaf already holds all our entries
    }
    s = WriteIndexPack(kIndexLeafPartition, label, unioned, existing->hash);
  }
  return s;
}

// --- Bulk load ------------------------------------------------------------------

Status SecondaryIndex::BulkAdd(std::vector<std::pair<uint64_t, uint64_t>> attr_pk) {
  std::vector<Pack::Entry> entries;
  entries.reserve(attr_pk.size());
  for (const auto& [attr, pk] : attr_pk) {
    entries.push_back(Pack::Entry{EntryKey(attr, pk), ""});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Pack::Entry& a, const Pack::Entry& b) { return a.key < b.key; });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Pack::Entry& a, const Pack::Entry& b) {
                              return a.key == b.key;
                            }),
                entries.end());
  stats_.inserts.fetch_add(entries.size(), std::memory_order_relaxed);
  OBS_COUNTER_ADD("index.inserts", entries.size());
  const bool sorted_leaves = iopts_.leakage == IndexLeakage::kTotalOrder;
  const size_t chunk_rows = sorted_leaves ? LeafRows() : BufferSealRows();
  size_t i = 0;
  uint64_t seq = 0;
  while (i < entries.size()) {
    size_t take = std::min(chunk_rows, entries.size() - i);
    if (sorted_leaves) {
      // Never let the next leaf start with the attr this leaf started with:
      // both would be labeled OPE(attr) and the later write would replace the
      // earlier one. Extend through the run instead — the oversized leaf
      // splits on the next Add routed to it.
      while (i + take < entries.size() &&
             entries[i + take].key.compare(0, 8, entries[i].key, 0, 8) == 0) {
        ++take;
      }
    }
    std::vector<Pack::Entry> chunk(entries.begin() + static_cast<long>(i),
                                   entries.begin() + static_cast<long>(i + take));
    i += take;
    MC_ASSIGN_OR_RETURN(Pack pack, Pack::FromSorted(std::move(chunk)));
    MC_ASSIGN_OR_RETURN(SealedPack sealed, crypter_.Seal(pack));
    std::string row_key;
    if (sorted_leaves) {
      MC_ASSIGN_OR_RETURN(auto decoded, DecodeEntryKey(*pack.MinKey()));
      row_key = ope_.Encrypt(decoded.first);
    } else {
      row_key = SegmentRowKey(seq++);
    }
    MC_RETURN_IF_ERROR(cluster_->Write(
        table_, sorted_leaves ? kIndexLeafPartition : kIndexBufferPartition, row_key,
        PackRow(sealed)));
  }
  return Status::Ok();
}

// --- Query paths ----------------------------------------------------------------

Result<std::vector<uint64_t>> SecondaryIndex::LookupRange(uint64_t lo, uint64_t hi) {
  if (lo > hi) {
    return Status::InvalidArgument("index range low > high");
  }
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNTER_INC("index.lookups");
  OBS_SPAN("index.lookup");
  switch (iopts_.leakage) {
    case IndexLeakage::kNoOrder:
      return ScanCandidates(lo, hi);
    case IndexLeakage::kTotalOrder:
      return LookupTotalOrder(lo, hi);
    case IndexLeakage::kQueriedOrder:
      break;
  }
  std::vector<uint64_t> pks;
  const Status s = DrainForQuery(lo, hi, &pks);
  if (s.ok()) {
    return pks;
  }
  if (!s.IsAborted() && !s.IsUnavailable() && !s.IsConditionFailed()) {
    return s;
  }
  // The drain lost every race or tripped an injected fault. The unsorted
  // scan is always correct (and leaks nothing new); the next query retries
  // the drain.
  OBS_COUNTER_INC("index.drain_fallbacks");
  return ScanCandidates(lo, hi);
}

Status SecondaryIndex::DrainForQuery(uint64_t lo, uint64_t hi, std::vector<uint64_t>* pks) {
  for (int attempt = 0; attempt < MaxRetries(); ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
    }
    MC_ASSIGN_OR_RETURN(auto manifest_and_hash, ReadManifest());
    const Manifest& manifest = manifest_and_hash.first;
    const std::string& manifest_hash = manifest_and_hash.second;

    // POPE region merge: the new region spans the query and every existing
    // region it overlaps; disjoint regions are untouched (their order was
    // leaked by earlier queries, not this one).
    uint64_t nlo = lo;
    uint64_t nhi = hi;
    std::vector<Region> untouched;
    std::vector<uint64_t> absorbed_leaf_mins;
    bool grew = true;
    std::vector<Region> pending(manifest.regions);
    while (grew) {
      grew = false;
      std::vector<Region> next;
      for (Region& r : pending) {
        if (r.lo <= nhi && r.hi >= nlo) {
          nlo = std::min(nlo, r.lo);
          nhi = std::max(nhi, r.hi);
          absorbed_leaf_mins.insert(absorbed_leaf_mins.end(), r.leaf_mins.begin(),
                                    r.leaf_mins.end());
          grew = true;
        } else {
          next.push_back(std::move(r));
        }
      }
      pending = std::move(next);
    }
    untouched = std::move(pending);

    // Gather the buffered entries of [nlo, nhi] (and remember each source row
    // for post-commit truncation).
    std::vector<IndexRow> sources;
    auto buf = ReadIndexRow(kIndexBufferPartition, kIndexBufferRow);
    if (buf.ok()) {
      sources.push_back(std::move(*buf));
    } else if (!buf.status().IsNotFound()) {
      return buf.status();
    }
    MC_ASSIGN_OR_RETURN(auto segments, ReadSegments());
    for (IndexRow& seg : segments) {
      sources.push_back(std::move(seg));
    }

    std::vector<Pack::Entry> drained;  // buffered entries moving into leaves
    for (const IndexRow& src : sources) {
      for (const auto& entry : src.pack.entries()) {
        MC_ASSIGN_OR_RETURN(auto decoded, DecodeEntryKey(entry.key));
        if (decoded.first >= nlo && decoded.first <= nhi) {
          drained.push_back(Pack::Entry{std::string(entry.key), std::string(entry.value)});
        }
      }
    }

    // Entries already materialized in the absorbed regions' leaves.
    std::vector<Pack::Entry> merged(std::move(drained));
    const size_t drained_count = merged.size();
    for (uint64_t leaf_min : absorbed_leaf_mins) {
      auto leaf = ReadIndexRow(kIndexLeafPartition, ope_.Encrypt(leaf_min));
      if (!leaf.ok()) {
        if (leaf.status().IsNotFound()) {
          continue;  // a crashed prior drain referenced it before writing? superset-safe
        }
        return leaf.status();
      }
      for (const auto& entry : leaf->pack.entries()) {
        merged.push_back(Pack::Entry{std::string(entry.key), std::string(entry.value)});
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const Pack::Entry& a, const Pack::Entry& b) { return a.key < b.key; });
    merged.erase(std::unique(merged.begin(), merged.end(),
                             [](const Pack::Entry& a, const Pack::Entry& b) {
                               return a.key == b.key;
                             }),
                 merged.end());

    // Nothing buffered in range and exactly one existing region absorbed: the
    // manifest already describes this query's region, so answer straight from
    // the sorted leaves — no writes, no new leakage.
    if (drained_count == 0 && !absorbed_leaf_mins.empty() &&
        untouched.size() + 1 == manifest.regions.size()) {
      std::set<uint64_t> out;
      for (const auto& entry : merged) {
        MC_ASSIGN_OR_RETURN(auto decoded, DecodeEntryKey(entry.key));
        if (decoded.first >= lo && decoded.first <= hi) {
          out.insert(decoded.second);
        }
      }
      pks->assign(out.begin(), out.end());
      PublishSortedRegions(manifest.regions.size());
      return Status::Ok();
    }

    // Cut the merged region into sorted leaves and write them. Leaf labels
    // are the OPE images of their min attrs — the only order the server
    // ever learns, and only for this (queried) region.
    Region region;
    region.lo = nlo;
    region.hi = nhi;
    std::vector<std::pair<std::string, Pack>> leaves;
    size_t i = 0;
    while (i < merged.size()) {
      const size_t take = std::min(LeafRows(), merged.size() - i);
      std::vector<Pack::Entry> chunk(merged.begin() + static_cast<long>(i),
                                     merged.begin() + static_cast<long>(i + take));
      i += take;
      MC_ASSIGN_OR_RETURN(Pack pack, Pack::FromSorted(std::move(chunk)));
      MC_ASSIGN_OR_RETURN(auto decoded, DecodeEntryKey(*pack.MinKey()));
      region.leaf_mins.push_back(decoded.first);
      leaves.emplace_back(ope_.Encrypt(decoded.first), std::move(pack));
    }
    for (const auto& [label, pack] : leaves) {
      // Reusing a label from an absorbed region rewrites that leaf; a brand
      // new label inserts. Concurrent drains writing the same label converge
      // by unioning, so a manifest can never commit while referencing a leaf
      // that is missing drained entries (that would let the truncation below
      // lose them).
      MC_RETURN_IF_ERROR(WriteLeafUnioning(label, pack));
    }

    if (InjectedFault(FaultPoint::kIndexSplit, FailPoint::kAfterLeafWrite,
                      "drain:" + table_)) {
      // Crash before the commit point: leaves exist but the manifest does
      // not reference them. Entries stay live in the buffers, so nothing is
      // lost; the next drain rewrites the leaves and commits.
      return Status::Aborted("injected index drain failure before manifest commit");
    }

    // The atomic commit point: publish the new region list under the
    // manifest hash we started from.
    Manifest updated;
    updated.regions = untouched;
    updated.regions.push_back(region);
    std::sort(updated.regions.begin(), updated.regions.end(),
              [](const Region& a, const Region& b) { return a.lo < b.lo; });
    const Status cs = WriteManifest(updated, manifest_hash);
    if (cs.IsConditionFailed() || cs.IsAlreadyExists()) {
      stats_.retries.fetch_add(1, std::memory_order_relaxed);
      OBS_COUNTER_INC("index.retries");
      continue;  // another drain committed first; re-merge against its result
    }
    if (!cs.ok()) {
      return cs;
    }
    stats_.drains.fetch_add(1, std::memory_order_relaxed);
    stats_.drained_entries.fetch_add(drained_count, std::memory_order_relaxed);
    OBS_COUNTER_INC("index.drains");
    OBS_COUNTER_ADD("index.drained_entries", drained_count);
    PublishSortedRegions(updated.regions.size());

    if (!InjectedFault(FaultPoint::kIndexPersist, FailPoint::kAfterRootCommit,
                       "drain-truncate:" + table_)) {
      // Truncate the drained entries out of their source rows. Every write is
      // conditioned on the hash read before the commit; a lost condition
      // means a concurrent writer touched the row — its entries simply stay
      // duplicated (queries dedup) until a later drain retires them.
      for (const IndexRow& src : sources) {
        Pack trimmed;
        bool any_removed = false;
        for (const auto& entry : src.pack.entries()) {
          MC_ASSIGN_OR_RETURN(auto decoded, DecodeEntryKey(entry.key));
          if (decoded.first >= nlo && decoded.first <= nhi) {
            any_removed = true;
          } else {
            trimmed.Upsert(entry.key, entry.value);
          }
        }
        if (!any_removed) {
          continue;
        }
        const Status ts = WriteIndexPack(kIndexBufferPartition, src.row_key, trimmed, src.hash);
        if (!ts.ok() && !ts.IsConditionFailed() && !ts.IsAlreadyExists() &&
            !ts.IsUnavailable()) {
          return ts;
        }
      }
    }

    std::set<uint64_t> out;
    for (const auto& entry : merged) {
      MC_ASSIGN_OR_RETURN(auto decoded, DecodeEntryKey(entry.key));
      if (decoded.first >= lo && decoded.first <= hi) {
        out.insert(decoded.second);
      }
    }
    pks->assign(out.begin(), out.end());
    return Status::Ok();
  }
  return Status::Aborted("index drain lost every manifest race (" + table_ + ")");
}

Result<std::vector<uint64_t>> SecondaryIndex::ScanCandidates(uint64_t lo, uint64_t hi) {
  std::set<uint64_t> pks;
  auto buf = ReadIndexRow(kIndexBufferPartition, kIndexBufferRow);
  if (buf.ok()) {
    MC_RETURN_IF_ERROR(CollectInRange(buf->pack, lo, hi, &pks));
  } else if (!buf.status().IsNotFound()) {
    return buf.status();
  }
  MC_ASSIGN_OR_RETURN(auto segments, ReadSegments());
  for (const IndexRow& seg : segments) {
    MC_RETURN_IF_ERROR(CollectInRange(seg.pack, lo, hi, &pks));
  }
  // Entries drained into leaves by earlier queries (kQueriedOrder) are no
  // longer in the buffers; walk the manifest's overlapping regions too.
  MC_ASSIGN_OR_RETURN(auto manifest_and_hash, ReadManifest());
  for (const Region& r : manifest_and_hash.first.regions) {
    if (r.lo > hi || r.hi < lo) {
      continue;
    }
    for (uint64_t leaf_min : r.leaf_mins) {
      auto leaf = ReadIndexRow(kIndexLeafPartition, ope_.Encrypt(leaf_min));
      if (!leaf.ok()) {
        if (leaf.status().IsNotFound()) {
          continue;
        }
        return leaf.status();
      }
      MC_RETURN_IF_ERROR(CollectInRange(leaf->pack, lo, hi, &pks));
    }
  }
  return std::vector<uint64_t>(pks.begin(), pks.end());
}

Result<std::vector<uint64_t>> SecondaryIndex::LookupTotalOrder(uint64_t lo, uint64_t hi) {
  const std::string slo = ope_.Encrypt(lo);
  const std::string shi = ope_.Encrypt(hi);
  Result<std::vector<std::pair<std::string, Row>>> rows =
      Status::Unavailable("leaf scan never attempted");
  for (int attempt = 0; attempt < MaxRetries(); ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
    }
    rows = cluster_->ReadRange(table_, kIndexLeafPartition, slo, shi);
    if (rows.ok() || !rows.status().IsUnavailable()) {
      break;
    }
  }
  if (!rows.ok()) {
    return rows.status();
  }
  std::set<uint64_t> pks;
  for (const auto& [label, row] : *rows) {
    MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(row));
    MC_ASSIGN_OR_RETURN(Pack pack, crypter_.Open(cells.first));
    MC_RETURN_IF_ERROR(CollectInRange(pack, lo, hi, &pks));
  }
  // The leaf covering `lo` may be labeled strictly below it (Figure 4
  // line 5) — and it must be consulted even when a leaf labeled exactly
  // OPE(lo) exists: a split that cut inside a run of equal attributes leaves
  // in-range entries on both sides of the label. One strictly-below leaf
  // suffices: entries in deeper leaves with attr >= lo are either routed
  // duplicates already covered above or moved upward by the split that
  // created the next label.
  if (auto pred = PredecessorKey(slo); pred.has_value()) {
    auto floor = cluster_->ReadFloor(table_, kIndexLeafPartition, *pred);
    if (floor.ok()) {
      MC_ASSIGN_OR_RETURN(auto cells, ExtractPackCells(floor->second));
      MC_ASSIGN_OR_RETURN(Pack pack, crypter_.Open(cells.first));
      MC_RETURN_IF_ERROR(CollectInRange(pack, lo, hi, &pks));
    } else if (!floor.status().IsNotFound()) {
      return floor.status();
    }
  }
  return std::vector<uint64_t>(pks.begin(), pks.end());
}

void SecondaryIndex::NoteStaleFiltered(uint64_t n) {
  if (n == 0) {
    return;
  }
  stats_.stale_filtered.fetch_add(n, std::memory_order_relaxed);
  OBS_COUNTER_ADD("index.stale_filtered", n);
}

Result<uint64_t> SecondaryIndex::SortedRegions() {
  switch (iopts_.leakage) {
    case IndexLeakage::kNoOrder:
      return uint64_t{0};
    case IndexLeakage::kTotalOrder: {
      MC_ASSIGN_OR_RETURN(auto rows, cluster_->ReadRange(table_, kIndexLeafPartition, "",
                                                         std::string(kOpeCiphertextBytes, '\xff'),
                                                         /*limit=*/1));
      return rows.empty() ? uint64_t{0} : uint64_t{1};
    }
    case IndexLeakage::kQueriedOrder:
      break;
  }
  MC_ASSIGN_OR_RETURN(auto manifest_and_hash, ReadManifest());
  const uint64_t regions = manifest_and_hash.first.regions.size();
  PublishSortedRegions(regions);
  return regions;
}

}  // namespace minicrypt
