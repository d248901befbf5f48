#include "src/core/pack.h"

#include <algorithm>
#include <cstring>

#include "src/common/coding.h"

namespace minicrypt {

namespace {
constexpr size_t kMinArenaBlock = 4096;
}  // namespace

std::string_view Pack::Arena::Copy(std::string_view s) {
  if (s.empty()) {
    return {};
  }
  if (s.size() > remaining_) {
    Reserve(std::max(s.size(), kMinArenaBlock));
  }
  char* dst = cur_;
  std::memcpy(dst, s.data(), s.size());
  cur_ += s.size();
  remaining_ -= s.size();
  return std::string_view(dst, s.size());
}

void Pack::Arena::Reserve(size_t n) {
  if (n == 0 || n <= remaining_) {
    return;
  }
  // Any tail of the previous block is abandoned; callers reserve up front.
  blocks_.push_back(std::make_unique<char[]>(n));
  cur_ = blocks_.back().get();
  remaining_ = n;
  total_ += n;
}

std::string_view Pack::Arena::Adopt(std::string&& s) {
  adopted_.push_back(std::make_unique<std::string>(std::move(s)));
  total_ += adopted_.back()->size();
  return std::string_view(*adopted_.back());
}

namespace {

template <typename EntryRange>
size_t PayloadBytes(const EntryRange& entries) {
  size_t n = 0;
  for (const auto& e : entries) {
    n += e.key.size() + e.value.size();
  }
  return n;
}

}  // namespace

Pack::Pack(const Pack& other) : complete_(other.complete_) {
  arena_.Reserve(PayloadBytes(other.entries_));
  entries_.reserve(other.entries_.size());
  for (const EntryView& e : other.entries_) {
    entries_.push_back(EntryView{arena_.Copy(e.key), arena_.Copy(e.value)});
  }
}

Pack& Pack::operator=(const Pack& other) {
  if (this != &other) {
    Pack copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Result<Pack> Pack::FromSorted(std::vector<Entry> entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].key >= entries[i].key) {
      return Status::InvalidArgument("pack entries not sorted/unique");
    }
  }
  Pack p;
  p.arena_.Reserve(PayloadBytes(entries));
  p.entries_.reserve(entries.size());
  for (const Entry& e : entries) {
    p.entries_.push_back(EntryView{p.arena_.Copy(e.key), p.arena_.Copy(e.value)});
  }
  return p;
}

std::string Pack::Serialize() const {
  std::string out;
  PutVarint64(&out, entries_.size());
  for (const auto& e : entries_) {
    PutLengthPrefixed(&out, e.key);
    PutLengthPrefixed(&out, e.value);
  }
  return out;
}

namespace {

struct ParsedEntries {
  std::vector<Pack::EntryView> entries;
  bool passed = false;  // stopped at a key past the bound
};

// Shared decode: slices `bytes` into (key, value) views. The caller decides
// whether those views point at an adopted buffer (zero-copy) or get copied
// into the arena. With `through`, stops at the first key past it, without
// keeping that entry or reading anything after its key. `collect` = false
// only runs the checks.
Result<ParsedEntries> ParseEntries(std::string_view bytes,
                                   std::optional<std::string_view> through, bool collect) {
  std::string_view in = bytes;
  MC_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(&in));
  if (n > (1u << 24)) {
    return Status::Corruption("pack declares absurd entry count");
  }
  ParsedEntries out;
  if (collect) {
    out.entries.reserve(n);
  }
  std::string_view prev;
  for (uint64_t i = 0; i < n; ++i) {
    MC_ASSIGN_OR_RETURN(std::string_view key, GetLengthPrefixed(&in));
    if (i > 0 && prev >= key) {
      return Status::Corruption("pack entries out of order");
    }
    if (through.has_value() && key > *through) {
      out.passed = true;
      return out;
    }
    MC_ASSIGN_OR_RETURN(std::string_view value, GetLengthPrefixed(&in));
    prev = key;
    if (collect) {
      out.entries.push_back(Pack::EntryView{key, value});
    }
  }
  if (!in.empty()) {
    return Status::Corruption("trailing bytes after pack entries");
  }
  return out;
}

}  // namespace

Result<Pack> Pack::Deserialize(std::string_view bytes) {
  MC_ASSIGN_OR_RETURN(ParsedEntries parsed, ParseEntries(bytes, std::nullopt, /*collect=*/true));
  Pack p;
  p.arena_.Reserve(PayloadBytes(parsed.entries));
  p.entries_.reserve(parsed.entries.size());
  for (const EntryView& e : parsed.entries) {
    p.entries_.push_back(EntryView{p.arena_.Copy(e.key), p.arena_.Copy(e.value)});
  }
  return p;
}

Result<Pack> Pack::FromSerialized(std::string&& bytes, std::optional<std::string_view> through) {
  Pack p;
  const std::string_view stable = p.arena_.Adopt(std::move(bytes));
  // Parse after adoption: the views below point into the arena-owned buffer,
  // never into a caller temporary.
  MC_ASSIGN_OR_RETURN(ParsedEntries parsed, ParseEntries(stable, through, /*collect=*/true));
  p.entries_ = std::move(parsed.entries);
  p.complete_ = !through.has_value();
  return p;
}

bool Pack::PassesBound(std::string_view prefix, std::string_view through) {
  // A parse error here is usually just the prefix ending mid-entry. Real
  // corruption keeps the decode going to the end, where FromSerialized
  // reports it.
  auto parsed = ParseEntries(prefix, through, /*collect=*/false);
  return parsed.ok() && parsed->passed;
}

size_t Pack::LowerBound(std::string_view key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const EntryView& e, std::string_view k) { return e.key < k; });
  return static_cast<size_t>(it - entries_.begin());
}

std::optional<std::string_view> Pack::Find(std::string_view key) const {
  const size_t i = LowerBound(key);
  if (i < entries_.size() && entries_[i].key == key) {
    return entries_[i].value;
  }
  return std::nullopt;
}

std::optional<std::string_view> Pack::MinKey() const {
  if (entries_.empty()) {
    return std::nullopt;
  }
  return entries_.front().key;
}

bool Pack::Upsert(std::string_view key, std::string_view value) {
  const size_t i = LowerBound(key);
  if (i < entries_.size() && entries_[i].key == key) {
    entries_[i].value = arena_.Copy(value);
    return false;
  }
  entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(i),
                  EntryView{arena_.Copy(key), arena_.Copy(value)});
  return true;
}

bool Pack::Erase(std::string_view key) {
  const size_t i = LowerBound(key);
  if (i < entries_.size() && entries_[i].key == key) {
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
    return true;
  }
  return false;
}

Result<std::pair<Pack, Pack>> Pack::SplitDeterministic() const {
  if (entries_.size() < 2) {
    return Status::InvalidArgument("cannot split a pack with fewer than 2 keys");
  }
  if (!complete_) {
    return Status::InvalidArgument("cannot split a partial pack");
  }
  const size_t left_count = (entries_.size() + 1) / 2;  // ceil(n/2)
  Pack left;
  Pack right;
  left.entries_.reserve(left_count);
  right.entries_.reserve(entries_.size() - left_count);
  size_t left_bytes = 0;
  for (size_t i = 0; i < left_count; ++i) {
    left_bytes += entries_[i].key.size() + entries_[i].value.size();
  }
  left.arena_.Reserve(left_bytes);
  right.arena_.Reserve(PayloadBytes(entries_) - left_bytes);
  for (size_t i = 0; i < left_count; ++i) {
    left.entries_.push_back(EntryView{left.arena_.Copy(entries_[i].key),
                                      left.arena_.Copy(entries_[i].value)});
  }
  for (size_t i = left_count; i < entries_.size(); ++i) {
    right.entries_.push_back(EntryView{right.arena_.Copy(entries_[i].key),
                                       right.arena_.Copy(entries_[i].value)});
  }
  return std::make_pair(std::move(left), std::move(right));
}

}  // namespace minicrypt
