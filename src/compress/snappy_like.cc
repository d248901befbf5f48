#include "src/compress/snappy_like.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/coding.h"
#include "src/common/cpu_features.h"
#include "src/compress/simd_copy.h"
#include "src/obs/metrics.h"

#define MC_SNAPPY_X86 MC_SIMD_COPY_X86

namespace minicrypt {

namespace {

using simd_copy::kWildCopySlack;
using simd_copy::Load32;
using simd_copy::Load64;

// Element tags (low 2 bits of the tag byte).
constexpr unsigned kTagLiteral = 0x00;
constexpr unsigned kTagCopy = 0x01;

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatchPerElement = 64;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 14;
constexpr size_t kHashSize = 1u << kHashBits;

uint32_t Hash4(uint32_t v) { return (v * 0x9e3779b1u) >> (32 - kHashBits); }

// Literal element: tag byte (len-1 in the upper 6 bits when len <= 60, else a
// marker + varint), followed by the literal bytes.
void EmitLiteral(std::string* out, std::string_view lit) {
  if (lit.empty()) {
    return;
  }
  if (lit.size() <= 60) {
    out->push_back(static_cast<char>(((lit.size() - 1) << 2) | kTagLiteral));
  } else {
    out->push_back(static_cast<char>((61 << 2) | kTagLiteral));
    PutVarint64(out, lit.size() - 1);
  }
  out->append(lit);
}

// Copy element: tag byte (len-4 in the upper 6 bits, len in [4, 64]),
// followed by a 2-byte little-endian offset.
void EmitCopy(std::string* out, size_t offset, size_t len) {
  while (len > 0) {
    size_t chunk = len;
    if (chunk > kMaxMatchPerElement) {
      // Keep the remainder at least kMinMatch so every element is encodable.
      chunk = (len - kMaxMatchPerElement >= kMinMatch) ? kMaxMatchPerElement
                                                       : len - kMinMatch;
    }
    out->push_back(static_cast<char>(((chunk - kMinMatch) << 2) | kTagCopy));
    out->push_back(static_cast<char>(offset & 0xff));
    out->push_back(static_cast<char>(offset >> 8));
    len -= chunk;
  }
}

// --- Scalar reference implementation -----------------------------------------
//
// Portable path and byte-for-byte oracle for the SIMD paths below
// (tests/simd_kernels_test.cc).

Result<std::string> CompressScalar(std::string_view input) {
  std::string out;
  PutVarint64(&out, input.size());
  if (input.empty()) {
    return out;
  }

  std::vector<int64_t> table(kHashSize, -1);
  const char* base = input.data();
  const size_t n = input.size();
  const size_t match_limit = n >= kMinMatch ? n - kMinMatch : 0;
  size_t anchor = 0;
  size_t pos = 0;
  // Skip acceleration: after 32 consecutive probe misses the stride becomes 2,
  // after 64 it becomes 3, etc. — incompressible data is scanned, not hashed
  // byte-by-byte.
  size_t misses = 0;

  while (pos < match_limit) {
    const uint32_t h = Hash4(Load32(base + pos));
    const int64_t cand = table[h];
    table[h] = static_cast<int64_t>(pos);
    if (cand >= 0 && pos - static_cast<size_t>(cand) <= kMaxOffset &&
        Load32(base + cand) == Load32(base + pos)) {
      size_t match_len = kMinMatch;
      while (pos + match_len < n &&
             base[cand + static_cast<int64_t>(match_len)] == base[pos + match_len]) {
        ++match_len;
      }
      EmitLiteral(&out, input.substr(anchor, pos - anchor));
      EmitCopy(&out, pos - static_cast<size_t>(cand), match_len);
      pos += match_len;
      anchor = pos;
      misses = 0;
    } else {
      ++misses;
      // Bounded skip acceleration: long literal stretches are scanned with a
      // growing stride, capped so cross-row matches ~1 KiB apart are still
      // found.
      pos += 1 + std::min<size_t>(misses / 32, 3);
    }
  }

  EmitLiteral(&out, input.substr(anchor));
  return out;
}

Result<std::string> DecompressScalar(std::string_view input) {
  std::string_view in = input;
  MC_ASSIGN_OR_RETURN(uint64_t raw_size, GetVarint64(&in));
  if (raw_size > (1ULL << 32)) {
    return Status::Corruption("snappylike: oversized frame");
  }
  std::string out;
  // Reserve no more than the body can expand to (see DecompressFast), so a
  // forged raw_size cannot force a large allocation.
  out.reserve(std::min<uint64_t>(raw_size, in.size() * 32 + 1024));

  while (!in.empty()) {
    const auto tag = static_cast<unsigned char>(in.front());
    in.remove_prefix(1);
    if ((tag & 0x03) == kTagLiteral) {
      size_t len = (tag >> 2) + 1;
      if ((tag >> 2) == 61) {
        MC_ASSIGN_OR_RETURN(uint64_t ext, GetVarint64(&in));
        len = ext + 1;
      }
      if (in.size() < len) {
        return Status::Corruption("snappylike: truncated literal");
      }
      out.append(in.data(), len);
      in.remove_prefix(len);
    } else if ((tag & 0x03) == kTagCopy) {
      const size_t len = (tag >> 2) + kMinMatch;
      if (in.size() < 2) {
        return Status::Corruption("snappylike: truncated offset");
      }
      const size_t offset = static_cast<unsigned char>(in[0]) |
                            (static_cast<size_t>(static_cast<unsigned char>(in[1])) << 8);
      in.remove_prefix(2);
      if (offset == 0 || offset > out.size()) {
        return Status::Corruption("snappylike: bad offset");
      }
      const size_t src = out.size() - offset;
      for (size_t i = 0; i < len; ++i) {
        out.push_back(out[src + i]);
      }
    } else {
      return Status::Corruption("snappylike: unknown tag");
    }
    if (out.size() > raw_size) {
      return Status::Corruption("snappylike: output overruns declared size");
    }
  }
  if (out.size() != raw_size) {
    return Status::Corruption("snappylike: size mismatch");
  }
  return out;
}

#if MC_SNAPPY_X86

// --- SIMD fast paths ----------------------------------------------------------
//
// Same stream format, same match/skip decisions as the scalar path; speed
// comes from pointer-based output, wild copies, ctz match extension, and a
// generation-tagged thread-local hash table (see lz4_like.cc for the idiom).

using simd_copy::MatchCopy;
using simd_copy::PutVarint64Raw;
using simd_copy::WildCopy;
using simd_copy::WildCopy16;

struct HashTable {
  std::unique_ptr<uint64_t[]> slots;
  uint32_t generation = 0;

  uint64_t* Refresh() {
    if (slots == nullptr) {
      slots = std::make_unique<uint64_t[]>(kHashSize);
      std::memset(slots.get(), 0, kHashSize * sizeof(uint64_t));
      generation = 1;
    } else if (++generation == 0) {
      std::memset(slots.get(), 0, kHashSize * sizeof(uint64_t));
      generation = 1;
    }
    return slots.get();
  }
};

thread_local HashTable tls_snappy_table;

// Extends a confirmed 4-byte match; identical result to the scalar byte loop
// (bounded by n, unlike lz4's protected tail).
inline size_t ExtendMatch(const char* base, size_t cand, size_t pos, size_t n) {
  size_t match_len = kMinMatch;
  const char* s = base + cand + kMinMatch;
  const char* t = base + pos + kMinMatch;
  const char* t_end = base + n;
  while (t + 8 <= t_end) {
    const uint64_t diff = Load64(s) ^ Load64(t);
    if (diff != 0) {
      return match_len + static_cast<size_t>(__builtin_ctzll(diff) >> 3);
    }
    s += 8;
    t += 8;
    match_len += 8;
  }
  while (t < t_end && *s == *t) {
    ++s;
    ++t;
    ++match_len;
  }
  return match_len;
}

// Emits a literal element through a raw pointer. Wild-copies only when the
// literal run has a full chunk of input after it (the read rounds up).
inline void EmitLiteralRaw(char** op, const char* base, size_t anchor, size_t len,
                           size_t n, SimdLevel level) {
  if (len == 0) {
    return;
  }
  char* p = *op;
  if (len <= 60) {
    *p++ = static_cast<char>(((len - 1) << 2) | kTagLiteral);
  } else {
    *p++ = static_cast<char>((61 << 2) | kTagLiteral);
    PutVarint64Raw(&p, len - 1);
  }
  if (anchor + len + kWildCopySlack <= n) {
    WildCopy(p, base + anchor, len, level);
  } else {
    std::memcpy(p, base + anchor, len);
  }
  *op = p + len;
}

inline void EmitCopyRaw(char** op, size_t offset, size_t len) {
  char* p = *op;
  while (len > 0) {
    size_t chunk = len;
    if (chunk > kMaxMatchPerElement) {
      chunk = (len - kMaxMatchPerElement >= kMinMatch) ? kMaxMatchPerElement
                                                       : len - kMinMatch;
    }
    *p++ = static_cast<char>(((chunk - kMinMatch) << 2) | kTagCopy);
    *p++ = static_cast<char>(offset & 0xff);
    *p++ = static_cast<char>(offset >> 8);
    len -= chunk;
  }
  *op = p;
}

Result<std::string> CompressFast(std::string_view input, SimdLevel level) {
  std::string out;
  if (input.empty()) {
    PutVarint64(&out, 0);
    return out;
  }
  const size_t n = input.size();
  // Worst case: 64-byte copy elements are 3 bytes per >= 4 input bytes
  // (3n/4 excess is unreachable but safe), literals add 1 tag per <= 60
  // bytes plus varint markers.
  const size_t bound = n + n / 4 + n / 32 + 80 + kWildCopySlack;
  out.resize(bound);
  char* const out_base = out.data();
  char* op = out_base;
  PutVarint64Raw(&op, n);

  uint64_t* table = tls_snappy_table.Refresh();
  const uint64_t gen = static_cast<uint64_t>(tls_snappy_table.generation) << 32;
  const char* base = input.data();
  const size_t match_limit = n >= kMinMatch ? n - kMinMatch : 0;
  size_t anchor = 0;
  size_t pos = 0;
  size_t misses = 0;

  while (pos < match_limit) {
    const uint32_t h = Hash4(Load32(base + pos));
    const uint64_t slot = table[h];
    const int64_t cand = (slot & ~0xffffffffULL) == gen
                             ? static_cast<int64_t>(slot & 0xffffffffULL)
                             : -1;
    table[h] = gen | pos;
    if (cand >= 0 && pos - static_cast<size_t>(cand) <= kMaxOffset &&
        Load32(base + cand) == Load32(base + pos)) {
      const size_t match_len = ExtendMatch(base, static_cast<size_t>(cand), pos, n);
      EmitLiteralRaw(&op, base, anchor, pos - anchor, n, level);
      EmitCopyRaw(&op, pos - static_cast<size_t>(cand), match_len);
      pos += match_len;
      anchor = pos;
      misses = 0;
    } else {
      ++misses;
      pos += 1 + std::min<size_t>(misses / 32, 3);
    }
  }

  EmitLiteralRaw(&op, base, anchor, n - anchor, n, level);
  out.resize(static_cast<size_t>(op - out_base));
  return out;
}

Result<std::string> DecompressFast(std::string_view input, SimdLevel level) {
  std::string_view in = input;
  MC_ASSIGN_OR_RETURN(uint64_t raw_size, GetVarint64(&in));
  if (raw_size > (1ULL << 32)) {
    return Status::Corruption("snappylike: oversized frame");
  }
  // A copy element produces <= 64 bytes from 3 input bytes; a declared size
  // beyond ~22x the remaining input is unreachable, so the stream is corrupt.
  // Reject before zeroing a huge buffer for garbage input.
  if (raw_size > in.size() * 32 + 1024) {
    return Status::Corruption("snappylike: size mismatch");
  }
  std::string out;
  out.resize(raw_size + kWildCopySlack);
  char* const out_base = out.data();
  char* op = out_base;
  char* const op_limit = out_base + raw_size;

  while (!in.empty()) {
    const auto tag = static_cast<unsigned char>(in.front());
    in.remove_prefix(1);
    if ((tag & 0x03) == kTagLiteral) {
      size_t len = (tag >> 2) + 1;
      if ((tag >> 2) == 61) {
        MC_ASSIGN_OR_RETURN(uint64_t ext, GetVarint64(&in));
        len = ext + 1;
      }
      if (in.size() < len) {
        return Status::Corruption("snappylike: truncated literal");
      }
      if (op + len > op_limit) {
        return Status::Corruption("snappylike: output overruns declared size");
      }
      if (in.size() >= len + kWildCopySlack) {
        WildCopy(op, in.data(), len, level);
      } else {
        std::memcpy(op, in.data(), len);
      }
      op += len;
      in.remove_prefix(len);
    } else if ((tag & 0x03) == kTagCopy) {
      const size_t len = (tag >> 2) + kMinMatch;
      if (in.size() < 2) {
        return Status::Corruption("snappylike: truncated offset");
      }
      const size_t offset = static_cast<unsigned char>(in[0]) |
                            (static_cast<size_t>(static_cast<unsigned char>(in[1])) << 8);
      in.remove_prefix(2);
      if (offset == 0 || offset > static_cast<size_t>(op - out_base)) {
        return Status::Corruption("snappylike: bad offset");
      }
      if (op + len > op_limit) {
        return Status::Corruption("snappylike: output overruns declared size");
      }
      MatchCopy(op, offset, len, level);
      op += len;
    } else {
      return Status::Corruption("snappylike: unknown tag");
    }
  }
  if (op != op_limit) {
    return Status::Corruption("snappylike: size mismatch");
  }
  out.resize(raw_size);
  return out;
}

#endif  // MC_SNAPPY_X86

}  // namespace

Result<std::string> SnappyLikeCompressor::Compress(std::string_view input) const {
  const SimdLevel level = CurrentSimdLevel();
  RecordKernelDispatch(level);
#if MC_SNAPPY_X86
  // The generation-tagged table packs positions into 32 bits.
  if (level >= SimdLevel::kSse42 && input.size() < (1ULL << 31)) {
    return CompressFast(input, level);
  }
#endif
  return CompressScalar(input);
}

Result<std::string> SnappyLikeCompressor::Decompress(std::string_view input) const {
  const SimdLevel level = CurrentSimdLevel();
  RecordKernelDispatch(level);
#if MC_SNAPPY_X86
  if (level >= SimdLevel::kSse42) {
    return DecompressFast(input, level);
  }
#endif
  return DecompressScalar(input);
}

}  // namespace minicrypt
