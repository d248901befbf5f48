#include "src/compress/lz4_like.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/coding.h"
#include "src/common/cpu_features.h"
#include "src/compress/simd_copy.h"
#include "src/obs/metrics.h"

#define MC_LZ_X86 MC_SIMD_COPY_X86

namespace minicrypt {

namespace {

using simd_copy::kWildCopySlack;
using simd_copy::Load32;
using simd_copy::Load64;

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 16;
constexpr size_t kHashSize = 1u << kHashBits;
// The last bytes of the block are always emitted as literals so the decoder's
// match copy never reads past the end.
constexpr size_t kTailLiterals = 12;

uint32_t Hash4(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

// Emits a length in the nibble+extensions scheme: the nibble holds
// min(len, 15); if it is 15, extension bytes of 255 follow until the
// remainder is < 255.
void PutLenExtension(std::string* out, size_t len) {
  if (len < 15) {
    return;
  }
  len -= 15;
  while (len >= 255) {
    out->push_back(static_cast<char>(0xff));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

Result<size_t> GetLenExtension(std::string_view* in, size_t nibble) {
  size_t len = nibble;
  if (nibble == 15) {
    for (;;) {
      if (in->empty()) {
        return Status::Corruption("lz4like: truncated length extension");
      }
      auto b = static_cast<unsigned char>(in->front());
      in->remove_prefix(1);
      len += b;
      if (b != 255) {
        break;
      }
    }
  }
  return len;
}

// --- Scalar reference implementation -----------------------------------------
//
// This is the portable path and the byte-for-byte oracle the SIMD paths are
// tested against (tests/simd_kernels_test.cc): the fast paths below must make
// the exact same match decisions and emit the exact same stream.

Result<std::string> CompressScalar(std::string_view input) {
  std::string out;
  PutVarint64(&out, input.size());
  if (input.empty()) {
    return out;
  }

  std::vector<int64_t> table(kHashSize, -1);
  const char* base = input.data();
  const size_t n = input.size();
  size_t anchor = 0;  // start of pending literal run
  size_t pos = 0;
  const size_t match_limit = n > kTailLiterals ? n - kTailLiterals : 0;

  while (pos + kMinMatch <= match_limit) {
    const uint32_t h = Hash4(Load32(base + pos));
    const int64_t cand = table[h];
    table[h] = static_cast<int64_t>(pos);
    if (cand >= 0 && pos - static_cast<size_t>(cand) <= kMaxOffset &&
        Load32(base + cand) == Load32(base + pos)) {
      // Extend the match forward as far as possible (bounded by match_limit
      // so the decoder never copies into the protected tail).
      size_t match_len = kMinMatch;
      while (pos + match_len < match_limit &&
             base[cand + static_cast<int64_t>(match_len)] == base[pos + match_len]) {
        ++match_len;
      }
      const size_t lit_len = pos - anchor;
      const size_t offset = pos - static_cast<size_t>(cand);
      const size_t ml_code = match_len - kMinMatch;
      const unsigned char token =
          static_cast<unsigned char>((lit_len < 15 ? lit_len : 15) << 4 |
                                     (ml_code < 15 ? ml_code : 15));
      out.push_back(static_cast<char>(token));
      PutLenExtension(&out, lit_len);
      out.append(base + anchor, lit_len);
      out.push_back(static_cast<char>(offset & 0xff));
      out.push_back(static_cast<char>(offset >> 8));
      PutLenExtension(&out, ml_code);
      pos += match_len;
      anchor = pos;
      // Prime the table inside the match so back-to-back repeats are found.
      if (pos + kMinMatch <= match_limit) {
        table[Hash4(Load32(base + pos - 2))] = static_cast<int64_t>(pos - 2);
      }
    } else {
      ++pos;
    }
  }

  // Final literal-only sequence (token with match nibble 0, no offset bytes
  // follow; the declared size tells the decoder when to stop).
  const size_t lit_len = n - anchor;
  const unsigned char token = static_cast<unsigned char>((lit_len < 15 ? lit_len : 15) << 4);
  out.push_back(static_cast<char>(token));
  PutLenExtension(&out, lit_len);
  out.append(base + anchor, lit_len);
  return out;
}

Result<std::string> DecompressScalar(std::string_view input) {
  std::string_view in = input;
  MC_ASSIGN_OR_RETURN(uint64_t raw_size, GetVarint64(&in));
  if (raw_size > (1ULL << 32)) {
    return Status::Corruption("lz4like: oversized frame");
  }
  std::string out;
  // Reserve no more than the body can expand to (see DecompressFast), so a
  // forged raw_size cannot force a large allocation.
  out.reserve(std::min<uint64_t>(raw_size, in.size() * 512 + 1024));

  while (out.size() < raw_size) {
    if (in.empty()) {
      return Status::Corruption("lz4like: truncated stream");
    }
    const auto token = static_cast<unsigned char>(in.front());
    in.remove_prefix(1);
    MC_ASSIGN_OR_RETURN(size_t lit_len, GetLenExtension(&in, token >> 4));
    if (in.size() < lit_len) {
      return Status::Corruption("lz4like: truncated literals");
    }
    out.append(in.data(), lit_len);
    in.remove_prefix(lit_len);
    if (out.size() >= raw_size) {
      break;  // final literal-only sequence
    }
    if (in.size() < 2) {
      return Status::Corruption("lz4like: truncated offset");
    }
    const size_t offset = static_cast<unsigned char>(in[0]) |
                          (static_cast<size_t>(static_cast<unsigned char>(in[1])) << 8);
    in.remove_prefix(2);
    if (offset == 0 || offset > out.size()) {
      return Status::Corruption("lz4like: bad offset");
    }
    MC_ASSIGN_OR_RETURN(size_t ml_code, GetLenExtension(&in, token & 0x0f));
    size_t match_len = ml_code + kMinMatch;
    if (out.size() + match_len > raw_size) {
      return Status::Corruption("lz4like: match overruns declared size");
    }
    // Byte-wise copy: overlapping copies (offset < match_len) must replicate.
    size_t src = out.size() - offset;
    for (size_t i = 0; i < match_len; ++i) {
      out.push_back(out[src + i]);
    }
  }
  if (out.size() != raw_size) {
    return Status::Corruption("lz4like: size mismatch");
  }
  return out;
}

#if MC_LZ_X86

// --- SIMD fast paths ----------------------------------------------------------
//
// Same stream format, same match decisions; the speed comes from (a) writing
// through raw pointers into a pre-sized buffer instead of std::string
// push_back/append, (b) 16/32-byte wild copies for literals and matches
// (src/compress/simd_copy.h), (c) 8-byte XOR + ctz match extension, and (d) a
// generation-tagged thread-local hash table so the 64 Ki-entry table is not
// reallocated and re-cleared on every Compress call.

using simd_copy::MatchCopy;
using simd_copy::WildCopy;

// Generation-tagged hash table: entry = (generation << 32) | pos. An entry
// from an older generation reads as "no candidate", so the table never needs
// clearing between packs. ~512 KiB per thread, reused for the thread's life.
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

thread_local HashTable tls_lz4_table;

inline void PutLenExtensionRaw(char** op, size_t len) {
  if (len < 15) {
    return;
  }
  len -= 15;
  char* p = *op;
  while (len >= 255) {
    *p++ = static_cast<char>(0xff);
    len -= 255;
  }
  *p++ = static_cast<char>(len);
  *op = p;
}

using simd_copy::PutVarint64Raw;

// Extends a confirmed 4-byte match; identical result to the scalar byte loop.
inline size_t ExtendMatch(const char* base, size_t cand, size_t pos, size_t limit) {
  size_t match_len = kMinMatch;
  const char* s = base + cand + kMinMatch;
  const char* t = base + pos + kMinMatch;
  const char* t_end = base + limit;  // exclusive: scalar requires pos+len < limit
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

Result<std::string> CompressFast(std::string_view input, SimdLevel level) {
  std::string out;
  if (input.empty()) {
    PutVarint64(&out, 0);
    return out;
  }
  const size_t n = input.size();
  // Worst case: every sequence is a 4-byte match costing 5 bytes (n/4 excess)
  // plus length-extension bytes (1 per 255 of literals and of match length),
  // the varint header, and wild-copy slack.
  const size_t bound = n + n / 4 + n / 128 + 80 + kWildCopySlack;
  out.resize(bound);
  char* const out_base = out.data();
  char* op = out_base;
  PutVarint64Raw(&op, n);

  uint64_t* table = tls_lz4_table.Refresh();
  const uint64_t gen = static_cast<uint64_t>(tls_lz4_table.generation) << 32;
  const char* base = input.data();
  size_t anchor = 0;
  size_t pos = 0;
  const size_t match_limit = n > kTailLiterals ? n - kTailLiterals : 0;

  while (pos + kMinMatch <= match_limit) {
    const uint32_t h = Hash4(Load32(base + pos));
    const uint64_t slot = table[h];
    const int64_t cand = (slot & ~0xffffffffULL) == gen
                             ? static_cast<int64_t>(slot & 0xffffffffULL)
                             : -1;
    table[h] = gen | pos;
    if (cand >= 0 && pos - static_cast<size_t>(cand) <= kMaxOffset &&
        Load32(base + cand) == Load32(base + pos)) {
      const size_t match_len =
          ExtendMatch(base, static_cast<size_t>(cand), pos, match_limit);
      const size_t lit_len = pos - anchor;
      const size_t offset = pos - static_cast<size_t>(cand);
      const size_t ml_code = match_len - kMinMatch;
      *op++ = static_cast<char>((lit_len < 15 ? lit_len : 15) << 4 |
                                (ml_code < 15 ? ml_code : 15));
      PutLenExtensionRaw(&op, lit_len);
      if (lit_len > 0) {
        // Wild copies round the *read* up too; only safe while a full chunk
        // of input remains past the literal run.
        if (anchor + lit_len + kWildCopySlack <= n) {
          WildCopy(op, base + anchor, lit_len, level);
        } else {
          std::memcpy(op, base + anchor, lit_len);
        }
        op += lit_len;
      }
      *op++ = static_cast<char>(offset & 0xff);
      *op++ = static_cast<char>(offset >> 8);
      PutLenExtensionRaw(&op, ml_code);
      pos += match_len;
      anchor = pos;
      if (pos + kMinMatch <= match_limit) {
        table[Hash4(Load32(base + pos - 2))] = gen | (pos - 2);
      }
    } else {
      ++pos;
    }
  }

  const size_t lit_len = n - anchor;
  *op++ = static_cast<char>((lit_len < 15 ? lit_len : 15) << 4);
  PutLenExtensionRaw(&op, lit_len);
  if (lit_len > 0) {
    // The literal tail is bounded by the buffer slack, but use an exact copy:
    // the source is the end of the input, where a wild read could cross the
    // caller's buffer end.
    std::memcpy(op, base + anchor, lit_len);
    op += lit_len;
  }
  out.resize(static_cast<size_t>(op - out_base));
  return out;
}

Result<std::string> DecompressFast(std::string_view input, SimdLevel level) {
  std::string_view in = input;
  MC_ASSIGN_OR_RETURN(uint64_t raw_size, GetVarint64(&in));
  if (raw_size > (1ULL << 32)) {
    return Status::Corruption("lz4like: oversized frame");
  }
  // Each remaining input byte can contribute at most ~262 output bytes (a
  // 0xff length-extension byte adds 255); a declared size beyond that bound
  // can never be reached, so the stream is corrupt — reject before zeroing a
  // huge buffer for garbage input.
  if (raw_size > in.size() * 512 + 1024) {
    return Status::Corruption("lz4like: size mismatch");
  }
  std::string out;
  out.resize(raw_size + kWildCopySlack);
  char* const out_base = out.data();
  char* op = out_base;
  char* const op_limit = out_base + raw_size;

  while (op < op_limit) {
    if (in.empty()) {
      return Status::Corruption("lz4like: truncated stream");
    }
    const auto token = static_cast<unsigned char>(in.front());
    in.remove_prefix(1);
    MC_ASSIGN_OR_RETURN(size_t lit_len, GetLenExtension(&in, token >> 4));
    if (in.size() < lit_len) {
      return Status::Corruption("lz4like: truncated literals");
    }
    if (lit_len > 0) {
      if (op + lit_len > op_limit) {
        // The scalar path would append past raw_size, break, and fail the
        // final size check; same verdict, detected before the write.
        return Status::Corruption("lz4like: size mismatch");
      }
      // Safe to wild-copy: reading rounds up within `in` only when at least
      // a chunk of input remains; otherwise fall back to an exact copy.
      if (in.size() >= lit_len + kWildCopySlack) {
        WildCopy(op, in.data(), lit_len, level);
      } else {
        std::memcpy(op, in.data(), lit_len);
      }
      op += lit_len;
      in.remove_prefix(lit_len);
    }
    if (op >= op_limit) {
      break;  // final literal-only sequence
    }
    if (in.size() < 2) {
      return Status::Corruption("lz4like: truncated offset");
    }
    const size_t offset = static_cast<unsigned char>(in[0]) |
                          (static_cast<size_t>(static_cast<unsigned char>(in[1])) << 8);
    in.remove_prefix(2);
    if (offset == 0 || offset > static_cast<size_t>(op - out_base)) {
      return Status::Corruption("lz4like: bad offset");
    }
    MC_ASSIGN_OR_RETURN(size_t ml_code, GetLenExtension(&in, token & 0x0f));
    const size_t match_len = ml_code + kMinMatch;
    if (op + match_len > op_limit) {
      return Status::Corruption("lz4like: match overruns declared size");
    }
    MatchCopy(op, offset, match_len, level);
    op += match_len;
  }
  if (op != op_limit) {
    return Status::Corruption("lz4like: size mismatch");
  }
  out.resize(raw_size);
  return out;
}

#endif  // MC_LZ_X86

}  // namespace

Result<std::string> Lz4LikeCompressor::Compress(std::string_view input) const {
  const SimdLevel level = CurrentSimdLevel();
  RecordKernelDispatch(level);
#if MC_LZ_X86
  // The generation-tagged table packs positions into 32 bits.
  if (level >= SimdLevel::kSse42 && input.size() < (1ULL << 31)) {
    return CompressFast(input, level);
  }
#endif
  return CompressScalar(input);
}

Result<std::string> Lz4LikeCompressor::Decompress(std::string_view input) const {
  const SimdLevel level = CurrentSimdLevel();
  RecordKernelDispatch(level);
#if MC_LZ_X86
  if (level >= SimdLevel::kSse42) {
    return DecompressFast(input, level);
  }
#endif
  return DecompressScalar(input);
}

}  // namespace minicrypt
