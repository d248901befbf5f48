// Compressor interface and registry.
//
// MiniCrypt is codec-agnostic (paper §2.4, §3): packs are compressed with any
// registered codec before encryption. This repo ships the five general-purpose
// codecs the paper surveys: zlib, bzip2 and lzma wrap the system libraries;
// snappy-like and lz4-like are from-scratch stand-ins for the two fast LZ
// codecs. Two strawman codecs (RLE, dictionary) exist only to reproduce the
// §2.4 discussion.
//
// Framing: every codec's output is self-describing — Decompress needs no
// out-of-band length. Implementations must round-trip arbitrary bytes.

#ifndef MINICRYPT_SRC_COMPRESS_COMPRESSOR_H_
#define MINICRYPT_SRC_COMPRESS_COMPRESSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace minicrypt {

// Answers "does this decoded prefix already hold everything the caller
// needs?" for a prefix decode. Called with ever longer prefixes of the output.
using PrefixPredicate = std::function<bool(std::string_view decoded_prefix)>;

struct DecodedPrefix {
  std::string bytes;      // the whole output, or a prefix `enough` accepted
  uint64_t raw_size = 0;  // output size the frame declares
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  // Stable codec name ("zlib", "lz4like", "snappylike", "bzip2", "lzma").
  virtual std::string_view Name() const = 0;

  // Compresses `input` into a self-framed buffer.
  virtual Result<std::string> Compress(std::string_view input) const = 0;

  // Inverse of Compress. Returns Corruption on malformed input.
  virtual Result<std::string> Decompress(std::string_view input) const = 0;

  // Decodes until `enough(prefix)` holds or the stream ends; an empty
  // `enough` decodes everything, exactly as Decompress. Stopping early skips
  // the checks only the rest of the stream can make (zlib's Adler-32 and
  // length, for one), so use it only on authenticated input. Codecs without
  // a streaming decoder decode everything.
  virtual Result<DecodedPrefix> DecompressPrefix(std::string_view input,
                                                 const PrefixPredicate& enough) const {
    MC_ASSIGN_OR_RETURN(std::string out, Decompress(input));
    const uint64_t raw_size = out.size();
    return DecodedPrefix{std::move(out), raw_size};
  }
};

// Returns the codec registered under `name`, or nullptr. The returned pointer
// is owned by the registry and valid for the process lifetime. Thread-safe.
const Compressor* FindCompressor(std::string_view name);

// Names of all registered general-purpose codecs, in ratio/speed survey order
// (fastest/lowest-ratio first). Excludes strawmen.
std::vector<std::string_view> AllCompressorNames();

// The codec MiniCrypt uses by default (paper §3 chooses zlib).
const Compressor* DefaultCompressor();

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMPRESS_COMPRESSOR_H_
