// Frame shared by the library-backed codecs (zlib, bzip2, lzma):
//
//   varint(raw_size) || library stream
//
// raw_size comes from untrusted bytes, so decoding never allocates on its
// word alone: the output starts at most 64 times the body (frame.cc) and then
// grows only as the library produces bytes. A stream that decodes to any
// length other than raw_size, stops early, or leaves trailing bytes is
// Corruption. A prefix decode (DecodeFrameBody with `enough`) may stop before
// the stream ends; it then returns at most raw_size bytes and skips the
// checks that need the rest of the stream.

#ifndef MINICRYPT_SRC_COMPRESS_FRAME_H_
#define MINICRYPT_SRC_COMPRESS_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/compress/compressor.h"

namespace minicrypt {

// Starts a frame for `raw_size` input bytes: the varint header, or
// InvalidArgument past 1 GiB, the largest raw_size a frame may declare.
Result<std::string> BeginFrame(size_t raw_size, std::string_view codec);

struct Frame {
  uint64_t raw_size = 0;
  std::string_view body;  // the library stream
};

// Splits off the header. Corruption on a bad varint, a declared size past
// 1 GiB, or a body longer than the libraries' 32-bit counters.
Result<Frame> ParseFrame(std::string_view input, std::string_view codec);

// What one call into a streaming decoder did.
struct DecodeStep {
  size_t produced = 0;    // bytes written into the output window
  size_t input_left = 0;  // body bytes the library has not consumed yet
  bool done = false;      // the library reached the end of its stream
};

// Runs the library's decoder once over the rest of the body, writing into
// [out, out + avail). Returns Corruption if the library rejects the stream.
using DecodeFn = std::function<Result<DecodeStep>(char* out, size_t avail)>;

// Calls `step` until the stream ends and checks the result against the frame.
// Without `enough`, each call offers the library the whole output window. With
// it, calls offer a fixed step (frame.cc) and the decode returns the prefix as
// soon as `enough` accepts it.
Result<std::string> DecodeFrameBody(const Frame& frame, std::string_view codec,
                                    const DecodeFn& step,
                                    const PrefixPredicate& enough = nullptr);

// Base of the library codecs: Decompress and DecompressPrefix parse the frame
// and hand it to DecodeBody, so the two share one decoder per codec.
class FramedCompressor : public Compressor {
 public:
  Result<std::string> Decompress(std::string_view input) const final;
  Result<DecodedPrefix> DecompressPrefix(std::string_view input,
                                         const PrefixPredicate& enough) const final;

 protected:
  // Decodes frame.body through DecodeFrameBody, passing `enough` on.
  virtual Result<std::string> DecodeBody(const Frame& frame,
                                         const PrefixPredicate& enough) const = 0;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMPRESS_FRAME_H_
