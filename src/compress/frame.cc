#include "src/compress/frame.h"

#include <algorithm>
#include <limits>

#include "src/common/coding.h"

namespace minicrypt {

namespace {

// Largest raw_size a frame may declare. Keeps every length the libraries see
// within their 32-bit stream counters.
constexpr uint64_t kMaxFrameRawBytes = uint64_t{1} << 30;

// First output window: this many times the body, at least kMinWindow bytes.
// Above every ratio the codecs reach on pack data, so a genuine frame
// normally decodes in one window.
constexpr uint64_t kUpfrontRatio = 64;
constexpr uint64_t kMinWindow = 1024;

// Output offered per library call in a prefix decode. Smaller steps stop
// closer to the bound but pay more per-call overhead; docs/PERF.md has the
// microbench behind this choice. Full decodes stay in one call, because
// zlib routes back-references across a call boundary through its window.
constexpr size_t kPrefixStep = 16 * 1024;

Status Corrupt(std::string_view codec, std::string_view what) {
  return Status::Corruption(std::string(codec) + ": " + std::string(what));
}

}  // namespace

Result<std::string> BeginFrame(size_t raw_size, std::string_view codec) {
  if (raw_size > kMaxFrameRawBytes) {
    return Status::InvalidArgument(std::string(codec) + ": input too large for one frame");
  }
  std::string out;
  PutVarint64(&out, raw_size);
  return out;
}

Result<Frame> ParseFrame(std::string_view input, std::string_view codec) {
  Frame frame;
  frame.body = input;
  MC_ASSIGN_OR_RETURN(frame.raw_size, GetVarint64(&frame.body));
  if (frame.raw_size > kMaxFrameRawBytes) {
    return Corrupt(codec, "frame declares oversized payload");
  }
  if (frame.body.size() > std::numeric_limits<uint32_t>::max()) {
    return Corrupt(codec, "frame body too large");
  }
  return frame;
}

Result<std::string> DecodeFrameBody(const Frame& frame, std::string_view codec,
                                    const DecodeFn& step, const PrefixPredicate& enough) {
  // One byte of room past raw_size, so a stream that decodes too long is
  // caught rather than cut off.
  const uint64_t limit = frame.raw_size + 1;
  std::string out(std::min(limit, std::max(kMinWindow, frame.body.size() * kUpfrontRatio)),
                  '\0');
  size_t filled = 0;
  size_t input_left = frame.body.size();
  for (;;) {
    if (filled == out.size()) {
      if (out.size() == limit) {
        return Corrupt(codec, "stream longer than declared size");
      }
      out.resize(std::min<uint64_t>(limit, uint64_t{out.size()} * 2));
    }
    size_t avail = out.size() - filled;
    if (enough) {
      avail = std::min(avail, kPrefixStep);
    }
    MC_ASSIGN_OR_RETURN(const DecodeStep s, step(out.data() + filled, avail));
    if (!s.done && s.produced == 0 && s.input_left == input_left) {
      return Corrupt(codec, "truncated stream");
    }
    filled += s.produced;
    input_left = s.input_left;
    if (s.done) {
      break;
    }
    // A prefix past raw_size is left to the length checks above and below.
    if (enough && s.produced > 0 && filled <= frame.raw_size &&
        enough(std::string_view(out.data(), filled))) {
      out.resize(filled);
      return out;
    }
  }
  if (input_left != 0) {
    return Corrupt(codec, "trailing bytes after stream end");
  }
  if (filled != frame.raw_size) {
    return Corrupt(codec, "decoded size does not match declared size");
  }
  out.resize(filled);
  return out;
}

Result<std::string> FramedCompressor::Decompress(std::string_view input) const {
  MC_ASSIGN_OR_RETURN(const Frame frame, ParseFrame(input, Name()));
  return DecodeBody(frame, nullptr);
}

Result<DecodedPrefix> FramedCompressor::DecompressPrefix(std::string_view input,
                                                         const PrefixPredicate& enough) const {
  MC_ASSIGN_OR_RETURN(const Frame frame, ParseFrame(input, Name()));
  MC_ASSIGN_OR_RETURN(std::string out, DecodeBody(frame, enough));
  return DecodedPrefix{std::move(out), frame.raw_size};
}

}  // namespace minicrypt
