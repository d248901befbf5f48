#include "src/compress/lzma_compressor.h"

#include <lzma.h>

namespace minicrypt {

namespace {

constexpr uint32_t kPreset = LZMA_PRESET_DEFAULT;  // xz's default (-6)

}  // namespace

Result<std::string> LzmaCompressor::Compress(std::string_view input) const {
  MC_ASSIGN_OR_RETURN(std::string out, BeginFrame(input.size(), Name()));
  const size_t header = out.size();
  out.resize(header + lzma_stream_buffer_bound(input.size()));
  size_t pos = header;
  const lzma_ret rc = lzma_easy_buffer_encode(
      kPreset, LZMA_CHECK_CRC32, nullptr, reinterpret_cast<const uint8_t*>(input.data()),
      input.size(), reinterpret_cast<uint8_t*>(out.data()), &pos, out.size());
  if (rc != LZMA_OK) {
    return Status::Internal("lzma encode failed rc=" + std::to_string(rc));
  }
  out.resize(pos);
  return out;
}

Result<std::string> LzmaCompressor::DecodeBody(const Frame& frame,
                                               const PrefixPredicate& enough) const {
  lzma_stream strm = LZMA_STREAM_INIT;
  // Frames written by Compress never need more decoder memory than the
  // preset, so a header asking for more is rejected before any allocation.
  if (lzma_stream_decoder(&strm, lzma_easy_decoder_memusage(kPreset), 0) != LZMA_OK) {
    return Status::Internal("lzma decoder init failed");
  }
  strm.next_in = reinterpret_cast<const uint8_t*>(frame.body.data());
  strm.avail_in = frame.body.size();
  const auto step = [&](char* dst, size_t avail) -> Result<DecodeStep> {
    strm.next_out = reinterpret_cast<uint8_t*>(dst);
    strm.avail_out = avail;
    // LZMA_BUF_ERROR only means no progress was possible; DecodeFrameBody
    // reports that as a truncated stream.
    const lzma_ret rc = lzma_code(&strm, LZMA_RUN);
    if (rc != LZMA_OK && rc != LZMA_STREAM_END && rc != LZMA_BUF_ERROR) {
      return Status::Corruption("lzma decode failed rc=" + std::to_string(rc));
    }
    return DecodeStep{avail - strm.avail_out, strm.avail_in, rc == LZMA_STREAM_END};
  };
  auto out = DecodeFrameBody(frame, Name(), step, enough);
  lzma_end(&strm);
  return out;
}

}  // namespace minicrypt
