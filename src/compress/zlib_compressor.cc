#include "src/compress/zlib_compressor.h"

#include <zlib.h>

namespace minicrypt {

ZlibCompressor::ZlibCompressor(int level, std::string_view name) : level_(level), name_(name) {}

Result<std::string> ZlibCompressor::Compress(std::string_view input) const {
  MC_ASSIGN_OR_RETURN(std::string out, BeginFrame(input.size(), name_));
  uLongf bound = compressBound(static_cast<uLong>(input.size()));
  const size_t header = out.size();
  out.resize(header + bound);
  int rc = compress2(reinterpret_cast<Bytef*>(out.data() + header), &bound,
                     reinterpret_cast<const Bytef*>(input.data()),
                     static_cast<uLong>(input.size()), level_);
  if (rc != Z_OK) {
    return Status::Internal("zlib compress2 failed rc=" + std::to_string(rc));
  }
  out.resize(header + bound);
  return out;
}

Result<std::string> ZlibCompressor::DecodeBody(const Frame& frame,
                                               const PrefixPredicate& enough) const {
  z_stream zs{};
  if (inflateInit(&zs) != Z_OK) {
    return Status::Internal("zlib inflateInit failed");
  }
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(frame.body.data()));
  zs.avail_in = static_cast<uInt>(frame.body.size());
  const auto step = [&](char* dst, size_t avail) -> Result<DecodeStep> {
    zs.next_out = reinterpret_cast<Bytef*>(dst);
    zs.avail_out = static_cast<uInt>(avail);
    // Z_BUF_ERROR only means no progress was possible; DecodeFrameBody
    // reports that as a truncated stream.
    const int rc = inflate(&zs, Z_NO_FLUSH);
    if (rc != Z_OK && rc != Z_STREAM_END && rc != Z_BUF_ERROR) {
      return Status::Corruption("zlib inflate failed rc=" + std::to_string(rc));
    }
    return DecodeStep{avail - zs.avail_out, zs.avail_in, rc == Z_STREAM_END};
  };
  auto out = DecodeFrameBody(frame, name_, step, enough);
  inflateEnd(&zs);
  return out;
}

}  // namespace minicrypt
