#include "src/compress/bzip2_compressor.h"

#include <bzlib.h>

namespace minicrypt {

namespace {

constexpr int kBlockSize100k = 9;  // bzip2's default (-9)

}  // namespace

Result<std::string> Bzip2Compressor::Compress(std::string_view input) const {
  MC_ASSIGN_OR_RETURN(std::string out, BeginFrame(input.size(), Name()));
  // libbz2's documented worst case: 1% larger plus 600 bytes.
  auto bound = static_cast<unsigned int>(input.size() + input.size() / 100 + 600);
  const size_t header = out.size();
  out.resize(header + bound);
  const int rc = BZ2_bzBuffToBuffCompress(out.data() + header, &bound,
                                          const_cast<char*>(input.data()),
                                          static_cast<unsigned int>(input.size()),
                                          kBlockSize100k, /*verbosity=*/0, /*workFactor=*/0);
  if (rc != BZ_OK) {
    return Status::Internal("bzip2 compress failed rc=" + std::to_string(rc));
  }
  out.resize(header + bound);
  return out;
}

Result<std::string> Bzip2Compressor::DecodeBody(const Frame& frame,
                                                const PrefixPredicate& enough) const {
  bz_stream bz{};
  if (BZ2_bzDecompressInit(&bz, /*verbosity=*/0, /*small=*/0) != BZ_OK) {
    return Status::Internal("bzip2 decompress init failed");
  }
  bz.next_in = const_cast<char*>(frame.body.data());
  bz.avail_in = static_cast<unsigned int>(frame.body.size());
  const auto step = [&](char* dst, size_t avail) -> Result<DecodeStep> {
    bz.next_out = dst;
    bz.avail_out = static_cast<unsigned int>(avail);
    const int rc = BZ2_bzDecompress(&bz);
    if (rc != BZ_OK && rc != BZ_STREAM_END) {
      return Status::Corruption("bzip2 decompress failed rc=" + std::to_string(rc));
    }
    return DecodeStep{avail - bz.avail_out, bz.avail_in, rc == BZ_STREAM_END};
  };
  auto out = DecodeFrameBody(frame, Name(), step, enough);
  BZ2_bzDecompressEnd(&bz);
  return out;
}

}  // namespace minicrypt
