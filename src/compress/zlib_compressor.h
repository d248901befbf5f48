// zlib-backed codec (the codec MiniCrypt ships as its default, paper §3).

#ifndef MINICRYPT_SRC_COMPRESS_ZLIB_COMPRESSOR_H_
#define MINICRYPT_SRC_COMPRESS_ZLIB_COMPRESSOR_H_

#include "src/compress/frame.h"

namespace minicrypt {

class ZlibCompressor : public FramedCompressor {
 public:
  // level in [1, 9]; 6 is the zlib default used for the "zlib" registry entry.
  explicit ZlibCompressor(int level = 6, std::string_view name = "zlib");

  std::string_view Name() const override { return name_; }
  Result<std::string> Compress(std::string_view input) const override;

 protected:
  Result<std::string> DecodeBody(const Frame& frame,
                                 const PrefixPredicate& enough) const override;

 private:
  int level_;
  std::string name_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMPRESS_ZLIB_COMPRESSOR_H_
