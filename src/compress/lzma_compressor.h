// lzma codec over liblzma (.xz container, LZMA2, preset 6): the highest-ratio,
// slowest position in the paper's codec survey (Figure 2 runs lzma among its
// five algorithms).

#ifndef MINICRYPT_SRC_COMPRESS_LZMA_COMPRESSOR_H_
#define MINICRYPT_SRC_COMPRESS_LZMA_COMPRESSOR_H_

#include "src/compress/frame.h"

namespace minicrypt {

class LzmaCompressor : public FramedCompressor {
 public:
  std::string_view Name() const override { return "lzma"; }
  Result<std::string> Compress(std::string_view input) const override;

 protected:
  Result<std::string> DecodeBody(const Frame& frame,
                                 const PrefixPredicate& enough) const override;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMPRESS_LZMA_COMPRESSOR_H_
