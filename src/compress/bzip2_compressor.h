// bzip2 codec over libbz2: the block-sorting, high-ratio/slow position in the
// paper's codec survey (Figure 2 runs bz2 among its five algorithms).

#ifndef MINICRYPT_SRC_COMPRESS_BZIP2_COMPRESSOR_H_
#define MINICRYPT_SRC_COMPRESS_BZIP2_COMPRESSOR_H_

#include "src/compress/frame.h"

namespace minicrypt {

class Bzip2Compressor : public FramedCompressor {
 public:
  std::string_view Name() const override { return "bzip2"; }
  Result<std::string> Compress(std::string_view input) const override;

 protected:
  Result<std::string> DecodeBody(const Frame& frame,
                                 const PrefixPredicate& enough) const override;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMPRESS_BZIP2_COMPRESSOR_H_
