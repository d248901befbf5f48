#include <array>

#include "src/compress/bzip2_compressor.h"
#include "src/compress/compressor.h"
#include "src/compress/lz4_like.h"
#include "src/compress/lzma_compressor.h"
#include "src/compress/snappy_like.h"
#include "src/compress/strawman.h"
#include "src/compress/zlib_compressor.h"

namespace minicrypt {

namespace {

struct Registry {
  SnappyLikeCompressor snappylike;
  Lz4LikeCompressor lz4like;
  ZlibCompressor zlib{6, "zlib"};
  ZlibCompressor zlib9{9, "zlib9"};
  Bzip2Compressor bzip2;
  LzmaCompressor lzma;
  RleCompressor rle;
};

const Registry& GetRegistry() {
  static const Registry registry;
  return registry;
}

}  // namespace

const Compressor* FindCompressor(std::string_view name) {
  const Registry& r = GetRegistry();
  const std::array<const Compressor*, 7> all = {&r.snappylike, &r.lz4like, &r.zlib, &r.zlib9,
                                                &r.bzip2,      &r.lzma,    &r.rle};
  for (const Compressor* c : all) {
    if (c->Name() == name) {
      return c;
    }
  }
  return nullptr;
}

std::vector<std::string_view> AllCompressorNames() {
  // Ratio/speed survey order, fastest first (the five algorithms of Fig. 2).
  return {"snappylike", "lz4like", "zlib", "bzip2", "lzma"};
}

const Compressor* DefaultCompressor() { return FindCompressor("zlib"); }

}  // namespace minicrypt
