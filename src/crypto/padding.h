// Size-tier padding (paper §2.5): the encryption leaks only the size of each
// compressed pack; padding packs to one of a few customer-chosen tiers trades
// a little compression for coarser leakage. The plaintext is framed with its
// true length so padding is removable after decryption.

#ifndef MINICRYPT_SRC_CRYPTO_PADDING_H_
#define MINICRYPT_SRC_CRYPTO_PADDING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace minicrypt {

// A sorted list of target sizes in bytes. Empty = no padding. A pack larger
// than the largest tier is padded up to the next multiple of the largest tier
// (so oversized packs still land on a coarse grid).
class PaddingTiers {
 public:
  PaddingTiers() = default;
  explicit PaddingTiers(std::vector<size_t> tiers);

  // Convenience constructors matching the paper's examples.
  static PaddingTiers None() { return PaddingTiers(); }
  // Exponential scale: {base, 2*base, 4*base, ...} with `count` tiers.
  static PaddingTiers Exponential(size_t base, int count);
  // "Small / medium / large".
  static PaddingTiers SmallMediumLarge(size_t small, size_t medium, size_t large);

  bool enabled() const { return !tiers_.empty(); }

  // Smallest tier >= `size` (see class comment for the overflow rule).
  size_t TierFor(size_t size) const;

  // Frames `payload` with its length and pads to the tier: varint(len) ||
  // payload || zeros.
  std::string Pad(std::string_view payload) const;

  // Inverse of Pad. Works whether or not padding was applied (the frame is
  // always present). The result is a view into `padded`.
  static Result<std::string_view> Unpad(std::string_view padded);

  const std::vector<size_t>& tiers() const { return tiers_; }

 private:
  std::vector<size_t> tiers_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_CRYPTO_PADDING_H_
