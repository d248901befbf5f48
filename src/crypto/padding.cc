#include "src/crypto/padding.h"

#include <algorithm>

#include "src/common/coding.h"

namespace minicrypt {

PaddingTiers::PaddingTiers(std::vector<size_t> tiers) : tiers_(std::move(tiers)) {
  std::sort(tiers_.begin(), tiers_.end());
  tiers_.erase(std::unique(tiers_.begin(), tiers_.end()), tiers_.end());
  tiers_.erase(std::remove(tiers_.begin(), tiers_.end(), size_t{0}), tiers_.end());
}

PaddingTiers PaddingTiers::Exponential(size_t base, int count) {
  std::vector<size_t> tiers;
  size_t t = base;
  for (int i = 0; i < count; ++i) {
    tiers.push_back(t);
    t *= 2;
  }
  return PaddingTiers(std::move(tiers));
}

PaddingTiers PaddingTiers::SmallMediumLarge(size_t small, size_t medium, size_t large) {
  return PaddingTiers({small, medium, large});
}

size_t PaddingTiers::TierFor(size_t size) const {
  if (tiers_.empty()) {
    return size;
  }
  auto it = std::lower_bound(tiers_.begin(), tiers_.end(), size);
  if (it != tiers_.end()) {
    return *it;
  }
  // Above the largest tier: round up to a multiple of the largest tier.
  const size_t top = tiers_.back();
  return ((size + top - 1) / top) * top;
}

std::string PaddingTiers::Pad(std::string_view payload) const {
  std::string framed;
  PutVarint64(&framed, payload.size());
  framed.append(payload);
  const size_t target = TierFor(framed.size());
  if (framed.size() < target) {
    framed.append(target - framed.size(), '\0');
  }
  return framed;
}

Result<std::string_view> PaddingTiers::Unpad(std::string_view padded) {
  std::string_view in = padded;
  MC_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(&in));
  if (in.size() < len) {
    return Status::Corruption("padding frame shorter than declared payload");
  }
  return in.substr(0, len);
}

}  // namespace minicrypt
