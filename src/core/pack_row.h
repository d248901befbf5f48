// The row format of a sealed pack in the store: the envelope in cell "v" and
// its SHA-256 in cell "h". GENERIC packs, secondary-index packs and APPEND's
// merged packs all use it. The hash cell is what version probes
// (Cluster::ReadFloorCell) and LWT conditions compare, so a pack can be
// revalidated or replaced without shipping its envelope.

#ifndef MINICRYPT_SRC_CORE_PACK_ROW_H_
#define MINICRYPT_SRC_CORE_PACK_ROW_H_

#include <string>
#include <string_view>
#include <utility>

#include "src/common/status.h"
#include "src/core/pack_crypter.h"
#include "src/kvstore/row.h"

namespace minicrypt {

inline constexpr std::string_view kValueColumn = "v";
inline constexpr std::string_view kHashColumn = "h";

// The row that stores `sealed`.
inline Row PackRow(const SealedPack& sealed) {
  Row row;
  row.cells[std::string(kValueColumn)] = Cell{sealed.envelope, 0, false};
  row.cells[std::string(kHashColumn)] = Cell{sealed.hash, 0, false};
  return row;
}

// (envelope, hash) of a pack row, viewing into `row`. Corruption when either
// cell is missing.
inline Result<std::pair<std::string_view, std::string_view>> ExtractPackCells(const Row& row) {
  auto v = row.cells.find(kValueColumn);
  auto h = row.cells.find(kHashColumn);
  if (v == row.cells.end() || h == row.cells.end()) {
    return Status::Corruption("pack row missing value/hash cells");
  }
  return std::make_pair(std::string_view(v->second.value), std::string_view(h->second.value));
}

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_CORE_PACK_ROW_H_
