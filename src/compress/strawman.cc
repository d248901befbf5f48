#include "src/compress/strawman.h"

#include <algorithm>

#include "src/common/coding.h"

namespace minicrypt {

Result<std::string> RleCompressor::Compress(std::string_view input) const {
  std::string out;
  PutVarint64(&out, input.size());
  size_t i = 0;
  while (i < input.size()) {
    const char byte = input[i];
    size_t run = 1;
    while (i + run < input.size() && input[i + run] == byte && run < 0xFFFFFF) {
      ++run;
    }
    PutVarint64(&out, run);
    out.push_back(byte);
    i += run;
  }
  return out;
}

Result<std::string> RleCompressor::Decompress(std::string_view input) const {
  std::string_view in = input;
  MC_ASSIGN_OR_RETURN(uint64_t total, GetVarint64(&in));
  if (total > (1ULL << 32)) {
    return Status::Corruption("rle: oversized frame");
  }
  std::string out;
  // A hint only, capped so a forged total cannot force a large allocation;
  // runs past it grow the string as they decode.
  out.reserve(std::min<uint64_t>(total, in.size() * 64));
  while (out.size() < total) {
    MC_ASSIGN_OR_RETURN(uint64_t run, GetVarint64(&in));
    if (in.empty() || run == 0 || out.size() + run > total) {
      return Status::Corruption("rle: malformed run");
    }
    out.append(run, in.front());
    in.remove_prefix(1);
  }
  return out;
}

uint32_t DictionaryEncoder::Intern(std::string_view value) {
  auto it = by_value_.find(value);
  if (it != by_value_.end()) {
    return it->second;
  }
  const auto code = static_cast<uint32_t>(by_code_.size());
  auto [pos, inserted] = by_value_.emplace(std::string(value), code);
  by_code_.push_back(pos->first);
  return code;
}

size_t DictionaryEncoder::CodeWidth() const {
  const size_t n = by_code_.size();
  if (n <= 0xFF) {
    return 1;
  }
  if (n <= 0xFFFF) {
    return 2;
  }
  if (n <= 0xFFFFFF) {
    return 3;
  }
  return 4;
}

Result<std::string> DictionaryEncoder::Encode(std::string_view value) const {
  auto it = by_value_.find(value);
  if (it == by_value_.end()) {
    return Status::NotFound("value not in dictionary");
  }
  const size_t width = CodeWidth();
  std::string out(width, '\0');
  uint32_t code = it->second;
  for (size_t i = 0; i < width; ++i) {
    out[i] = static_cast<char>(code >> (8 * i));
  }
  return out;
}

Result<std::string> DictionaryEncoder::Decode(std::string_view code_bytes) const {
  if (code_bytes.size() != CodeWidth()) {
    return Status::Corruption("dictionary: wrong code width");
  }
  uint32_t code = 0;
  for (size_t i = 0; i < code_bytes.size(); ++i) {
    code |= static_cast<uint32_t>(static_cast<unsigned char>(code_bytes[i])) << (8 * i);
  }
  if (code >= by_code_.size()) {
    return Status::Corruption("dictionary: code out of range");
  }
  return std::string(by_code_[code]);
}

size_t DictionaryEncoder::TableBytes() const {
  size_t bytes = 0;
  for (const auto& [value, code] : by_value_) {
    bytes += VarintLength(value.size()) + value.size() + CodeWidth();
  }
  return bytes;
}

}  // namespace minicrypt
