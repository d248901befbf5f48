#include "src/common/cpu_features.h"

#include <atomic>
#include <cstdlib>

namespace minicrypt {

namespace {

#if defined(__x86_64__) || defined(__i386__)
#define MC_X86 1
#else
#define MC_X86 0
#endif

CpuFeatures ProbeCpu() {
  CpuFeatures f;
#if MC_X86 && defined(__GNUC__)
  __builtin_cpu_init();
  f.sse42 = __builtin_cpu_supports("sse4.2") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
  f.max_level = f.avx2 ? SimdLevel::kAvx2
                       : (f.sse42 ? SimdLevel::kSse42 : SimdLevel::kScalar);
  return f;
}

SimdLevel ClampToHost(SimdLevel level) {
  const SimdLevel host = HostCpuFeatures().max_level;
  return static_cast<int>(level) > static_cast<int>(host) ? host : level;
}

// Initial level: hardware max, capped by MC_SIMD_LEVEL, zeroed by MC_NO_SIMD.
SimdLevel InitialLevel() {
  const char* no_simd = std::getenv("MC_NO_SIMD");
  if (no_simd != nullptr && no_simd[0] == '1') {
    return SimdLevel::kScalar;
  }
  SimdLevel level = HostCpuFeatures().max_level;
  if (const char* cap = std::getenv("MC_SIMD_LEVEL"); cap != nullptr) {
    const long v = std::strtol(cap, nullptr, 10);
    if (v >= 0 && v <= static_cast<long>(SimdLevel::kAvx2)) {
      level = ClampToHost(static_cast<SimdLevel>(v));
    }
  }
  return level;
}

std::atomic<int>& LevelAtom() {
  static std::atomic<int> level{static_cast<int>(InitialLevel())};
  return level;
}

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures features = ProbeCpu();
  return features;
}

SimdLevel CurrentSimdLevel() {
  return static_cast<SimdLevel>(LevelAtom().load(std::memory_order_relaxed));
}

SimdLevel OverrideSimdLevelForTest(SimdLevel level) {
  const SimdLevel effective = ClampToHost(level);
  LevelAtom().store(static_cast<int>(effective), std::memory_order_relaxed);
  return effective;
}

std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> levels;
  const int max = static_cast<int>(HostCpuFeatures().max_level);
  for (int l = 0; l <= max; ++l) {
    levels.push_back(static_cast<SimdLevel>(l));
  }
  return levels;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse42:
      return "sse42";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace minicrypt
