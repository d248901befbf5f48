// Runtime CPU-feature probe and SIMD dispatch control.
//
// The in-repo vectorized hot-path kernels (codec wild copies, hardware
// CRC32C) consult this module at call time and fall back to their portable
// scalar implementations when the hardware lacks the instruction set or the
// operator forced scalar mode. The scalar paths are the test oracle: SIMD
// output must be byte-identical (tests/simd_kernels_test.cc). AES-GCM is not
// dispatched here; OpenSSL picks its own implementation.
//
// Environment knobs (read once, before the first dispatch decision):
//   MC_NO_SIMD=1     force every kernel onto its scalar path
//   MC_SIMD_LEVEL=N  cap the dispatch level (0=scalar, 1=sse42, 2=avx2);
//                    capped further by what the CPU actually supports
//
// Tests can move the level at runtime with OverrideSimdLevelForTest(); the
// override is likewise clamped to hardware capability, so asking for AVX2 on
// a machine without it silently tests the next level down (the differential
// tests iterate over SupportedSimdLevels() to cover exactly what can run).

#ifndef MINICRYPT_SRC_COMMON_CPU_FEATURES_H_
#define MINICRYPT_SRC_COMMON_CPU_FEATURES_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace minicrypt {

// Dispatch tiers for the integer/codec kernels, ordered: every level implies
// the ones below it.
enum class SimdLevel : int {
  kScalar = 0,  // portable C++, no intrinsics
  kSse42 = 1,   // SSE2..SSE4.2 (16-byte copies, CRC32C instruction)
  kAvx2 = 2,    // AVX2 (32-byte copies)
};

// What the hardware offers, probed once per process.
struct CpuFeatures {
  bool sse42 = false;
  bool avx2 = false;
  SimdLevel max_level = SimdLevel::kScalar;
};

// The probed hardware capabilities (independent of any override).
const CpuFeatures& HostCpuFeatures();

// Current dispatch level: min(hardware, MC_SIMD_LEVEL cap, test override),
// or kScalar when MC_NO_SIMD=1. Cheap (one relaxed atomic load) — kernels
// call this per operation.
SimdLevel CurrentSimdLevel();

// Test hook: clamps to hardware capability and returns the level actually in
// effect. Pass the host max_level to restore the default.
SimdLevel OverrideSimdLevelForTest(SimdLevel level);

// Every level in [kScalar, effective max], for differential tests.
std::vector<SimdLevel> SupportedSimdLevels();

const char* SimdLevelName(SimdLevel level);

// The codec.dispatch.{scalar,sse42,avx2} counters are recorded by the kernel
// call sites via RecordKernelDispatch() in src/obs/metrics.h (this module
// sits below the metrics registry in the dependency order).

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_COMMON_CPU_FEATURES_H_
