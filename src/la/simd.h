#pragma once

// Runtime CPU-feature detection for the GEMM engine (la/gemm.h).
//
// The library is built without -march assumptions (portable baseline); the
// explicit AVX2 / AVX-512 micro-kernels in la/microkernel.* are compiled with
// per-function target attributes and are only ever *called* when this module
// says the host can execute them.  Detection uses cpuid (feature bits) plus
// XGETBV (the OS must have enabled YMM/ZMM state saving) — a kernel launched
// on hardware with AVX-512 but an OS that does not context-switch ZMM state
// must fall back, or the first FMA would fault.
//
// Build-time opt-out: configuring with -DXGW_DISABLE_SIMD=ON compiles the
// scalar fallback only; detection then always reports kScalar.
// Runtime downgrade: XGW_SIMD=scalar|avx2|avx512 caps the detected level
// (it can never raise it above what the host supports).

#include <string>

namespace xgw::la {

enum class SimdIsa {
  kScalar = 0,  ///< portable C++ fallback, no intrinsics
  kAvx2 = 1,    ///< AVX2 + FMA3, 256-bit (4 doubles/vector)
  kAvx512 = 2,  ///< AVX-512F, 512-bit (8 doubles/vector)
};

/// Raw hardware+OS capability (cpuid + XCR0), ignoring the XGW_SIMD override.
/// Always kScalar when built with XGW_DISABLE_SIMD or on non-x86_64 targets.
SimdIsa hardware_simd_isa();

/// Effective ISA for kernel dispatch: hardware capability capped by the
/// XGW_SIMD environment override.  Cached after the first call.
SimdIsa detected_simd_isa();

/// "scalar" / "avx2" / "avx512"
const char* simd_isa_name(SimdIsa isa);

/// Parse "scalar"/"avx2"/"avx512" (case-sensitive); returns false on
/// anything else.
bool parse_simd_isa(const std::string& s, SimdIsa* out);

/// Human-readable feature summary for logs, e.g.
/// "sse2 avx avx2 fma avx512f (dispatch: avx512)".  Used by the CI perf-gate
/// log and bench headers so cross-machine comparisons are visible.
std::string simd_feature_string();

/// doubles per vector register for the ISA (1 / 4 / 8)
int simd_vector_width(SimdIsa isa);

}  // namespace xgw::la
