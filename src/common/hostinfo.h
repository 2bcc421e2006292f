#pragma once

// Host identification fields shared by the benchkit machine fingerprint
// (src/benchkit/machine.*) and the GEMM autotune cache key (src/la/autotune.*).
//
// Both consumers need the SAME answer to "is this the machine the numbers
// were produced on": the bench compare gate prints it so a reviewer can spot
// cross-machine comparisons, and the autotune cache keys its FMA-peak probe
// on it so a cache written on one CPU/compiler is never trusted on another.

#include <string>

namespace xgw {

/// /proc/cpuinfo "model name" (first occurrence), or "unknown".
/// Read once per process and cached.
const std::string& cpu_model_name();

/// Compiler id baked in at compile time, e.g. "gcc 12.2.0" / "clang 17.0.6".
std::string compiler_id();

}  // namespace xgw
