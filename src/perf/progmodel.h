#pragma once

// Programming-model efficiency factors (Sec. 7.1, Table 4 of the paper).
//
// The paper evaluates five models across the three GPU vendors. The factors
// below are TIME multipliers relative to each machine's best
// hardware-optimized implementation (CUDA / HIP / SYCL = 1.0), extracted
// from Table 4's 4-node column for the GPP kernel and from the GW-FF
// columns for the full-frequency path:
//   Perlmutter: OpenACC recovers >90% of CUDA; OMP(dagger) ~15-20% slower.
//   Frontier:   OpenACC gives 60-70% of HIP; the optimized OMP variant hits
//               a compiler pitfall (innermost strided loops parallelized
//               instead of serialized via `loop seq`) and is pathologically
//               slow — represented by a large factor.
//   Aurora:     OpenACC unsupported by Intel compilers (factor = inf);
//               optimized OMP ~2x SYCL; OMP(dagger) ~2.6x.
// These constants are *inputs from the paper*, used by the simulator to
// regenerate Table 4; the CPU analogue (our kernel variants) is measured
// separately in bench_table4_portability.

#include <limits>
#include <string>

#include "perf/machines.h"

namespace xgw {

enum class ProgModel { kCuda, kHip, kSycl, kOpenAcc, kOpenMpDagger, kOpenMpOpt };

std::string prog_model_name(ProgModel m);

/// Whether this (machine, model) pair exists in the paper's matrix.
bool prog_model_supported(MachineKind machine, ProgModel model);

enum class KernelClass { kGppDiag, kGwFullFreq };

/// Time multiplier >= 1 relative to the machine's best hardware-optimized
/// model; infinity when unsupported.
double prog_model_factor(MachineKind machine, ProgModel model,
                         KernelClass kernel);

/// The hardware-optimized model native to each machine.
ProgModel native_model(MachineKind machine);

/// Roofline entry for the CPU split-complex GEMM engine (la/gemm.h kSimd /
/// kParallel): attainable FLOP rate = min(peak, AI * BW) with the
/// arithmetic intensity computed from the engine's actual tile sizes
/// (gemm_tiling()) — the CPU analogue of the paper's shared-memory-staged
/// GPU GEMM, whose blocking exists precisely to push AI past the machine
/// balance point.
struct KernelRoofline {
  double arithmetic_intensity;  ///< FLOPs per byte of main-memory traffic
  double attainable_flops;      ///< min(peak, AI * bandwidth), FLOP/s
  bool compute_bound;           ///< AI above the machine balance point?
};

/// `peak_flops` in FLOP/s, `mem_bandwidth` in bytes/s. The traffic model
/// per (MC x NC) C tile and full K sweep: stream the A panel (16*MC*K),
/// the shared packed-B panel (16*K*NC, amortized over the row panels that
/// reuse it — `b_reuse` row panels share one packing), and read+write the
/// C tile once per K block (2 * 16*MC*NC * ceil(K/KC)).
KernelRoofline split_gemm_roofline(double peak_flops, double mem_bandwidth,
                                   idx k, idx b_reuse = 1);

}  // namespace xgw
