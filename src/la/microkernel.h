#pragma once

// Explicit SIMD micro-kernels for the GEMM engine (la/gemm.h).
//
// Rather than streaming a C accumulator tile through memory on every k
// iteration and relying on compiler auto-vectorization, the engine keeps an
// MR x NR register tile of C resident across the whole KC-block
// contraction: each kernel call computes one tile of
//
//     Cacc[tile] = sum_l A_strip(l) (x) B_strip(l)
//
// over the split-complex planar layout (re/im planes), issuing raw FMAs via
// intrinsics.  Kernels are compiled with per-function target attributes
// (__attribute__((target("avx2,fma"))) / target("avx512f")) so the library
// builds with a portable baseline -march and selects at runtime via
// la/simd.h.  A scalar C++ kernel backs every build, including
// -DXGW_DISABLE_SIMD=ON and non-x86 targets.
//
// Strip layout (what the pack_*_strips helpers produce, what kernels read):
//   A panel: ceil(mb/MR) strips; strip s holds rows [s*MR, s*MR+MR) as
//            kb consecutive groups of MR doubles: a[l*MR + i].  Rows past
//            mb are zero-padded, so kernels never need masked loads on the
//            m edge.
//   B panel: ceil(nb/NR) strips; strip t holds cols [t*NR, t*NR+NR) as
//            b[l*NR + j], zero-padded past nb.
//   C tile:  written (NOT accumulated) into the planar Cacc scratch at
//            (cr, ci) with row stride ldc; only the valid mrem x nrem
//            region is stored (masked/partial stores on the n edge), so
//            Cacc needs no zeroing between calls.

#include <vector>

#include "la/gemm.h"
#include "la/simd.h"

namespace xgw::la {

/// Register-tile footprint of one micro-kernel.
struct TileShape {
  int mr, nr;
};

/// One micro-kernel call: overwrite the mrem x nrem C tile with the product
/// of one zero-padded MR-row A strip and one NR-col B strip over kb.
using MicroKernelFn = void (*)(idx kb, const double* ar, const double* ai,
                               const double* br, const double* bi, double* cr,
                               double* ci, idx ldc, int mrem, int nrem);

/// Register-tile candidates compiled for `isa`, best-guess first.  The
/// autotuner sweeps exactly this list.  Never empty: the scalar list backs
/// ISAs whose kernels were not compiled (XGW_DISABLE_SIMD / non-x86).
const std::vector<TileShape>& kernel_candidates(SimdIsa isa);

/// First (default) candidate for `isa` — used when autotuning is disabled.
TileShape default_tile(SimdIsa isa);

/// Kernel for (isa, mr, nr), or nullptr when that tile is not compiled for
/// that ISA.  Executing a non-scalar kernel is only safe when
/// detected_simd_isa() >= isa.
MicroKernelFn select_microkernel(SimdIsa isa, int mr, int nr);

/// Measured FMA peak of one core at `isa` width (GFLOP/s), via chains of
/// independent register FMAs (SNIPPETS.md snippet 3 pattern: enough chains
/// to cover the FMA latency-bandwidth product, checksum defeats DCE).
/// Falls back to the scalar probe when the ISA is not compiled/executable.
double fma_peak_gflops(SimdIsa isa, double budget_ms = 20.0);

/// Pack op(A)[i0:i0+mb, l0:l0+kb] into zero-padded MR strips (layout above).
/// Both planes need ceil(mb/mr)*mr*kb doubles.
void pack_a_strips(Op opa, const ZMatrix& a, idx i0, idx mb, idx l0, idx kb,
                   int mr, double* re, double* im);

/// Pack ONE logical row l of op(B)[l0:l0+kb, j0:j0+nb] into zero-padded NR
/// strips; row granularity lets the parallel engine split the shared-B pack
/// across the team.  Strip stride is kb*nr; planes need ceil(nb/nr)*nr*kb.
void pack_b_strips_row(Op opb, const ZMatrix& b, idx l0, idx l, idx j0,
                       idx nb, int nr, idx kb, double* re, double* im);

}  // namespace xgw::la
