#pragma once

// Complex double-precision GEMM (ZGEMM), GEMV and Hermitian rank-k (ZHERK)
// updates, implemented from scratch.
//
// The paper's off-diagonal GPP kernel (Sec. 5.6) derives its performance from
// recasting the self-energy contraction into ZGEMM calls on one tuned engine
// per platform. xgw has one engine plus a reference loop:
//
//   kReference  — canonical triple loop; correctness baseline.
//   kSimd       — the engine: operands packed into split-complex (re/im
//                 planar) strips and driven by explicit register-blocked
//                 SIMD micro-kernels (la/microkernel.*): an MR x NR tile of C
//                 stays register-resident across each KC block. The kernel
//                 (AVX-512, AVX2, or scalar) and the {MR, NR, KC, NC} tiling
//                 come from runtime cpuid dispatch plus the disk-cached
//                 autotuner (la/autotune.*); single-threaded.
//   kParallel   — the engine with OpenMP over row panels; the packed-B panel
//                 is shared by the whole team and packed only once per
//                 (j0, l0) tile column. Requested from inside an active
//                 parallel region (or without threads), it degrades to kSimd
//                 AT THE DISPATCH POINT, so obs spans record the variant that
//                 actually ran.
//   kAuto       — shape- and ISA-aware dispatch: reference below a
//                 small-matrix cutoff, kSimd for mid sizes or when called
//                 from inside an active parallel region (nested-call
//                 safety), kParallel for large problems.
//
// zgemm on the engine is the one-item case of zgemm_batch's driver. All
// variants support op(A), op(B) in {none, transpose, conjugate-transpose}
// and are validated against each other by parameterized tests. kSimd and
// kParallel are bitwise identical by construction (each C tile receives its
// k-blocks in a fixed order regardless of thread count).
//
// Library code outside la/ calls the kAuto entry points; an explicit variant
// is for tests and benches.

#include "common/flops.h"
#include "la/matrix.h"
#include "la/simd.h"

namespace xgw {

enum class Op { kNone, kTrans, kConjTrans };

enum class GemmVariant {
  kReference,
  kSimd,
  kParallel,
  kAuto,
};

/// C = alpha * op(A) * op(B) + beta * C.
/// Shapes: op(A) is m x k, op(B) is k x n, C is m x n (checked).
/// beta == 0 overwrites C (NaN/Inf already in C does not survive).
/// If `flops` is non-null the canonical 8*m*n*k count is added to it.
void zgemm(Op opa, Op opb, cplx alpha, const ZMatrix& a, const ZMatrix& b,
           cplx beta, ZMatrix& c, GemmVariant variant = GemmVariant::kAuto,
           FlopCounter* flops = nullptr);

/// zgemm with kAuto dispatch and FLOP accounting.
inline void zgemm(Op opa, Op opb, cplx alpha, const ZMatrix& a,
                  const ZMatrix& b, cplx beta, ZMatrix& c,
                  FlopCounter* flops) {
  zgemm(opa, opb, alpha, a, b, beta, c, GemmVariant::kAuto, flops);
}

/// One batch member of zgemm_batch: an independent A operand and its C
/// output (both owned by the caller). The product lands in C rows
/// [c_row0, c_row0 + op(A).rows) — c_row0 = 0 with a tight C is the common
/// case; a non-zero c_row0 writes a row window of a taller matrix (e.g. the
/// chi NV-Block pair workspace, one window per valence band). Windows of
/// distinct items may target the same C object but must not overlap.
struct GemmBatchItem {
  const ZMatrix* a;
  ZMatrix* c;
  idx c_row0 = 0;
};

/// Batched small-GEMM: C_i = alpha * op(A_i) * op(B) + beta * C_i for many
/// independent products SHARING the right-hand operand B — the dominant
/// shape in the MTXEL->chi subspace projection (every valence block projects
/// onto the same basis) and the GWPT/GPP perturbed chains. The shared B
/// panel is packed ONCE per (k-block, column-block) and reused by every
/// item, and (item x row-panel) pairs are distributed across the OpenMP
/// team. Items may have different m; they must share k = op(B).rows.
/// Runs the engine (zgemm's kSimd/kParallel is this driver with one item),
/// except that batches whose AVERAGE item falls below the kAuto
/// small-matrix cutoff run the reference loop per item (packing the shared
/// panel would cost more than it saves). Either way results are bitwise
/// identical for any thread count (each C tile accumulates its k-blocks in
/// fixed order; the tiny path is serial), and a one-item batch equals
/// zgemm(kSimd) bitwise.
/// Counts the canonical sum_i 8*m_i*n*k FLOPs into `flops` if non-null.
void zgemm_batch(Op opa, Op opb, cplx alpha,
                 const std::vector<GemmBatchItem>& items, const ZMatrix& b,
                 cplx beta, FlopCounter* flops = nullptr);

/// Hermitian rank-k accumulation: C += A^H * B, where B = diag(w) * A for
/// REAL weights w so that the product is Hermitian (the CHI-Freq update
/// chi(omega) += M^H diag(Delta) M on the static / imaginary-frequency
/// axis). Only the upper triangle is computed — half the FLOPs of the
/// general zgemm — and the lower triangle is mirrored by conjugation, so C
/// is exactly Hermitian on exit (the diagonal is forced real).
/// Shapes: A, B are p x n; C is n x n (checked). Counts 4*n*(n+1)*p FLOPs.
void zherk_update(const ZMatrix& a, const ZMatrix& b, ZMatrix& c,
                  GemmVariant variant = GemmVariant::kAuto,
                  FlopCounter* flops = nullptr);

/// zherk_update with kAuto dispatch and FLOP accounting.
inline void zherk_update(const ZMatrix& a, const ZMatrix& b, ZMatrix& c,
                         FlopCounter* flops) {
  zherk_update(a, b, c, GemmVariant::kAuto, flops);
}

/// y = alpha * op(A) * x + beta * y. The Op::kNone path parallelizes over
/// rows for large m*k; `flops` (if non-null) accumulates 8*m*k.
void zgemv(Op opa, cplx alpha, const ZMatrix& a, const std::vector<cplx>& x,
           cplx beta, std::vector<cplx>& y, FlopCounter* flops = nullptr);

/// Returns op(A) dimensions (rows, cols) for shape checking.
std::pair<idx, idx> op_shape(Op op, const ZMatrix& a);

/// Cache-tile sizes of the engine (MC x KC A panels, KC x NC B panels),
/// exported for the roofline model in perf/. Reports the autotuned tiling
/// — i.e. gemm_v3_active_config() — so rooflines describe the tiles
/// actually run on this machine (first call may trigger the autotune
/// probe/sweep; see la/autotune.h).
struct GemmTiling {
  idx mc, kc, nc;
};
GemmTiling gemm_tiling();

/// Full engine configuration: which micro-kernel (isa, mr, nr) and which
/// cache tiling (mc, kc, nc) drive kSimd / kParallel / zgemm_batch.
struct GemmV3Config {
  la::SimdIsa isa;
  int mr, nr;
  idx mc, kc, nc;
};

/// The process-wide engine configuration: detected ISA + autotuned tiles
/// (lazily resolved through la/autotune.* on first use; cached thereafter).
const GemmV3Config& gemm_v3_active_config();

/// Run the engine under an EXPLICIT configuration, bypassing dispatch
/// and autotuning. For the autotune sweep, parity tests, and benches; the
/// (isa, mr, nr) kernel must exist (XGW_REQUIRE) and `cfg.isa` must be
/// executable on the host (caller's responsibility — stay at or below
/// la::detected_simd_isa()). No obs span, no FLOP attribution.
void zgemm_v3_explicit(const GemmV3Config& cfg, Op opa, Op opb, cplx alpha,
                       const ZMatrix& a, const ZMatrix& b, cplx beta,
                       ZMatrix& c, bool parallel);

/// The variant that zgemm would actually EXECUTE for this request at this
/// call site, after kAuto shape dispatch AND the nested-parallel guard:
/// kAuto resolves by work volume; an explicit (or resolved) kParallel
/// degrades to kSimd when called inside an active parallel region or
/// without an OpenMP team. Exposed so dispatch policy is testable and so
/// traces can attribute the true execution path. Never returns kAuto.
GemmVariant resolved_gemm_variant(GemmVariant requested, idx m, idx n, idx k);

/// True when the calling thread must not spawn a wide team: inside an
/// ACTIVE OpenMP parallel region (team size > 1), or on a task-graph
/// scheduler worker with live siblings (common/concurrency.h — OpenMP
/// cannot see those std::thread workers, so omp_in_parallel() alone would
/// let W workers each spawn a full team and oversubscribe W-fold).
/// Kernels that spawn teams use this to degrade to their serial variant;
/// the degraded variants are bitwise-identical, so only speed changes.
bool in_parallel_region();

/// Thread budget for xgw's own parallel kernels: XGW_NUM_THREADS when set
/// to a positive integer (read once), otherwise the OpenMP default
/// (omp_get_max_threads()); 1 in serial builds.
int xgw_num_threads();

}  // namespace xgw
