#include "la/microkernel.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#if defined(__x86_64__) && !defined(XGW_DISABLE_SIMD)
#include <immintrin.h>
#define XGW_X86_SIMD 1
#define XGW_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define XGW_TARGET_AVX512 __attribute__((target("avx512f")))
#endif

namespace xgw::la {

namespace {

// ---------------------------------------------------------------------------
// Scalar fallback kernel, MR=4 x NR=8.  Fixed trip counts so the compiler
// can fully unroll and (with the baseline ISA) auto-vectorize the j loop;
// correct on every target, including XGW_DISABLE_SIMD builds.

constexpr int kScalarMR = 4;
constexpr int kScalarNR = 8;

void mk_scalar_4x8(idx kb, const double* ar, const double* ai,
                   const double* br, const double* bi, double* cr, double* ci,
                   idx ldc, int mrem, int nrem) {
  double accr[kScalarMR][kScalarNR] = {};
  double acci[kScalarMR][kScalarNR] = {};
  for (idx l = 0; l < kb; ++l) {
    const double* blr = br + l * kScalarNR;
    const double* bli = bi + l * kScalarNR;
    for (int i = 0; i < kScalarMR; ++i) {
      const double av = ar[l * kScalarMR + i];
      const double aw = ai[l * kScalarMR + i];
      for (int j = 0; j < kScalarNR; ++j) {
        accr[i][j] += av * blr[j] - aw * bli[j];
        acci[i][j] += av * bli[j] + aw * blr[j];
      }
    }
  }
  for (int i = 0; i < mrem; ++i) {
    double* pr = cr + i * ldc;
    double* pi = ci + i * ldc;
    for (int j = 0; j < nrem; ++j) {
      pr[j] = accr[i][j];
      pi[j] = acci[i][j];
    }
  }
}

#ifdef XGW_X86_SIMD

// ---------------------------------------------------------------------------
// AVX2+FMA kernel (256-bit, 4 doubles/vector, 16 ymm registers).

// Store `lanes` (1..4) leading doubles of v at p.
XGW_TARGET_AVX2 inline void st256_tail(double* p, __m256d v, int lanes) {
  alignas(32) static const long long kMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
  const __m256i m = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + (4 - lanes)));
  _mm256_maskstore_pd(p, m, v);
}

// Store the leading nrem (0..8) doubles of the (v0, v1) register row at p.
XGW_TARGET_AVX2 inline void st256_row(double* p, __m256d v0, __m256d v1,
                                      int nrem) {
  if (nrem >= 4) {
    _mm256_storeu_pd(p, v0);
    if (nrem >= 8)
      _mm256_storeu_pd(p + 4, v1);
    else if (nrem > 4)
      st256_tail(p + 4, v1, nrem - 4);
  } else if (nrem > 0) {
    st256_tail(p, v0, nrem);
  }
}

// MR=2 x NR=8: 8 ymm accumulators + 4 B vectors + 2 broadcasts = 14 regs.
XGW_TARGET_AVX2 void mk_avx2_2x8(idx kb, const double* ar, const double* ai,
                                 const double* br, const double* bi,
                                 double* cr, double* ci, idx ldc, int mrem,
                                 int nrem) {
  __m256d c00r = _mm256_setzero_pd(), c01r = _mm256_setzero_pd();
  __m256d c00i = _mm256_setzero_pd(), c01i = _mm256_setzero_pd();
  __m256d c10r = _mm256_setzero_pd(), c11r = _mm256_setzero_pd();
  __m256d c10i = _mm256_setzero_pd(), c11i = _mm256_setzero_pd();
  for (idx l = 0; l < kb; ++l) {
    const __m256d b0r = _mm256_loadu_pd(br + l * 8);
    const __m256d b1r = _mm256_loadu_pd(br + l * 8 + 4);
    const __m256d b0i = _mm256_loadu_pd(bi + l * 8);
    const __m256d b1i = _mm256_loadu_pd(bi + l * 8 + 4);

    __m256d av = _mm256_broadcast_sd(ar + l * 2);
    __m256d aw = _mm256_broadcast_sd(ai + l * 2);
    c00r = _mm256_fmadd_pd(av, b0r, c00r);
    c00r = _mm256_fnmadd_pd(aw, b0i, c00r);
    c00i = _mm256_fmadd_pd(av, b0i, c00i);
    c00i = _mm256_fmadd_pd(aw, b0r, c00i);
    c01r = _mm256_fmadd_pd(av, b1r, c01r);
    c01r = _mm256_fnmadd_pd(aw, b1i, c01r);
    c01i = _mm256_fmadd_pd(av, b1i, c01i);
    c01i = _mm256_fmadd_pd(aw, b1r, c01i);

    av = _mm256_broadcast_sd(ar + l * 2 + 1);
    aw = _mm256_broadcast_sd(ai + l * 2 + 1);
    c10r = _mm256_fmadd_pd(av, b0r, c10r);
    c10r = _mm256_fnmadd_pd(aw, b0i, c10r);
    c10i = _mm256_fmadd_pd(av, b0i, c10i);
    c10i = _mm256_fmadd_pd(aw, b0r, c10i);
    c11r = _mm256_fmadd_pd(av, b1r, c11r);
    c11r = _mm256_fnmadd_pd(aw, b1i, c11r);
    c11i = _mm256_fmadd_pd(av, b1i, c11i);
    c11i = _mm256_fmadd_pd(aw, b1r, c11i);
  }
  st256_row(cr, c00r, c01r, nrem);
  st256_row(ci, c00i, c01i, nrem);
  if (mrem > 1) {
    st256_row(cr + ldc, c10r, c11r, nrem);
    st256_row(ci + ldc, c10i, c11i, nrem);
  }
}

// ---------------------------------------------------------------------------
// AVX-512F kernel (512-bit, 8 doubles/vector, 32 zmm registers).

// Store the leading nrem (0..16) doubles of the (v0, v1) register row at p.
XGW_TARGET_AVX512 inline void st512_row(double* p, __m512d v0, __m512d v1,
                                        int nrem) {
  if (nrem >= 16) {
    _mm512_storeu_pd(p, v0);
    _mm512_storeu_pd(p + 8, v1);
    return;
  }
  const __mmask8 m0 =
      nrem >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << nrem) - 1u);
  _mm512_mask_storeu_pd(p, m0, v0);
  if (nrem > 8)
    _mm512_mask_storeu_pd(
        p + 8, static_cast<__mmask8>((1u << (nrem - 8)) - 1u), v1);
}

// MR=4 x NR=16: 16 zmm accumulators + 4 B vectors + 2 broadcasts = 22 regs:
// the widest B row that still leaves the accumulators resident, 4-deep
// broadcast reuse of each B load.
XGW_TARGET_AVX512 void mk_avx512_4x16(idx kb, const double* ar,
                                      const double* ai, const double* br,
                                      const double* bi, double* cr, double* ci,
                                      idx ldc, int mrem, int nrem) {
  __m512d c0r0 = _mm512_setzero_pd(), c0r1 = _mm512_setzero_pd();
  __m512d c0i0 = _mm512_setzero_pd(), c0i1 = _mm512_setzero_pd();
  __m512d c1r0 = _mm512_setzero_pd(), c1r1 = _mm512_setzero_pd();
  __m512d c1i0 = _mm512_setzero_pd(), c1i1 = _mm512_setzero_pd();
  __m512d c2r0 = _mm512_setzero_pd(), c2r1 = _mm512_setzero_pd();
  __m512d c2i0 = _mm512_setzero_pd(), c2i1 = _mm512_setzero_pd();
  __m512d c3r0 = _mm512_setzero_pd(), c3r1 = _mm512_setzero_pd();
  __m512d c3i0 = _mm512_setzero_pd(), c3i1 = _mm512_setzero_pd();
  for (idx l = 0; l < kb; ++l) {
    const __m512d b0r = _mm512_loadu_pd(br + l * 16);
    const __m512d b1r = _mm512_loadu_pd(br + l * 16 + 8);
    const __m512d b0i = _mm512_loadu_pd(bi + l * 16);
    const __m512d b1i = _mm512_loadu_pd(bi + l * 16 + 8);

    __m512d av = _mm512_set1_pd(ar[l * 4 + 0]);
    __m512d aw = _mm512_set1_pd(ai[l * 4 + 0]);
    c0r0 = _mm512_fmadd_pd(av, b0r, c0r0);
    c0r0 = _mm512_fnmadd_pd(aw, b0i, c0r0);
    c0i0 = _mm512_fmadd_pd(av, b0i, c0i0);
    c0i0 = _mm512_fmadd_pd(aw, b0r, c0i0);
    c0r1 = _mm512_fmadd_pd(av, b1r, c0r1);
    c0r1 = _mm512_fnmadd_pd(aw, b1i, c0r1);
    c0i1 = _mm512_fmadd_pd(av, b1i, c0i1);
    c0i1 = _mm512_fmadd_pd(aw, b1r, c0i1);

    av = _mm512_set1_pd(ar[l * 4 + 1]);
    aw = _mm512_set1_pd(ai[l * 4 + 1]);
    c1r0 = _mm512_fmadd_pd(av, b0r, c1r0);
    c1r0 = _mm512_fnmadd_pd(aw, b0i, c1r0);
    c1i0 = _mm512_fmadd_pd(av, b0i, c1i0);
    c1i0 = _mm512_fmadd_pd(aw, b0r, c1i0);
    c1r1 = _mm512_fmadd_pd(av, b1r, c1r1);
    c1r1 = _mm512_fnmadd_pd(aw, b1i, c1r1);
    c1i1 = _mm512_fmadd_pd(av, b1i, c1i1);
    c1i1 = _mm512_fmadd_pd(aw, b1r, c1i1);

    av = _mm512_set1_pd(ar[l * 4 + 2]);
    aw = _mm512_set1_pd(ai[l * 4 + 2]);
    c2r0 = _mm512_fmadd_pd(av, b0r, c2r0);
    c2r0 = _mm512_fnmadd_pd(aw, b0i, c2r0);
    c2i0 = _mm512_fmadd_pd(av, b0i, c2i0);
    c2i0 = _mm512_fmadd_pd(aw, b0r, c2i0);
    c2r1 = _mm512_fmadd_pd(av, b1r, c2r1);
    c2r1 = _mm512_fnmadd_pd(aw, b1i, c2r1);
    c2i1 = _mm512_fmadd_pd(av, b1i, c2i1);
    c2i1 = _mm512_fmadd_pd(aw, b1r, c2i1);

    av = _mm512_set1_pd(ar[l * 4 + 3]);
    aw = _mm512_set1_pd(ai[l * 4 + 3]);
    c3r0 = _mm512_fmadd_pd(av, b0r, c3r0);
    c3r0 = _mm512_fnmadd_pd(aw, b0i, c3r0);
    c3i0 = _mm512_fmadd_pd(av, b0i, c3i0);
    c3i0 = _mm512_fmadd_pd(aw, b0r, c3i0);
    c3r1 = _mm512_fmadd_pd(av, b1r, c3r1);
    c3r1 = _mm512_fnmadd_pd(aw, b1i, c3r1);
    c3i1 = _mm512_fmadd_pd(av, b1i, c3i1);
    c3i1 = _mm512_fmadd_pd(aw, b1r, c3i1);
  }
  st512_row(cr, c0r0, c0r1, nrem);
  st512_row(ci, c0i0, c0i1, nrem);
  if (mrem > 1) {
    st512_row(cr + ldc, c1r0, c1r1, nrem);
    st512_row(ci + ldc, c1i0, c1i1, nrem);
  }
  if (mrem > 2) {
    st512_row(cr + 2 * ldc, c2r0, c2r1, nrem);
    st512_row(ci + 2 * ldc, c2i0, c2i1, nrem);
  }
  if (mrem > 3) {
    st512_row(cr + 3 * ldc, c3r0, c3r1, nrem);
    st512_row(ci + 3 * ldc, c3i0, c3i1, nrem);
  }
}

#endif  // XGW_X86_SIMD

// ---------------------------------------------------------------------------
// FMA peak probes.  Each runs `iters` steps of 8 independent register FMA
// chains (covers FMA latency x throughput on current cores) and returns a
// checksum so the optimizer cannot delete the loop.

constexpr double kProbeMul = 1.0000000001;
constexpr double kProbeAdd = 1e-12;

double probe_chain_scalar(long long iters) {
  double a0 = 1.0, a1 = 1.1, a2 = 1.2, a3 = 1.3;
  double a4 = 1.4, a5 = 1.5, a6 = 1.6, a7 = 1.7;
  for (long long it = 0; it < iters; ++it) {
    a0 = std::fma(a0, kProbeMul, kProbeAdd);
    a1 = std::fma(a1, kProbeMul, kProbeAdd);
    a2 = std::fma(a2, kProbeMul, kProbeAdd);
    a3 = std::fma(a3, kProbeMul, kProbeAdd);
    a4 = std::fma(a4, kProbeMul, kProbeAdd);
    a5 = std::fma(a5, kProbeMul, kProbeAdd);
    a6 = std::fma(a6, kProbeMul, kProbeAdd);
    a7 = std::fma(a7, kProbeMul, kProbeAdd);
  }
  return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
}

#ifdef XGW_X86_SIMD

XGW_TARGET_AVX2 double probe_chain_avx2(long long iters) {
  const __m256d mul = _mm256_set1_pd(kProbeMul);
  const __m256d add = _mm256_set1_pd(kProbeAdd);
  __m256d a0 = _mm256_set1_pd(1.0), a1 = _mm256_set1_pd(1.1);
  __m256d a2 = _mm256_set1_pd(1.2), a3 = _mm256_set1_pd(1.3);
  __m256d a4 = _mm256_set1_pd(1.4), a5 = _mm256_set1_pd(1.5);
  __m256d a6 = _mm256_set1_pd(1.6), a7 = _mm256_set1_pd(1.7);
  for (long long it = 0; it < iters; ++it) {
    a0 = _mm256_fmadd_pd(a0, mul, add);
    a1 = _mm256_fmadd_pd(a1, mul, add);
    a2 = _mm256_fmadd_pd(a2, mul, add);
    a3 = _mm256_fmadd_pd(a3, mul, add);
    a4 = _mm256_fmadd_pd(a4, mul, add);
    a5 = _mm256_fmadd_pd(a5, mul, add);
    a6 = _mm256_fmadd_pd(a6, mul, add);
    a7 = _mm256_fmadd_pd(a7, mul, add);
  }
  const __m256d s = _mm256_add_pd(_mm256_add_pd(a0, a1),
                                  _mm256_add_pd(_mm256_add_pd(a2, a3),
                                                _mm256_add_pd(
                                                    _mm256_add_pd(a4, a5),
                                                    _mm256_add_pd(a6, a7))));
  alignas(32) double out[4];
  _mm256_store_pd(out, s);
  return out[0] + out[1] + out[2] + out[3];
}

XGW_TARGET_AVX512 double probe_chain_avx512(long long iters) {
  const __m512d mul = _mm512_set1_pd(kProbeMul);
  const __m512d add = _mm512_set1_pd(kProbeAdd);
  __m512d a0 = _mm512_set1_pd(1.0), a1 = _mm512_set1_pd(1.1);
  __m512d a2 = _mm512_set1_pd(1.2), a3 = _mm512_set1_pd(1.3);
  __m512d a4 = _mm512_set1_pd(1.4), a5 = _mm512_set1_pd(1.5);
  __m512d a6 = _mm512_set1_pd(1.6), a7 = _mm512_set1_pd(1.7);
  for (long long it = 0; it < iters; ++it) {
    a0 = _mm512_fmadd_pd(a0, mul, add);
    a1 = _mm512_fmadd_pd(a1, mul, add);
    a2 = _mm512_fmadd_pd(a2, mul, add);
    a3 = _mm512_fmadd_pd(a3, mul, add);
    a4 = _mm512_fmadd_pd(a4, mul, add);
    a5 = _mm512_fmadd_pd(a5, mul, add);
    a6 = _mm512_fmadd_pd(a6, mul, add);
    a7 = _mm512_fmadd_pd(a7, mul, add);
  }
  const __m512d s =
      _mm512_add_pd(_mm512_add_pd(a0, a1),
                    _mm512_add_pd(_mm512_add_pd(a2, a3),
                                  _mm512_add_pd(_mm512_add_pd(a4, a5),
                                                _mm512_add_pd(a6, a7))));
  alignas(64) double out[8];
  _mm512_store_pd(out, s);
  double total = 0.0;
  for (double v : out) total += v;
  return total;
}

#endif  // XGW_X86_SIMD

volatile double g_probe_sink = 0.0;

double run_probe(double (*chain)(long long), double flops_per_iter,
                 double budget_ms) {
  long long iters = 1 << 12;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    g_probe_sink = g_probe_sink + chain(iters);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (sec * 1e3 >= budget_ms || iters >= (1LL << 34))
      return flops_per_iter * static_cast<double>(iters) / sec * 1e-9;
    // Aim past the budget next round to keep total probe cost ~2x budget.
    iters *= (sec * 1e3 < budget_ms / 8.0) ? 8 : 2;
  }
}

}  // namespace

MicroKernel select_microkernel(SimdIsa isa) {
#ifdef XGW_X86_SIMD
  switch (isa) {
    case SimdIsa::kAvx512:
      return {4, 16, &mk_avx512_4x16};
    case SimdIsa::kAvx2:
      return {2, 8, &mk_avx2_2x8};
    case SimdIsa::kScalar:
      break;
  }
#endif
  (void)isa;
  return {kScalarMR, kScalarNR, &mk_scalar_4x8};
}

double fma_peak_gflops(SimdIsa isa, double budget_ms) {
#ifdef XGW_X86_SIMD
  if (isa == SimdIsa::kAvx512 && detected_simd_isa() >= SimdIsa::kAvx512)
    return run_probe(&probe_chain_avx512, 8.0 * 8.0 * 2.0, budget_ms);
  if (isa >= SimdIsa::kAvx2 && detected_simd_isa() >= SimdIsa::kAvx2)
    return run_probe(&probe_chain_avx2, 8.0 * 4.0 * 2.0, budget_ms);
#endif
  (void)isa;
  return run_probe(&probe_chain_scalar, 8.0 * 2.0, budget_ms);
}

void pack_a_strips(Op opa, const ZMatrix& a, idx i0, idx mb, idx l0, idx kb,
                   int mr, double* re, double* im) {
  const idx n_strips = (mb + mr - 1) / mr;
  for (idx s = 0; s < n_strips; ++s) {
    double* sr = re + s * kb * mr;
    double* si = im + s * kb * mr;
    const idx rows = std::min<idx>(mr, mb - s * mr);
    if (rows < mr) {
      // Edge strip: zero the pad rows once, then overwrite the live ones.
      std::fill(sr, sr + kb * mr, 0.0);
      std::fill(si, si + kb * mr, 0.0);
    }
    if (opa == Op::kNone) {
      for (idx i = 0; i < rows; ++i) {
        const cplx* src = a.row(i0 + s * mr + i) + l0;
        for (idx l = 0; l < kb; ++l) {
          sr[l * mr + i] = src[l].real();
          si[l * mr + i] = src[l].imag();
        }
      }
    } else {
      const double sg = (opa == Op::kConjTrans) ? -1.0 : 1.0;
      // op(A)(i, l) = A(l, i): walk source rows (contraction index) so the
      // reads are contiguous; writes hit one mr-group per l.
      for (idx l = 0; l < kb; ++l) {
        const cplx* src = a.row(l0 + l) + (i0 + s * mr);
        for (idx i = 0; i < rows; ++i) {
          sr[l * mr + i] = src[i].real();
          si[l * mr + i] = sg * src[i].imag();
        }
      }
    }
  }
}

void pack_b_strips_row(Op opb, const ZMatrix& b, idx l0, idx l, idx j0,
                       idx nb, int nr, idx kb, double* re, double* im) {
  const idx n_strips = (nb + nr - 1) / nr;
  for (idx t = 0; t < n_strips; ++t) {
    double* dr = re + t * kb * nr + l * nr;
    double* di = im + t * kb * nr + l * nr;
    const idx cols = std::min<idx>(nr, nb - t * nr);
    for (idx j = cols; j < nr; ++j) {
      dr[j] = 0.0;
      di[j] = 0.0;
    }
    if (opb == Op::kNone) {
      const cplx* src = b.row(l0 + l) + (j0 + t * nr);
      for (idx j = 0; j < cols; ++j) {
        dr[j] = src[j].real();
        di[j] = src[j].imag();
      }
    } else {
      const double sg = (opb == Op::kConjTrans) ? -1.0 : 1.0;
      for (idx j = 0; j < cols; ++j) {
        const cplx v = b(j0 + t * nr + j, l0 + l);
        dr[j] = v.real();
        di[j] = sg * v.imag();
      }
    }
  }
}

}  // namespace xgw::la
