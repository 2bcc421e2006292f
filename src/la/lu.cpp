#include "la/lu.h"

#include <algorithm>
#include <cmath>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/validate.h"
#include "la/gemm.h"

namespace xgw {

namespace {

constexpr idx kParallelMinN = 128;  // smaller systems solve on one thread

// The two product forms GCC 12 fused in the unpinned build (-O3
// -march=native, read off -fdump-tree-optimized). Both fuse s_r x_r into
// the real part and round s_i x_i; they differ in which imaginary-part
// product is fused and which is rounded first.
//   mul_fuse_xi: the multiplier, the elimination and the back substitution
//   mul_fuse_xr: the forward substitution
inline cplx mul_fuse_xi(cplx s, cplx x) {
  return {std::fma(s.real(), x.real(), -(s.imag() * x.imag())),
          std::fma(s.real(), x.imag(), s.imag() * x.real())};
}

inline cplx mul_fuse_xr(cplx s, cplx x) {
  return {std::fma(s.real(), x.real(), -(s.imag() * x.imag())),
          std::fma(s.imag(), x.real(), s.real() * x.imag())};
}

// Factorizes `a` in place (L unit-lower and U upper packed) and returns the
// pivot row of each step.
std::vector<idx> factorize(ZMatrix& a) {
  XGW_REQUIRE(a.rows() == a.cols(), "LU: matrix must be square");
  require_finite(a, "LU: input matrix");
  const idx n = a.rows();
  std::vector<idx> pivots(static_cast<std::size_t>(n));

  for (idx k = 0; k < n; ++k) {
    // Partial pivot: largest |a_ik| for i >= k.
    idx piv = k;
    double best = std::abs(a(k, k));
    for (idx i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    XGW_REQUIRE(best > 0.0, "LU: matrix is singular");
    pivots[static_cast<std::size_t>(k)] = piv;
    if (piv != k) std::swap_ranges(a.row(k), a.row(k) + n, a.row(piv));
    const cplx inv_diag = 1.0 / a(k, k);
    const cplx* urow = a.row(k);
    for (idx i = k + 1; i < n; ++i) {
      cplx* irow = a.row(i);
      const cplx lik = mul_fuse_xi(inv_diag, irow[k]);
      irow[k] = lik;
      if (lik != cplx{}) {
        for (idx j = k + 1; j < n; ++j) irow[j] -= mul_fuse_xi(lik, urow[j]);
      }
    }
  }
  return pivots;
}

// P, then L^{-1}, then U^{-1} applied to columns [c0, c1) of the n x m
// row-major right-hand side x.
void solve_columns(const ZMatrix& lu, const std::vector<idx>& pivots,
                   cplx* x, idx m, idx c0, idx c1) {
  const idx n = lu.rows();
  const idx w = c1 - c0;
  const auto xrow = [&](idx i) { return x + i * m + c0; };
  for (idx k = 0; k < n; ++k) {
    const idx piv = pivots[static_cast<std::size_t>(k)];
    if (piv != k) std::swap_ranges(xrow(k), xrow(k) + w, xrow(piv));
  }
  // Forward substitution (unit lower).
  for (idx i = 1; i < n; ++i) {
    const cplx* lrow = lu.row(i);
    cplx* xi = xrow(i);
    for (idx j = 0; j < i; ++j) {
      const cplx l = lrow[j];
      const cplx* xj = xrow(j);
      for (idx c = 0; c < w; ++c) xi[c] -= mul_fuse_xr(l, xj[c]);
    }
  }
  // Back substitution.
  for (idx i = n - 1; i >= 0; --i) {
    const cplx* urow = lu.row(i);
    cplx* xi = xrow(i);
    for (idx j = i + 1; j < n; ++j) {
      const cplx u = urow[j];
      const cplx* xj = xrow(j);
      for (idx c = 0; c < w; ++c) xi[c] -= mul_fuse_xi(u, xj[c]);
    }
    const cplx uii = urow[i];
    for (idx c = 0; c < w; ++c) xi[c] = xi[c] / uii;
  }
}

// Solves all m columns of x, split into whole 4-column (64-byte) groups
// across the threads.
void solve(const ZMatrix& lu, const std::vector<idx>& pivots, cplx* x,
           idx m) {
  const int threads = lu.rows() < kParallelMinN || m < 2 || in_parallel_region()
                          ? 1
                          : std::max(1, xgw_num_threads());
  if (threads == 1) {
    solve_columns(lu, pivots, x, m, 0, m);
    return;
  }
#pragma omp parallel num_threads(threads)
  {
#ifdef _OPENMP
    const idx t = omp_get_thread_num();
    const idx nt = omp_get_num_threads();
#else
    const idx t = 0, nt = 1;
#endif
    const idx groups = (m + 3) / 4;
    const idx c0 = std::min(m, 4 * (groups * t / nt));
    const idx c1 = std::min(m, 4 * (groups * (t + 1) / nt));
    if (c0 < c1) solve_columns(lu, pivots, x, m, c0, c1);
  }
}

}  // namespace

LuFactorization::LuFactorization(ZMatrix a)
    : lu_(std::move(a)), pivots_(factorize(lu_)) {}

void LuFactorization::solve_in_place(std::vector<cplx>& b) const {
  XGW_REQUIRE(static_cast<idx>(b.size()) == n(), "LU solve: rhs size mismatch");
  solve(lu_, pivots_, b.data(), 1);
}

void LuFactorization::solve_in_place(ZMatrix& b) const {
  XGW_REQUIRE(b.rows() == n(), "LU solve: rhs row count mismatch");
  solve(lu_, pivots_, b.data(), b.cols());
}

void invert_in_place(ZMatrix& a) {
  const std::vector<idx> pivots = factorize(a);
  ZMatrix x = ZMatrix::identity(a.rows());
  solve(a, pivots, x.data(), x.cols());
  std::copy(x.data(), x.data() + x.size(), a.data());
}

ZMatrix invert(const ZMatrix& a) {
  ZMatrix inv = a;
  invert_in_place(inv);
  return inv;
}

}  // namespace xgw
