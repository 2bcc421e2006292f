#include "la/eig.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "la/gemm.h"
#include "obs/span.h"

namespace xgw {

namespace {

// Entry (i, j) of (A + A^H) / 2: both solvers work on it, so tiny
// asymmetries don't propagate.
cplx hermitian_part(const ZMatrix& a, idx i, idx j) {
  return {0.5 * (a(i, j).real() + a(j, i).real()),
          0.5 * (a(i, j).imag() - a(j, i).imag())};
}

// Eigenpairs sorted ascending; entry(i, j) reads the unsorted eigenvector
// matrix. std::sort is not stable: degenerate eigenvalues (tied Si bands)
// come out in the order this exact call gives them, and downstream bits
// depend on that order.
template <typename Entry>
EigResult sorted(const std::vector<double>& values, Entry entry) {
  const idx n = static_cast<idx>(values.size());
  std::vector<idx> perm(values.size());
  std::iota(perm.begin(), perm.end(), idx{0});
  std::sort(perm.begin(), perm.end(), [&](idx i, idx j) {
    return values[static_cast<std::size_t>(i)] <
           values[static_cast<std::size_t>(j)];
  });
  EigResult r;
  r.values.resize(values.size());
  r.vectors = ZMatrix(n, n);
  for (idx j = 0; j < n; ++j) {
    const idx src = perm[static_cast<std::size_t>(j)];
    r.values[static_cast<std::size_t>(j)] = values[static_cast<std::size_t>(src)];
    for (idx i = 0; i < n; ++i) r.vectors(i, j) = entry(i, src);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Jacobi (reference path)
// ---------------------------------------------------------------------------

EigResult heev_jacobi(const ZMatrix& in) {
  const idx n = in.rows();
  ZMatrix a(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) a(i, j) = hermitian_part(in, i, j);
  ZMatrix v = ZMatrix::identity(n);

  auto off_norm = [&]() {
    double s = 0.0;
    for (idx p = 0; p < n; ++p)
      for (idx q = p + 1; q < n; ++q) s += std::norm(a(p, q));
    return std::sqrt(s);
  };

  const double scale = std::max(1.0, frobenius_norm(a));
  const double tol = 1e-14 * scale;
  const int max_sweeps = 60;

  for (int sweep = 0; sweep < max_sweeps && off_norm() > tol; ++sweep) {
    for (idx p = 0; p < n; ++p) {
      for (idx q = p + 1; q < n; ++q) {
        const cplx apq = a(p, q);
        const double r = std::abs(apq);
        if (r <= tol / static_cast<double>(n)) continue;

        const double app = a(p, p).real();
        const double aqq = a(q, q).real();
        // Rotation angle: tan(2 theta) = 2 r / (app - aqq).
        double t;  // tan(theta)
        if (app == aqq) {
          t = 1.0;
        } else {
          const double tau = (app - aqq) / (2.0 * r);
          t = std::copysign(1.0, tau) /
              (std::abs(tau) + std::sqrt(tau * tau + 1.0));
        }
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        const cplx phase = apq / r;  // e^{i phi}

        // J: J_pp = c, J_pq = -s * phase, J_qp = s * conj(phase), J_qq = c.
        const cplx jpq = -s * phase;
        const cplx jqp = s * std::conj(phase);

        // A <- J^H A J. Update columns then rows (Hermitian maintained).
        for (idx i = 0; i < n; ++i) {
          const cplx aip = a(i, p);
          const cplx aiq = a(i, q);
          a(i, p) = aip * c + aiq * jqp;
          a(i, q) = aip * jpq + aiq * c;
        }
        for (idx j = 0; j < n; ++j) {
          const cplx apj = a(p, j);
          const cplx aqj = a(q, j);
          a(p, j) = c * apj + std::conj(jqp) * aqj;
          a(q, j) = std::conj(jpq) * apj + c * aqj;
        }
        // Accumulate eigenvectors: V <- V J.
        for (idx i = 0; i < n; ++i) {
          const cplx vip = v(i, p);
          const cplx viq = v(i, q);
          v(i, p) = vip * c + viq * jqp;
          v(i, q) = vip * jpq + viq * c;
        }
      }
    }
  }

  std::vector<double> values(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) values[static_cast<std::size_t>(i)] = a(i, i).real();
  return sorted(values, [&](idx i, idx j) { return v(i, j); });
}

// ---------------------------------------------------------------------------
// Householder tridiagonalization + implicit QL (production path)
// ---------------------------------------------------------------------------
//
// Rounding is pinned to the GCC 12 -O3 -march=native build of the serial
// solver this one replaced: every product that build fused is an explicit
// std::fma of the same form, and this file compiles with
// -ffp-contract=off. Every entry of A and Q must also see the same
// operations in the same order as there; loop nesting, storage and threads
// are free. The output bits then do not depend on compiler, flags or
// thread count (DESIGN.md, "Dense eigensolver").

constexpr idx kLanes = 8;           // rows per panel block
constexpr idx kParallelMinN = 128;  // smaller matrices run on one thread
constexpr idx kRotationBatch = 8;   // QL rotations per flush, times n

// Doubles starting on a 64-byte cache line, from storage the memory tracker
// counts like any dense matrix. Zero-filled.
class LineAlignedBuffer {
 public:
  explicit LineAlignedBuffer(idx count) : storage_(1, count + 7) {
    const auto word =
        reinterpret_cast<std::uintptr_t>(storage_.data()) / sizeof(double);
    data_ = storage_.data() + (8 - static_cast<idx>(word % 8)) % 8;
  }
  double* data() { return data_; }

 private:
  DMatrix storage_;
  double* data_;
};

// An n x n complex matrix in blocks of kLanes rows: block b holds rows
// b * kLanes.., stored [column][re | im][lane], so one column of a block is
// two contiguous lane vectors and each block is one contiguous, line-aligned
// run of memory. Lanes past row n - 1 are padding. Both A (during the
// reduction) and Q use it: the work on one block never touches another.
class LanePanel {
 public:
  static constexpr idx kStride = 2 * kLanes;  // doubles per block column

  explicit LanePanel(idx n)
      : n_(n), blocks_((n + kLanes - 1) / kLanes), buf_(blocks_ * n * kStride) {}
  idx n() const { return n_; }
  idx blocks() const { return blocks_; }
  double* block(idx b) { return buf_.data() + b * n_ * kStride; }
  double& re(idx i, idx j) { return block(i / kLanes)[j * kStride + i % kLanes]; }
  double& im(idx i, idx j) { return (&re(i, j))[kLanes]; }

 private:
  idx n_, blocks_;
  LineAlignedBuffer buf_;
};

// A split-complex vector indexed by absolute row, padded to whole blocks.
struct Split {
  double* re;
  double* im;
};

// Reduce column k: x = A(k+1:n, k), m entries, split-complex. Overwrites x
// with the unit vector w of H = I - 2 w w^H, H x = beta e1, beta =
// -e^{i arg x0} ||x|| (u = x - beta e1 has no cancellation), and sets sub
// = beta. Returns false, leaving x alone and setting sub = x0, when the
// column is already (numerically) tridiagonal.
bool householder(double* xr, double* xi, idx m, cplx& sub) {
  double xnorm2 = 0.0;
  for (idx i = 0; i < m; ++i) xnorm2 += std::fma(xr[i], xr[i], xi[i] * xi[i]);
  const double xnorm = std::sqrt(xnorm2);
  const double tail2 = xnorm2 - std::fma(xi[0], xi[0], xr[0] * xr[0]);
  if (xnorm == 0.0 || tail2 <= 1e-300 * xnorm2) {
    sub = {xr[0], xi[0]};
    return false;
  }
  const double ax0 = std::abs(cplx{xr[0], xi[0]});
  const cplx phase = ax0 > 0.0 ? cplx{xr[0] / ax0, xi[0] / ax0} : cplx{1.0, 0.0};
  sub = {-phase.real() * xnorm, -phase.imag() * xnorm};
  xr[0] -= sub.real();
  xi[0] -= sub.imag();
  double unorm2 = 0.0;
  for (idx i = 0; i < m; ++i) unorm2 += std::fma(xr[i], xr[i], xi[i] * xi[i]);
  const double inv_unorm = 1.0 / std::sqrt(unorm2);
  for (idx i = 0; i < m; ++i) {
    xr[i] *= inv_unorm;
    xi[i] *= inv_unorm;
  }
  return true;
}

// a(i, j) -= 2 (w_i conj(q_j) + q_i conj(w_j)): one entry of the rank-2
// update A22 <- A22 - 2 w q^H - 2 q w^H.
inline void rank2_entry(double& ar, double& ai, double wr, double wi,
                        double qr, double qi, double wjr, double wji,
                        double qjr, double qji) {
  const double sr = std::fma(qjr, wr, wi * qji) + std::fma(wjr, qr, wji * qi);
  const double si =
      std::fma(-qji, wr, wi * qjr) + std::fma(wjr, qi, -(wji * qr));
  ar -= 2.0 * sr;
  ai -= 2.0 * si;
}

// Columns [j0, n) of the block z (rows r0..), lanes of rows below `first`
// held still: first the previous step's rank-2 update with (w, q), then
// p += A(:, j) x_j for the current step's reflector x. Each p_i sums over j
// in order, as a separate matvec would; the block's p stays in registers.
template <bool kUpdate, bool kAccumulate>
void sweep_block(double* __restrict z, idx r0, idx first, idx j0, idx n,
                 Split w, Split q, Split x, Split p) {
  constexpr idx L = kLanes;
  double wr[L], wi[L], qr[L], qi[L], pr[L] = {}, pi[L] = {};
  for (idx l = 0; l < L; ++l) {
    const bool live = kUpdate && r0 + l >= first;
    wr[l] = live ? w.re[r0 + l] : 0.0;
    wi[l] = live ? w.im[r0 + l] : 0.0;
    qr[l] = live ? q.re[r0 + l] : 0.0;
    qi[l] = live ? q.im[r0 + l] : 0.0;
  }
  for (idx j = j0; j < n; ++j) {
    double* __restrict cr = z + j * LanePanel::kStride;
    double* __restrict ci = cr + L;
    const double wjr = kUpdate ? w.re[j] : 0.0, wji = kUpdate ? w.im[j] : 0.0;
    const double qjr = kUpdate ? q.re[j] : 0.0, qji = kUpdate ? q.im[j] : 0.0;
    const double xjr = kAccumulate ? x.re[j] : 0.0;
    const double xji = kAccumulate ? x.im[j] : 0.0;
#pragma omp simd
    for (idx l = 0; l < L; ++l) {
      double ar = cr[l], ai = ci[l];
      if constexpr (kUpdate) {
        rank2_entry(ar, ai, wr[l], wi[l], qr[l], qi[l], wjr, wji, qjr, qji);
        cr[l] = ar;
        ci[l] = ai;
      }
      if constexpr (kAccumulate) {
        pr[l] += std::fma(ar, xjr, -(ai * xji));
        pi[l] += std::fma(ai, xjr, ar * xji);
      }
    }
  }
  if constexpr (kAccumulate)
    for (idx l = 0; l < L; ++l) {
      p.re[r0 + l] = pr[l];
      p.im[r0 + l] = pi[l];
    }
}

// Turns p = A22 w into q = p - (w^H p) w over rows [lo, n); w^H p is real
// for Hermitian A22.
void finish_q(Split w, Split p, idx lo, idx n) {
  double kr = 0.0;
  for (idx i = lo; i < n; ++i) kr += std::fma(p.re[i], w.re[i], p.im[i] * w.im[i]);
  for (idx i = lo; i < n; ++i) {
    p.re[i] = std::fma(-kr, w.re[i], p.re[i]);
    p.im[i] = std::fma(-kr, w.im[i], p.im[i]);
  }
}

struct Tridiagonal {
  std::vector<double> d;        // diagonal
  std::vector<double> e;        // e[k] = |T(k+1, k)|; e[n-1] is QL workspace
  std::vector<cplx> phase;      // D: Q <- Q D makes the subdiagonal real
  std::vector<char> reflected;  // step k stored a reflector in column k
};

// Householder reduction of Hermitian A, held in a LanePanel. Step k keeps
// its reflector w_k in A(k+1:n, k), the column it has just eliminated. Its
// rank-2 update is deferred into step k+1: one thread updates column k+1
// and builds the next reflector, then each thread sweeps its own blocks of
// the remaining columns once, applying the update and accumulating the next
// matvec. Row k+1 right of the diagonal is dead after step k; it is not
// updated.
Tridiagonal tridiagonalize(LanePanel& a, int threads) {
  const idx n = a.n(), rows = a.blocks() * kLanes;
  const auto un = static_cast<std::size_t>(n);
  Tridiagonal t{std::vector<double>(un), std::vector<double>(un, 0.0),
                std::vector<cplx>(un, cplx{1.0, 0.0}), std::vector<char>(un, 0)};
  std::vector<cplx> sub(un);  // complex subdiagonal T(k+1, k)
  // Step k's reflector w_k and p_k = A22 w_k (turned into q_k in place)
  // live in slot k % 2 while step k + 1 applies its update.
  LineAlignedBuffer work(8 * rows);
  const auto slot = [&](idx k, idx v) {
    double* base = work.data() + (k % 2 * 4 + v * 2) * rows;
    return Split{base, base + rows};
  };
  const auto pending_update = [&](idx k, idx j0, idx j1, idx lo) {
    const Split w = slot(k, 0), q = slot(k, 1);
    for (idx j = j0; j < j1; ++j)
      for (idx i = lo; i < n; ++i)
        rank2_entry(a.re(i, j), a.im(i, j), w.re[i], w.im[i], q.re[i],
                    q.im[i], w.re[j], w.im[j], q.re[j], q.im[j]);
  };

#pragma omp parallel num_threads(threads) if (threads > 1)
  {
#ifdef _OPENMP
    const int tid = omp_get_thread_num(), nt = omp_get_num_threads();
#else
    const int tid = 0, nt = 1;
#endif
    for (idx k = 0; k + 2 < n; ++k) {
      const auto uk = static_cast<std::size_t>(k);
      const bool pending = k > 0 && t.reflected[uk - 1];
#pragma omp single
      {
        if (pending) {
          finish_q(slot(k - 1, 0), slot(k - 1, 1), k, n);
          pending_update(k - 1, k, k + 1, k);
        }
        const Split x = slot(k, 0);
        for (idx i = k + 1; i < n; ++i) x.re[i] = a.re(i, k), x.im[i] = a.im(i, k);
        t.reflected[uk] =
            householder(x.re + k + 1, x.im + k + 1, n - k - 1, sub[uk]);
        if (t.reflected[uk])
          for (idx i = k + 1; i < n; ++i) a.re(i, k) = x.re[i], a.im(i, k) = x.im[i];
      }
      const bool reflect = t.reflected[uk];
      const Split w = slot(k + 1, 0), q = slot(k + 1, 1);  // step k - 1
      const Split x = slot(k, 0), p = slot(k, 1);
      // Blocks keep their thread from step to step.
      for (idx b = tid; b < a.blocks(); b += nt) {
        if ((b + 1) * kLanes <= k + 1) continue;
        double* z = a.block(b);
        if (pending && reflect)
          sweep_block<true, true>(z, b * kLanes, k + 1, k + 1, n, w, q, x, p);
        else if (pending)
          sweep_block<true, false>(z, b * kLanes, k + 1, k + 1, n, w, q, x, p);
        else if (reflect)
          sweep_block<false, true>(z, b * kLanes, k + 1, k + 1, n, w, q, x, p);
      }
#pragma omp barrier
    }
  }
  // The last step's update reaches the trailing 2 x 2 block.
  if (n >= 3 && t.reflected[un - 3]) {
    finish_q(slot(n - 3, 0), slot(n - 3, 1), n - 2, n);
    pending_update(n - 3, n - 2, n, n - 2);
  }
  if (n >= 2) sub[un - 2] = {a.re(n - 1, n - 2), a.im(n - 1, n - 2)};

  // Phase normalization: diagonal unitary D (D_0 = 1) making the subdiagonal
  // real non-negative: T'(k+1, k) = conj(D_{k+1}) e_k D_k = |e_k| gives
  // D_{k+1} = D_k e_k / |e_k|.
  for (idx k = 0; k + 1 < n; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    const cplx ek = sub[uk];
    const double r = std::abs(ek);
    if (r > 0.0) {
      const double ur = ek.real() / r, ui = ek.imag() / r;
      const cplx dk = t.phase[uk];
      t.phase[uk + 1] = {std::fma(ur, dk.real(), -(ui * dk.imag())),
                         std::fma(ui, dk.real(), ur * dk.imag())};
    } else {
      t.phase[uk + 1] = t.phase[uk];
    }
    t.e[uk] = r;
  }
  for (idx i = 0; i < n; ++i) t.d[static_cast<std::size_t>(i)] = a.re(i, i);
  return t;
}

// Block b of Q = H_0 H_1 ... H_{n-3} D, starting from the identity: each row
// applies the reflectors stored in a, in order, then the phases.
void form_q_block(LanePanel& q, idx b, LanePanel& a, const Tridiagonal& t) {
  constexpr idx L = kLanes;
  const idx n = q.n(), r0 = b * L;
  double* z = q.block(b);
  for (idx l = 0; l < L && r0 + l < n; ++l) z[(r0 + l) * LanePanel::kStride + l] = 1.0;
  for (idx k = 0; k + 2 < n; ++k) {
    if (!t.reflected[static_cast<std::size_t>(k)]) continue;
    // s = 2 Q(r, k+1:) w_k, then Q(r, k+1:) -= s w_k^H.
    double sr[L] = {}, si[L] = {};
    for (idx c = k + 1; c < n; ++c) {
      const double* __restrict xr = z + c * LanePanel::kStride;
      const double* __restrict xi = xr + L;
      const double ar = a.re(c, k), ai = a.im(c, k);
#pragma omp simd
      for (idx l = 0; l < L; ++l) {
        sr[l] += std::fma(ar, xr[l], -(ai * xi[l]));
        si[l] += std::fma(ai, xr[l], ar * xi[l]);
      }
    }
    for (idx l = 0; l < L; ++l) {
      sr[l] *= 2.0;
      si[l] *= 2.0;
    }
    for (idx c = k + 1; c < n; ++c) {
      double* __restrict xr = z + c * LanePanel::kStride;
      double* __restrict xi = xr + L;
      const double ar = a.re(c, k), ai = a.im(c, k);
#pragma omp simd
      for (idx l = 0; l < L; ++l) {
        xr[l] -= std::fma(sr[l], ar, ai * si[l]);
        xi[l] -= std::fma(sr[l], -ai, ar * si[l]);
      }
    }
  }
  for (idx c = 0; c < n; ++c) {
    const cplx ph = t.phase[static_cast<std::size_t>(c)];
    if (ph == cplx{1.0, 0.0}) continue;
    double* __restrict xr = z + c * LanePanel::kStride;
    double* __restrict xi = xr + L;
    for (idx l = 0; l < L; ++l) {
      const double u = xr[l], v = xi[l];
      xr[l] = std::fma(ph.real(), u, -(v * ph.imag()));
      xi[l] = std::fma(ph.real(), v, u * ph.imag());
    }
  }
}

// One QL plane rotation of columns (i, i+1) of Q.
struct Rotation {
  idx i;
  double c, s;
};

void rotate_block(double* z, const std::vector<Rotation>& rotations) {
  for (const Rotation& g : rotations) {
    double* __restrict z0 = z + g.i * LanePanel::kStride;  // column i: re | im
    double* __restrict z1 = z0 + LanePanel::kStride;       // column i + 1
#pragma omp simd
    for (idx l = 0; l < LanePanel::kStride; ++l) {
      const double u = z0[l], v = z1[l];
      z1[l] = std::fma(g.c, v, u * g.s);
      z0[l] = std::fma(-g.s, v, u * g.c);
    }
  }
}

// Implicit-shift QL on the real symmetric tridiagonal (d, e); e[i] couples
// (i, i+1), e[n-1] is workspace. d and e evolve serially; the rotations are
// recorded and applied to every row of Q in batches of kRotationBatch * n.
void tql2(std::vector<double>& d, std::vector<double>& e, LanePanel& q,
          int threads) {
  const idx n = static_cast<idx>(d.size());
  if (n <= 1) return;
  const auto batch_size = static_cast<std::size_t>(kRotationBatch * n);
  std::vector<Rotation> batch;
  batch.reserve(batch_size);
  auto flush = [&] {
#pragma omp parallel for schedule(static) num_threads(threads) if (threads > 1)
    for (idx b = 0; b < q.blocks(); ++b) rotate_block(q.block(b), batch);
    batch.clear();
  };

  const double eps = 2.22e-16;
  for (idx l = 0; l < n; ++l) {
    int iter = 0;
    idx m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[static_cast<std::size_t>(m)]) +
                          std::abs(d[static_cast<std::size_t>(m + 1)]);
        if (std::abs(e[static_cast<std::size_t>(m)]) <= eps * dd) break;
      }
      if (m != l) {
        XGW_REQUIRE(iter++ < 80, "tql2: too many QL iterations");
        double g = (d[static_cast<std::size_t>(l + 1)] -
                    d[static_cast<std::size_t>(l)]) /
                   (2.0 * e[static_cast<std::size_t>(l)]);
        double r = std::hypot(g, 1.0);
        g = d[static_cast<std::size_t>(m)] - d[static_cast<std::size_t>(l)] +
            e[static_cast<std::size_t>(l)] / (g + std::copysign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        for (idx i = m - 1; i >= l; --i) {
          double f = s * e[static_cast<std::size_t>(i)];
          const double b = c * e[static_cast<std::size_t>(i)];
          r = std::hypot(f, g);
          e[static_cast<std::size_t>(i + 1)] = r;
          if (r == 0.0) {
            d[static_cast<std::size_t>(i + 1)] -= p;
            e[static_cast<std::size_t>(m)] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[static_cast<std::size_t>(i + 1)] - p;
          r = std::fma(s, d[static_cast<std::size_t>(i)] - g, b * (2.0 * c));
          p = s * r;
          d[static_cast<std::size_t>(i + 1)] = g + p;
          g = std::fma(c, r, -b);
          batch.push_back({i, c, s});
          if (batch.size() == batch_size) flush();
          if (i == l) break;  // idx is signed but guard explicitly
        }
        if (r == 0.0 && m - 1 >= l) continue;
        d[static_cast<std::size_t>(l)] -= p;
        e[static_cast<std::size_t>(l)] = g;
        e[static_cast<std::size_t>(m)] = 0.0;
      }
    } while (m != l);
  }
  flush();
}

EigResult heev_householder(const ZMatrix& a) {
  const idx n = a.rows();
  const int threads = n < kParallelMinN || in_parallel_region()
                          ? 1
                          : std::max(1, xgw_num_threads());
  LanePanel q(n);
  Tridiagonal t;
  {
    LanePanel h(n);  // (A + A^H) / 2, reduced in place
    for (idx i = 0; i < n; ++i)
      for (idx j = 0; j < n; ++j) {
        const cplx v = hermitian_part(a, i, j);
        h.re(i, j) = v.real();
        h.im(i, j) = v.imag();
      }
    t = tridiagonalize(h, threads);
#pragma omp parallel for schedule(static) num_threads(threads) if (threads > 1)
    for (idx b = 0; b < q.blocks(); ++b) form_q_block(q, b, h, t);
  }
  tql2(t.d, t.e, q, threads);
  return sorted(t.d, [&](idx i, idx j) { return cplx{q.re(i, j), q.im(i, j)}; });
}

}  // namespace

EigResult heev(const ZMatrix& a, EigMethod method) {
  XGW_REQUIRE(a.rows() == a.cols(), "heev: matrix must be square");
  XGW_REQUIRE(hermiticity_error(a) < 1e-8,
              "heev: input is not Hermitian to working precision");
  obs::Span span("heev", "la", obs::detail_level::kFine);
  if (span.active()) span.arg("n", static_cast<long long>(a.rows()));
  if (a.rows() == 0) return {};
  if (a.rows() == 1) {
    EigResult r;
    r.values = {a(0, 0).real()};
    r.vectors = ZMatrix::identity(1);
    return r;
  }
  switch (method) {
    case EigMethod::kJacobi: return heev_jacobi(a);
    default: return heev_householder(a);
  }
}

double eig_residual(const ZMatrix& a, const EigResult& r) {
  const idx n = a.rows();
  double worst = 0.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      cplx acc{};
      for (idx l = 0; l < n; ++l) acc += a(i, l) * r.vectors(l, j);
      acc -= r.values[static_cast<std::size_t>(j)] * r.vectors(i, j);
      worst = std::max(worst, std::abs(acc));
    }
  }
  return worst;
}

}  // namespace xgw
