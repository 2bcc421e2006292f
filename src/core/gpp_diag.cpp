// The optimized GPP diagonal Sigma kernel: the kOptimized branch of
// GppDiagKernel::compute (core/gpp.h).
//
// Loop order: band n -> fixed G' chunk -> row G -> the chunk's G' columns
// -> energy. One pass over each (n, chunk) block reads the three model
// matrices in their row-major order and serves all N_E energies. Each
// energy keeps its own column sums (one per G') and chunk partials, so it
// sees exactly the operations, in exactly the order, of a kernel that
// re-reads the model once per energy. Stage 2 adds the chunk partials per
// energy in (n, chunk) order on one thread, so the bits do not depend on
// the thread count.
//
// Rounding is pinned to the GCC 12 -O3 -march=native build of that
// per-energy kernel: every product it fused is an explicit std::fma of the
// same form below, and this file compiles with -ffp-contract=off. Which
// half of a complex product is fused differs from site to site; each site
// says which. The output bits then do not depend on compiler, flags or
// -march (DESIGN.md, "Deterministic reductions"). The complex products
// have no C Annex G recovery for infinite operands; compute() rejects
// non-finite M_ln before they run.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/gpp.h"

namespace xgw {

namespace {

using gpp_detail::kDenTol;
using gpp_detail::kFlopsChInner;
using gpp_detail::kFlopsOuter;
using gpp_detail::kFlopsSxInner;

// The G' range is cut into a FIXED chunk grid independent of the thread
// count; each chunk's partials are filled sequentially by one thread.
constexpr idx kReduceChunks = 64;
constexpr double kDenTol2 = kDenTol * kDenTol;

// One thread's column sums for one chunk, split-complex, [column][energy],
// plus which columns run at all.
struct ColumnSums {
  ColumnSums(idx width, idx ne)
      : sx_re(static_cast<std::size_t>(width * ne)),
        sx_im(sx_re.size()),
        ch_re(sx_re.size()),
        ch_im(sx_re.size()),
        active(static_cast<std::size_t>(width)) {}
  std::vector<double> sx_re, sx_im, ch_re, ch_im;
  std::vector<char> active;
};

// Stage 1 of one (band n, G' chunk [lo, hi)) block: every energy's column
// sums over all G rows, then its chunk partial in G' order, written to
// p_sx[e] / p_ch[e]. kOcc: band n is occupied (screened exchange runs).
// de[e] = E_e - E_n and de2[e] = de[e]^2. Returns the block's FLOP count.
template <bool kOcc>
std::uint64_t chunk_block(const GppModel& model, const CoulombPotential& v,
                          const cplx* m, idx lo, idx hi,
                          const std::vector<double>& de,
                          const std::vector<double>& de2, ColumnSums& c,
                          cplx* p_sx, cplx* p_ch) {
  const idx ng = model.n_g();
  const idx w = hi - lo;
  const idx ne = static_cast<idx>(de.size());
  const auto at = [ne](idx j, idx e) {
    return static_cast<std::size_t>(j * ne + e);
  };
  // An empty band skips the columns where M(G') is exactly zero.
  for (idx j = 0; j < w; ++j)
    c.active[static_cast<std::size_t>(j)] = kOcc || m[lo + j] != cplx{};
  std::fill_n(c.sx_re.begin(), w * ne, 0.0);
  std::fill_n(c.sx_im.begin(), w * ne, 0.0);
  std::fill_n(c.ch_re.begin(), w * ne, 0.0);
  std::fill_n(c.ch_im.begin(), w * ne, 0.0);

  std::uint64_t flops = 0;
  for (idx g = 0; g < ng; ++g) {
    const cplx* om2_row = model.omega2.row(g) + lo;
    const cplx* wt2_row = model.wtilde2.row(g) + lo;
    const cplx* wt_row = model.wtilde.row(g) + lo;
    const double mr = m[g].real(), mi = m[g].imag();
    for (idx j = 0; j < w; ++j) {
      if (!c.active[static_cast<std::size_t>(j)]) continue;
      const double om2r = om2_row[j].real(), om2i = om2_row[j].imag();
      if (om2r == 0.0 && om2i == 0.0) continue;
      const double wtr = wt_row[j].real(), wti = wt_row[j].imag();
      const cplx wt2 = kOcc ? wt2_row[j] : cplx{};
      const double wt2r = wt2.real(), wt2i = wt2.imag();
      const double hr = om2r * 0.5, hi = om2i * 0.5;  // Omega^2 / 2
      for (idx e = 0; e < ne; ++e) {
        const std::size_t k = at(j, e);
        if constexpr (kOcc) {
          // den_sx = de2 - wtilde^2, |den_sx|^2 and conj(den_sx)/|den_sx|^2.
          const double dr = de2[static_cast<std::size_t>(e)] - wt2r;
          const double a2 = std::fma(dr, dr, wt2i * wt2i);
          if (a2 > kDenTol2) {
            const double s = 1.0 / a2;
            const double rr = s * dr, ri = s * wt2i;
            // t = Omega^2 (rr + i ri): a.c and a.d fused.
            const double tr = std::fma(rr, om2r, -(ri * om2i));
            const double ti = std::fma(ri, om2r, rr * om2i);
            // conj(M(G)) t: a.c and b.c fused.
            c.sx_re[k] += std::fma(tr, mr, ti * mi);
            c.sx_im[k] += std::fma(-tr, mi, ti * mr);
            flops += kFlopsSxInner;
          }
        }
        // den_ch = wtilde (de - wtilde): a.c and a.d fused.
        const double dc = de[static_cast<std::size_t>(e)] - wtr;
        const double dchr = std::fma(dc, wtr, wti * wti);
        const double dchi = std::fma(-wti, wtr, dc * wti);
        const double b2 = std::fma(dchr, dchr, dchi * dchi);
        if (b2 > kDenTol2) {
          const double s = 1.0 / b2;
          const double rr = s * dchr, ri = -dchi * s;
          // u = (Omega^2 / 2)(rr + i ri): a.c and b.c fused.
          const double ur = std::fma(hr, rr, -(hi * ri));
          const double ui = std::fma(hi, rr, hr * ri);
          // conj(M(G)) u: a.c and b.c fused.
          c.ch_re[k] += std::fma(ur, mr, ui * mi);
          c.ch_im[k] += std::fma(-ur, mi, ui * mr);
          flops += kFlopsChInner;
        }
        flops += kFlopsOuter;
      }
    }
  }

  // Chunk partials in G' order.
  for (idx j = 0; j < w; ++j) {
    const idx gp = lo + j;
    const double mr = m[gp].real(), mi = m[gp].imag();
    const double vgp = v(gp);
    if constexpr (kOcc) {
      // Bare-exchange delta term: p_sx -= conj(M) M v. conj(M) M is real
      // for finite M, so only the real part moves.
      const double mm = std::fma(mr, mr, mi * mi);
      for (idx e = 0; e < ne; ++e)
        p_sx[e].real(std::fma(-vgp, mm, p_sx[e].real()));
    }
    if (!c.active[static_cast<std::size_t>(j)]) continue;
    for (idx e = 0; e < ne; ++e) {
      const std::size_t k = at(j, e);
      if constexpr (kOcc) {
        // p_sx -= (col_sx M(G')) v: a.c and a.d fused.
        const double yr = std::fma(mr, c.sx_re[k], -(mi * c.sx_im[k]));
        const double yi = std::fma(mi, c.sx_re[k], mr * c.sx_im[k]);
        p_sx[e] = {std::fma(-vgp, yr, p_sx[e].real()),
                   std::fma(-vgp, yi, p_sx[e].imag())};
      }
      // p_ch += (col_ch M(G')) v: a.c and a.d fused.
      const double zr = std::fma(mr, c.ch_re[k], -(mi * c.ch_im[k]));
      const double zi = std::fma(mi, c.ch_re[k], mr * c.ch_im[k]);
      p_ch[e] = {std::fma(zr, vgp, p_ch[e].real()),
                 std::fma(vgp, zi, p_ch[e].imag())};
    }
  }
  return flops;
}

}  // namespace

std::uint64_t GppDiagKernel::compute_optimized(
    const ZMatrix& m_ln, std::span<const double> band_energy, idx n_valence,
    std::span<const double> e_values, std::vector<SigmaParts>& out,
    idx gprime_begin, idx gprime_end) const {
  const idx nb = m_ln.rows();
  const idx ne = static_cast<idx>(e_values.size());
  const idx gprime_span = gprime_end - gprime_begin;
  const idx nchunks = std::max<idx>(1, std::min(kReduceChunks, gprime_span));
  const idx width = (gprime_span + nchunks - 1) / nchunks;
  // Stage-1 partials of one band, [chunk][energy].
  std::vector<cplx> part_sx(static_cast<std::size_t>(nchunks * ne));
  std::vector<cplx> part_ch(part_sx.size());
  std::vector<std::uint64_t> part_fl(static_cast<std::size_t>(nchunks));
  std::uint64_t flops = 0;

#ifdef _OPENMP
// The chunk partials are a fixed-order reduction, so the team size never
// changes results; skip the team entirely when the caller already owns
// the cores (OpenMP region or sched worker team).
#pragma omp parallel num_threads(xgw_num_threads()) if (!in_parallel_region())
#endif
  {
    ColumnSums cols(width, ne);
    std::vector<double> de(static_cast<std::size_t>(ne));
    std::vector<double> de2(de.size());
    for (idx n = 0; n < nb; ++n) {
      const double en = band_energy[static_cast<std::size_t>(n)];
      for (std::size_t e = 0; e < de.size(); ++e) {
        de[e] = e_values[e] - en;
        de2[e] = de[e] * de[e];
      }
      const cplx* m = m_ln.row(n);
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
      for (idx chunk = 0; chunk < nchunks; ++chunk) {
        const idx lo = gprime_begin + chunk * gprime_span / nchunks;
        const idx hi = gprime_begin + (chunk + 1) * gprime_span / nchunks;
        cplx* p_sx = part_sx.data() + chunk * ne;
        cplx* p_ch = part_ch.data() + chunk * ne;
        std::fill_n(p_sx, ne, cplx{});
        std::fill_n(p_ch, ne, cplx{});
        part_fl[static_cast<std::size_t>(chunk)] =
            n < n_valence
                ? chunk_block<true>(model_, v_, m, lo, hi, de, de2, cols,
                                    p_sx, p_ch)
                : chunk_block<false>(model_, v_, m, lo, hi, de, de2, cols,
                                     p_sx, p_ch);
      }
      // Stage 2, after the loop's barrier: one thread adds the partials in
      // chunk-index order; the barrier closing `single` frees them for the
      // next band.
#ifdef _OPENMP
#pragma omp single
#endif
      for (idx chunk = 0; chunk < nchunks; ++chunk) {
        for (idx e = 0; e < ne; ++e) {
          const std::size_t k = static_cast<std::size_t>(chunk * ne + e);
          out[static_cast<std::size_t>(e)].sx += part_sx[k];
          out[static_cast<std::size_t>(e)].ch += part_ch[k];
        }
        flops += part_fl[static_cast<std::size_t>(chunk)];
      }
    }
  }
  return flops;
}

}  // namespace xgw
