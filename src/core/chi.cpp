#include "core/chi.h"

#include <algorithm>
#include <cmath>
#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.h"
#include "common/validate.h"
#include "core/coulomb.h"
#include "la/eig.h"
#include "mf/velocity.h"
#include "obs/span.h"

namespace xgw {

cplx adler_wiser_delta(double e_v, double e_c, double omega, double eta) {
  const double de = e_c - e_v;
  if (omega == 0.0) {
    // Static limit: exactly real (Lorentzian-regularized), so chi(0) is
    // Hermitian negative semi-definite as the subspace construction needs.
    return cplx{-2.0 * de / (de * de + eta * eta), 0.0};
  }
  const cplx ieta{0.0, eta};
  return 1.0 / (cplx{omega, 0.0} - de + ieta) -
         1.0 / (cplx{omega, 0.0} + de - ieta);
}

double adler_wiser_delta_imag(double e_v, double e_c, double omega) {
  const double de = e_c - e_v;
  return -2.0 * de / (de * de + omega * omega);
}

// Multi-frequency NV-Block driver — the CHI-0 / Transf / CHI-Freq staging:
// for each valence block, assemble the pair block M (pairs x ncols) ONCE
// (columns are plane waves, or the projected subspace when `sub` is given),
// then for EVERY frequency accumulate chi[k] += M^H diag(Delta(omega_k)) M.
// MTXEL and the Transf projection are therefore paid once per pair, not
// once per frequency.
std::vector<ZMatrix> chi_multi(const Mtxel& mtxel, const Wavefunctions& wf,
                               std::span<const double> omegas,
                               const ChiOptions& opt, const Subspace* sub,
                               std::span<const cplx> head_values) {
  const ZMatrix* project = sub ? &sub->basis : nullptr;
  const idx nv = wf.n_valence;
  const idx nc = wf.n_conduction();
  XGW_REQUIRE(nv >= 1 && nc >= 1, "chi: need valence and conduction bands");
  XGW_REQUIRE(!omegas.empty(), "chi_multi: need at least one frequency");
  XGW_REQUIRE(head_values.empty() || head_values.size() == omegas.size(),
              "chi_multi: one head value per frequency required");
  const idx ng = mtxel.n_g();
  const idx ncols = project ? project->cols() : ng;
  if (project)
    XGW_REQUIRE(project->rows() == ng, "chi: subspace basis shape mismatch");

  const idx nfreq = static_cast<idx>(omegas.size());

  obs::Span span("chi_multi", "chi");
  if (span.active()) {
    span.arg("n_freq", static_cast<long long>(nfreq));
    span.arg("n_cols", static_cast<long long>(ncols));
    span.arg("subspace", project ? "yes" : "no");
    span.add_items(static_cast<std::uint64_t>(nfreq));
  }

  std::vector<ZMatrix> chi(static_cast<std::size_t>(nfreq));
  for (auto& c : chi) c = ZMatrix(ncols, ncols);

  const idx nv_block = std::max<idx>(1, std::min(opt.nv_block, nv));

  // Conduction band list (reused across blocks).
  std::vector<idx> c_list(static_cast<std::size_t>(nc));
  for (idx c = 0; c < nc; ++c)
    c_list[static_cast<std::size_t>(c)] = nv + c;

  // Per-valence M rows on plane waves. Under a subspace the WHOLE valence
  // block's M^G matrices are held at once so the Transf projection runs as
  // one zgemm_batch sharing the basis operand (packed once per block);
  // without a subspace a single buffer is reused band by band.
  std::vector<ZMatrix> m_pw(static_cast<std::size_t>(project ? nv_block : 1));
  for (auto& m : m_pw) m = ZMatrix(nc, ng);
  ZMatrix m_block(nv_block * nc, ncols);  // NV-Block pair workspace

  // Per-thread scaled-M workspaces for the CHI-Freq loop, preallocated
  // OUTSIDE the parallel region at the full nv_block height: the frequency
  // loop performs zero heap allocations in steady state (asserted by
  // test_mem), and the planner's chi_workspace_bytes model charges exactly
  // these matrices.
  const bool freq_team = nfreq > 1 && !in_parallel_region();
  const int n_team = freq_team ? xgw_num_threads() : 1;
  std::vector<ZMatrix> scaled_ws(static_cast<std::size_t>(n_team));
  for (auto& w : scaled_ws) w = ZMatrix(nv_block * nc, ncols);

  for (idx v0 = 0; v0 < nv; v0 += nv_block) {
    const idx vb = std::min(nv_block, nv - v0);
    if (m_block.rows() != vb * nc) {
      m_block.resize(vb * nc, ncols);
      for (auto& w : scaled_ws) w.resize(vb * nc, ncols);
    }

    if (project) {
      // Transf: M^B = M^G C, (nc x ng) * (ng x ncols), for every band of
      // the block as ONE batch sharing the basis C — the shared operand is
      // packed once and each product lands directly in its m_block window.
      std::vector<GemmBatchItem> batch;
      batch.reserve(static_cast<std::size_t>(vb));
      for (idx dv = 0; dv < vb; ++dv) {
        ZMatrix& m = m_pw[static_cast<std::size_t>(dv)];
        mtxel.compute_left_fixed(v0 + dv, c_list, m);
        batch.push_back({&m, &m_block, dv * nc});
      }
      zgemm_batch(Op::kNone, Op::kNone, cplx{1.0, 0.0}, batch, *project,
                  cplx{}, opt.flops);
    } else {
      for (idx dv = 0; dv < vb; ++dv) {
        ZMatrix& m = m_pw.front();
        mtxel.compute_left_fixed(v0 + dv, c_list, m);
        for (idx c = 0; c < nc; ++c)
          for (idx j = 0; j < ncols; ++j)
            m_block(dv * nc + c, j) = m(c, j);
      }
    }
    // A NaN here would silently poison every chi(omega) through the rank-k
    // updates below; catch it at the accumulation boundary instead.
    require_finite(m_block, "chi_multi: M_vc block");

    // CHI-Freq: scaled = diag(2 Delta_vc(omega_k)) M_block, then a rank-k
    // accumulation into chi[k], per frequency. Frequencies are independent,
    // so the loop runs OpenMP-parallel with a frequency-major static
    // distribution and one scaled-M workspace per thread; every chi[k] is
    // owned by a single thread per pass and receives its valence-block
    // contributions in the same serial order for ANY thread count, keeping
    // the result thread-count invariant. On the static point and the whole
    // imaginary axis the weights are real, so the update is Hermitian and
    // zherk_update computes only the upper triangle (half the FLOPs);
    // complex weights fall back to the general zgemm. The inner GEMM
    // degrades to its serial variant inside this region (nested-call
    // safety), so cores are never oversubscribed.
#ifdef _OPENMP
#pragma omp parallel num_threads(n_team) if (freq_team)
#endif
    {
#ifdef _OPENMP
      const int tid = freq_team ? omp_get_thread_num() : 0;
#else
      const int tid = 0;
#endif
      ZMatrix& scaled = scaled_ws[static_cast<std::size_t>(tid)];
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
      for (idx k = 0; k < nfreq; ++k) {
        const double omega = omegas[static_cast<std::size_t>(k)];
        for (idx dv = 0; dv < vb; ++dv) {
          const idx v = v0 + dv;
          for (idx c = 0; c < nc; ++c) {
            const double ev = wf.energy[static_cast<std::size_t>(v)];
            const double ec = wf.energy[static_cast<std::size_t>(nv + c)];
            const cplx w =
                opt.imaginary_axis
                    ? cplx{2.0 * adler_wiser_delta_imag(ev, ec, omega), 0.0}
                    : 2.0 * adler_wiser_delta(ev, ec, omega, opt.eta);
            const cplx* src = m_block.row(dv * nc + c);
            cplx* dst = scaled.row(dv * nc + c);
            for (idx j = 0; j < ncols; ++j) dst[j] = w * src[j];
          }
        }
        if (opt.imaginary_axis || omega == 0.0) {
          zherk_update(m_block, scaled, chi[static_cast<std::size_t>(k)],
                       opt.flops);
        } else {
          zgemm(Op::kConjTrans, Op::kNone, cplx{1.0, 0.0}, m_block, scaled,
                cplx{1.0, 0.0}, chi[static_cast<std::size_t>(k)], opt.flops);
        }
      }
    }
  }

  // Install the q->0 heads (rank-1 in the G = 0 plane wave).
  for (idx k = 0; k < nfreq; ++k) {
    const cplx hv = head_values.empty()
                        ? opt.head_value
                        : head_values[static_cast<std::size_t>(k)];
    if (hv == cplx{}) continue;
    ZMatrix& c = chi[static_cast<std::size_t>(k)];
    if (project) {
      for (idx b = 0; b < ncols; ++b)
        for (idx bp = 0; bp < ncols; ++bp)
          c(b, bp) += std::conj((*project)(0, b)) * hv * (*project)(0, bp);
    } else {
      c(0, 0) += hv;
    }
  }
  for (const ZMatrix& c : chi) require_finite(c, "chi_multi: chi(omega)");
  return chi;
}

ZMatrix chi_pw(const Mtxel& mtxel, const Wavefunctions& wf, double omega,
               const ChiOptions& opt) {
  const double w[1] = {omega};
  return std::move(chi_multi(mtxel, wf, w, opt, nullptr)[0]);
}

ZMatrix chi_subspace(const Mtxel& mtxel, const Wavefunctions& wf,
                     const Subspace& sub, double omega, const ChiOptions& opt) {
  const double w[1] = {omega};
  return std::move(chi_multi(mtxel, wf, w, opt, &sub)[0]);
}

Subspace build_subspace(const ZMatrix& chi0, const CoulombPotential& v,
                        idx n_eig, double fraction) {
  const idx ng = chi0.rows();
  XGW_REQUIRE(chi0.cols() == ng, "build_subspace: chi0 must be square");
  XGW_REQUIRE(v.size() == ng, "build_subspace: Coulomb size mismatch");
  if (n_eig <= 0) {
    XGW_REQUIRE(fraction > 0.0 && fraction <= 1.0,
                "build_subspace: fraction must be in (0, 1]");
    n_eig = std::max<idx>(1, static_cast<idx>(fraction * static_cast<double>(ng)));
  }
  XGW_REQUIRE(n_eig <= ng, "build_subspace: n_eig exceeds N_G");

  // Symmetrized static polarizability sqrt(v) chi sqrt(v): Hermitian,
  // negative semi-definite; "most significant" = most negative eigenvalues
  // (largest screening contribution).
  ZMatrix sym(ng, ng);
  for (idx i = 0; i < ng; ++i)
    for (idx j = 0; j < ng; ++j)
      sym(i, j) = v.sqrt_v(i) * chi0(i, j) * v.sqrt_v(j);

  const EigResult eig = heev(sym);  // ascending: most negative first

  Subspace sub;
  sub.basis = ZMatrix(ng, n_eig);
  sub.eigenvalues.resize(static_cast<std::size_t>(n_eig));
  for (idx j = 0; j < n_eig; ++j) {
    sub.eigenvalues[static_cast<std::size_t>(j)] =
        eig.values[static_cast<std::size_t>(j)];
    for (idx i = 0; i < ng; ++i) sub.basis(i, j) = eig.vectors(i, j);
  }
  return sub;
}

cplx chi_head_reduced(const Wavefunctions& wf, const GSphere& psi_sphere,
                      const Lattice& lattice, double omega, double eta,
                      bool imaginary_axis) {
  XGW_REQUIRE(wf.n_pw() == psi_sphere.size(),
              "chi_head_reduced: basis mismatch");
  const MomentumOperator mom(psi_sphere, lattice);
  const idx nv = wf.n_valence;
  const idx nb = wf.n_bands();

  cplx acc{};
  for (idx v = 0; v < nv; ++v) {
    for (idx c = nv; c < nb; ++c) {
      const double wcv = wf.energy[static_cast<std::size_t>(c)] -
                         wf.energy[static_cast<std::size_t>(v)];
      if (wcv <= 1e-10) continue;  // degenerate across the gap: skip
      const cplx delta =
          imaginary_axis ? cplx{adler_wiser_delta_imag(0.0, wcv, omega), 0.0}
                         : adler_wiser_delta(0.0, wcv, omega, eta);
      acc += 2.0 * delta * mom.pair_norm2(wf, v, c) / (3.0 * wcv * wcv);
    }
  }
  return acc;
}

std::array<cplx, 3> chi_head_tensor(const Wavefunctions& wf,
                                    const GSphere& psi_sphere,
                                    const Lattice& lattice, double omega,
                                    double eta) {
  XGW_REQUIRE(wf.n_pw() == psi_sphere.size(), "chi_head_tensor: basis mismatch");
  const MomentumOperator mom(psi_sphere, lattice);
  const idx nv = wf.n_valence;
  const idx nb = wf.n_bands();

  std::array<cplx, 3> acc{};
  for (idx v = 0; v < nv; ++v) {
    for (idx c = nv; c < nb; ++c) {
      const double wcv = wf.energy[static_cast<std::size_t>(c)] -
                         wf.energy[static_cast<std::size_t>(v)];
      if (wcv <= 1e-10) continue;
      const cplx delta = 2.0 * adler_wiser_delta(0.0, wcv, omega, eta) /
                         (wcv * wcv);
      const auto p = mom.pair(wf, v, c);
      for (int ax = 0; ax < 3; ++ax)
        acc[static_cast<std::size_t>(ax)] +=
            delta * std::norm(p[static_cast<std::size_t>(ax)]);
    }
  }
  return acc;
}

cplx chi_head_value(cplx chi_bar, const CoulombPotential& v,
                    const Lattice& lattice) {
  const double v0 = v(0);
  if (v0 <= 0.0) return cplx{};
  return chi_bar * (4.0 * kPi / lattice.cell_volume()) / v0;
}

ZMatrix lift_to_pw(const Subspace& sub, const ZMatrix& x_sub) {
  const idx ng = sub.n_g();
  const idx nb = sub.n_eig();
  XGW_REQUIRE(x_sub.rows() == nb && x_sub.cols() == nb,
              "lift_to_pw: subspace matrix shape mismatch");
  ZMatrix tmp(ng, nb);
  zgemm(Op::kNone, Op::kNone, cplx{1.0, 0.0}, sub.basis, x_sub, cplx{}, tmp);
  ZMatrix out(ng, ng);
  zgemm(Op::kNone, Op::kConjTrans, cplx{1.0, 0.0}, tmp, sub.basis, cplx{}, out);
  return out;
}

}  // namespace xgw
