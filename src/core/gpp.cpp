#include "core/gpp.h"

#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.h"
#include "common/validate.h"
#include "core/mtxel.h"
#include "obs/span.h"

namespace xgw {

using gpp_detail::kDenTol;

std::vector<cplx> charge_density_box(const Mtxel& mtxel,
                                     const Wavefunctions& wf) {
  const FftBox& box = mtxel.box();
  std::vector<cplx> rho(static_cast<std::size_t>(box.size()), cplx{});
  for (idx v = 0; v < wf.n_valence; ++v)
    mtxel.accumulate_density(v, 2.0, rho);  // spin factor 2
  // rho(G) = (1/N_box) sum_j rho(r_j) e^{-iG r_j}: forward FFT / N_box.
  mtxel.fft().forward(rho.data());
  const double inv = 1.0 / static_cast<double>(box.size());
  for (auto& r : rho) r *= inv;
  return rho;
}

GppModel build_gpp_model(const ZMatrix& epsinv0, const CoulombPotential& v,
                         const GSphere& eps_sphere, const Lattice& lattice,
                         const Mtxel& mtxel, const Wavefunctions& wf) {
  const idx ng = eps_sphere.size();
  XGW_REQUIRE(epsinv0.rows() == ng && epsinv0.cols() == ng,
              "build_gpp_model: epsinv shape mismatch");
  XGW_REQUIRE(v.size() == ng, "build_gpp_model: Coulomb size mismatch");

  const std::vector<cplx> rho = charge_density_box(mtxel, wf);
  const FftBox& box = mtxel.box();
  const double rho0 = rho[0].real();
  XGW_REQUIRE(rho0 > 0.0, "build_gpp_model: vanishing charge density");

  const double wp2 = 4.0 * kPi * rho0 / lattice.cell_volume();

  GppModel m;
  m.omega2 = ZMatrix(ng, ng);
  m.wtilde2 = ZMatrix(ng, ng);
  m.wtilde = ZMatrix(ng, ng);

  for (idx i = 0; i < ng; ++i) {
    const Vec3 gi = eps_sphere.cart(lattice, i);
    const double gi2 = eps_sphere.norm2(i);
    for (idx j = 0; j < ng; ++j) {
      cplx om2;
      if (i == 0 && j == 0) {
        om2 = wp2;  // q->0 head limit
      } else if (i == 0 || j == 0) {
        om2 = cplx{};  // wings vanish in the q->0 limit
      } else {
        const Vec3 gj = eps_sphere.cart(lattice, j);
        const IVec3 mi = eps_sphere.miller(i);
        const IVec3 mj = eps_sphere.miller(j);
        const IVec3 diff{mi[0] - mj[0], mi[1] - mj[1], mi[2] - mj[2]};
        const cplx rho_ratio =
            rho[static_cast<std::size_t>(box_index(box, diff))] / rho0;
        om2 = wp2 * (dot(gi, gj) / gi2) * rho_ratio;
      }

      const cplx den = (i == j ? cplx{1.0, 0.0} : cplx{}) - epsinv0(i, j);
      cplx wt2;
      if (std::abs(den) < 1e-12 || std::abs(om2) < 1e-300) {
        // Unscreened mode: push the pole to infinity so it decouples.
        wt2 = cplx{1e12, 0.0};
        om2 = cplx{};
      } else {
        wt2 = om2 / den;
      }
      if (wt2.real() <= 0.0) {
        // "Bad mode" with imaginary plasmon frequency: excluded, as in the
        // standard HL-GPP implementation.
        wt2 = cplx{1e12, 0.0};
        om2 = cplx{};
      }
      m.omega2(i, j) = om2;
      m.wtilde2(i, j) = wt2;
      m.wtilde(i, j) = std::sqrt(wt2);  // principal branch, Re >= 0
    }
  }
  return m;
}

GppDiagKernel::GppDiagKernel(const GppModel& model, const CoulombPotential& v)
    : model_(model), v_(v) {
  XGW_REQUIRE(model.n_g() == v.size(), "GppDiagKernel: size mismatch");
}

void GppDiagKernel::compute(const ZMatrix& m_ln,
                            std::span<const double> band_energy, idx n_valence,
                            std::span<const double> e_values,
                            std::vector<SigmaParts>& out,
                            GppKernelVariant variant, FlopCounter* flops,
                            idx gprime_begin, idx gprime_end) const {
  using gpp_detail::kFlopsChInner;
  using gpp_detail::kFlopsOuter;
  using gpp_detail::kFlopsSxInner;
  const idx nb = m_ln.rows();
  const idx ng = m_ln.cols();
  XGW_REQUIRE(ng == model_.n_g(), "GppDiagKernel: N_G mismatch");
  XGW_REQUIRE(static_cast<idx>(band_energy.size()) == nb,
              "GppDiagKernel: band energy size mismatch");
  if (gprime_end < 0) gprime_end = ng;
  XGW_REQUIRE(gprime_begin >= 0 && gprime_begin <= gprime_end &&
                  gprime_end <= ng,
              "GppDiagKernel: bad G' slice");
  // Corruption entering Sigma is caught at the kernel edge, not in the
  // final QP energies (fault-tolerance contract; common/validate.h).
  require_finite(m_ln, "GppDiagKernel: matrix elements M_ln");

  const idx ne = static_cast<idx>(e_values.size());
  out.assign(static_cast<std::size_t>(ne), SigmaParts{});

  std::uint64_t local_flops = 0;
  if (variant == GppKernelVariant::kOptimized) {
    local_flops = compute_optimized(m_ln, band_energy, n_valence, e_values,
                                    out, gprime_begin, gprime_end);
  } else {
    // Canonical double loop, divisions in place.
    for (idx ie = 0; ie < ne; ++ie) {
      const double e = e_values[static_cast<std::size_t>(ie)];
      cplx acc_sx{}, acc_ch{};
      for (idx n = 0; n < nb; ++n) {
        const double de = e - band_energy[static_cast<std::size_t>(n)];
        const double de2 = de * de;
        const bool occ = n < n_valence;
        const cplx* mrow = m_ln.row(n);
        for (idx gp = gprime_begin; gp < gprime_end; ++gp) {
          const cplx mgp = mrow[gp];
          const double vgp = v_(gp);
          if (occ) {
            // Bare-exchange delta term (G = G').
            acc_sx -= std::conj(mgp) * mgp * vgp;
          }
          cplx col_sx{}, col_ch{};
          for (idx g = 0; g < ng; ++g) {
            const cplx om2 = model_.omega2(g, gp);
            if (om2 == cplx{}) continue;
            const cplx wt2 = model_.wtilde2(g, gp);
            const cplx wt = model_.wtilde(g, gp);
            const cplx den_sx = de2 - wt2;
            const cplx den_ch = wt * (de - wt);
            cplx ksx{}, kch{};
            if (occ && std::abs(den_sx) > kDenTol) {
              ksx = om2 / den_sx;
              local_flops += kFlopsSxInner;
            }
            if (std::abs(den_ch) > kDenTol) {
              kch = 0.5 * om2 / den_ch;
              local_flops += kFlopsChInner;
            }
            col_sx += std::conj(mrow[g]) * ksx;
            col_ch += std::conj(mrow[g]) * kch;
            local_flops += kFlopsOuter;
          }
          acc_sx -= col_sx * mgp * vgp;
          acc_ch += col_ch * mgp * vgp;
        }
      }
      out[static_cast<std::size_t>(ie)].sx = acc_sx;
      out[static_cast<std::size_t>(ie)].ch = acc_ch;
    }
  }

  std::vector<cplx> parts;
  parts.reserve(2 * out.size());
  for (const SigmaParts& p : out) {
    parts.push_back(p.sx);
    parts.push_back(p.ch);
  }
  require_finite(std::span<const cplx>(parts),
                 "GppDiagKernel: accumulated Sigma_ll(E)");
  obs::attribute_flops(local_flops);
  if (flops != nullptr) flops->add(local_flops);
}

GppOffdiagKernel::GppOffdiagKernel(const GppModel& model,
                                   const CoulombPotential& v)
    : model_(model), v_(v) {
  XGW_REQUIRE(model.n_g() == v.size(), "GppOffdiagKernel: size mismatch");
}

void GppOffdiagKernel::build_p_matrix(double de, bool occupied,
                                      ZMatrix& p) const {
  const idx ng = model_.n_g();
  if (p.rows() != ng || p.cols() != ng) p.resize(ng, ng);
  const double de2 = de * de;

#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (!in_parallel_region())
#endif
  for (idx g = 0; g < ng; ++g) {
    for (idx gp = 0; gp < ng; ++gp) {
      const cplx om2 = model_.omega2(g, gp);
      cplx val{};
      if (om2 != cplx{}) {
        const cplx wt2 = model_.wtilde2(g, gp);
        const cplx wt = model_.wtilde(g, gp);
        if (occupied) {
          const cplx den_sx = de2 - wt2;
          if (std::abs(den_sx) > kDenTol) val -= om2 / den_sx;
        }
        const cplx den_ch = wt * (de - wt);
        if (std::abs(den_ch) > kDenTol) val += 0.5 * om2 / den_ch;
      }
      if (occupied && g == gp) val -= 1.0;  // bare-exchange delta term
      p(g, gp) = val * v_(gp);
    }
  }
}

std::vector<ZMatrix> GppOffdiagKernel::compute(
    const std::vector<ZMatrix>& m_all, std::span<const double> band_energy,
    idx n_valence, std::span<const double> e_grid, FlopCounter* flops) const {
  const idx nb = static_cast<idx>(m_all.size());
  XGW_REQUIRE(nb >= 1, "GppOffdiagKernel: empty band set");
  XGW_REQUIRE(static_cast<idx>(band_energy.size()) == nb,
              "GppOffdiagKernel: band energy size mismatch");
  const idx n_sigma = m_all[0].rows();
  const idx ng = m_all[0].cols();
  XGW_REQUIRE(ng == model_.n_g(), "GppOffdiagKernel: N_G mismatch");

  const idx ne = static_cast<idx>(e_grid.size());
  std::vector<ZMatrix> sigma(static_cast<std::size_t>(ne));
  for (auto& s : sigma) s = ZMatrix(n_sigma, n_sigma);

  ZMatrix p(ng, ng);
  ZMatrix mc(n_sigma, ng);   // conj(M_n)
  ZMatrix t(n_sigma, ng);    // conj(M_n) P

  for (idx n = 0; n < nb; ++n) {
    const ZMatrix& m_n = m_all[static_cast<std::size_t>(n)];
    XGW_REQUIRE(m_n.rows() == n_sigma && m_n.cols() == ng,
                "GppOffdiagKernel: inconsistent M block shape");
    for (idx i = 0; i < n_sigma; ++i)
      for (idx g = 0; g < ng; ++g) mc(i, g) = std::conj(m_n(i, g));

    const bool occ = n < n_valence;
    for (idx ie = 0; ie < ne; ++ie) {
      const double de =
          e_grid[static_cast<std::size_t>(ie)] -
          band_energy[static_cast<std::size_t>(n)];
      build_p_matrix(de, occ, p);  // prep step: NOT counted in Eq. 8 FLOPs
      // Sigma_lm += sum_GG' conj(M_ln(G)) P_GG' M_mn(G'):
      //   T = conj(M) P           (N_Sigma x N_G x N_G)
      //   Sigma += T M^T          (N_Sigma x N_G x N_Sigma)
      zgemm(Op::kNone, Op::kNone, cplx{1.0, 0.0}, mc, p, cplx{}, t, flops);
      zgemm(Op::kNone, Op::kTrans, cplx{1.0, 0.0}, t, m_n, cplx{1.0, 0.0},
            sigma[static_cast<std::size_t>(ie)], flops);
    }
  }
  return sigma;
}

std::vector<ZMatrix> GppOffdiagKernel::compute_perturbed(
    const std::vector<ZMatrix>& m_all, const std::vector<ZMatrix>& dm_all,
    std::span<const double> band_energy, idx n_valence,
    std::span<const double> e_grid, FlopCounter* flops) const {
  const idx nb = static_cast<idx>(m_all.size());
  XGW_REQUIRE(nb >= 1 && dm_all.size() == m_all.size(),
              "compute_perturbed: M / dM band count mismatch");
  XGW_REQUIRE(static_cast<idx>(band_energy.size()) == nb,
              "compute_perturbed: band energy size mismatch");
  const idx n_sigma = m_all[0].rows();
  const idx ng = m_all[0].cols();
  XGW_REQUIRE(ng == model_.n_g(), "compute_perturbed: N_G mismatch");

  const idx ne = static_cast<idx>(e_grid.size());
  std::vector<ZMatrix> dsigma(static_cast<std::size_t>(ne));
  for (auto& s : dsigma) s = ZMatrix(n_sigma, n_sigma);

  ZMatrix p(ng, ng);
  ZMatrix mc(n_sigma, ng), dmc(n_sigma, ng), t(n_sigma, ng), t2(n_sigma, ng);
  // Both first-stage products share the P operand; the batch packs P once
  // per energy instead of once per product. Pointers are stable, so the
  // item list is built once.
  const std::vector<GemmBatchItem> stage1{{&dmc, &t}, {&mc, &t2}};

  for (idx n = 0; n < nb; ++n) {
    const ZMatrix& m_n = m_all[static_cast<std::size_t>(n)];
    const ZMatrix& dm_n = dm_all[static_cast<std::size_t>(n)];
    XGW_REQUIRE(m_n.rows() == n_sigma && dm_n.rows() == n_sigma &&
                    m_n.cols() == ng && dm_n.cols() == ng,
                "compute_perturbed: inconsistent block shape");
    for (idx i = 0; i < n_sigma; ++i)
      for (idx g = 0; g < ng; ++g) {
        mc(i, g) = std::conj(m_n(i, g));
        dmc(i, g) = std::conj(dm_n(i, g));
      }

    const bool occ = n < n_valence;
    for (idx ie = 0; ie < ne; ++ie) {
      const double de = e_grid[static_cast<std::size_t>(ie)] -
                        band_energy[static_cast<std::size_t>(n)];
      build_p_matrix(de, occ, p);
      ZMatrix& out = dsigma[static_cast<std::size_t>(ie)];
      // T = conj(dM) P and T2 = conj(M) P as one batch sharing P; the
      // rank-updates into out keep the original accumulation order.
      zgemm_batch(Op::kNone, Op::kNone, cplx{1.0, 0.0}, stage1, p, cplx{},
                  flops);
      zgemm(Op::kNone, Op::kTrans, cplx{1.0, 0.0}, t, m_n, cplx{1.0, 0.0},
            out, flops);
      zgemm(Op::kNone, Op::kTrans, cplx{1.0, 0.0}, t2, dm_n, cplx{1.0, 0.0},
            out, flops);
    }
  }
  return dsigma;
}

}  // namespace xgw
