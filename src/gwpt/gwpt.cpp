#include "gwpt/gwpt.h"

#include "common/error.h"
#include "obs/span.h"

namespace xgw {

GwptCalculation::GwptCalculation(GwCalculation& gw, const GwptOptions& opt)
    : gw_(gw), opt_(opt) {}

ZMatrix GwptCalculation::dm_matrix(const std::vector<idx>& ext, idx n,
                                   const ZMatrix& dpsi) const {
  const Wavefunctions& wf = gw_.wavefunctions();
  const Mtxel& mt = gw_.mtxel();
  const idx ng = gw_.n_g();
  ZMatrix dm(static_cast<idx>(ext.size()), ng);
  std::vector<cplx> row(static_cast<std::size_t>(ng));
  for (std::size_t i = 0; i < ext.size(); ++i) {
    const idx l = ext[i];
    // dM_{ln} = M(d psi_l, psi_n) + M(psi_l, d psi_n).
    mt.compute_pair_raw(dpsi.row(l), wf.coeff.row(n), row.data());
    for (idx g = 0; g < ng; ++g) dm(static_cast<idx>(i), g) = row[static_cast<std::size_t>(g)];
    mt.compute_pair_raw(wf.coeff.row(l), dpsi.row(n), row.data());
    for (idx g = 0; g < ng; ++g) dm(static_cast<idx>(i), g) += row[static_cast<std::size_t>(g)];
  }
  return dm;
}

GwptResult GwptCalculation::run_perturbation(const Perturbation& p,
                                             const std::vector<idx>& bands,
                                             FlopCounter* flops) {
  XGW_REQUIRE(!bands.empty(), "gwpt: empty band set");
  const Wavefunctions& wf = gw_.wavefunctions();
  const idx ns = static_cast<idx>(bands.size());

  GwptResult res;
  res.perturbation = p;

  // DFPT stage: dV and d psi (sum over states on the dense band set).
  ZMatrix dv, dpsi;
  {
    obs::Span scope(gw_.timers(),"gwpt_dfpt");
    dv = dv_matrix(gw_.hamiltonian().model(), gw_.psi_sphere(), p);
    dpsi = dpsi_sum_over_states(wf, dv, opt_.degen_tol);
  }

  // g_DFPT = <l|dV|m> restricted to the external set.
  {
    const ZMatrix dvb = dv_band_matrix(wf, dv);
    res.g_dfpt = ZMatrix(ns, ns);
    for (idx i = 0; i < ns; ++i)
      for (idx j = 0; j < ns; ++j)
        res.g_dfpt(i, j) = dvb(bands[static_cast<std::size_t>(i)],
                               bands[static_cast<std::size_t>(j)]);
  }

  // Energy grid spanning the external window (same convention as
  // sigma_offdiag).
  double e_lo = wf.energy[static_cast<std::size_t>(bands.front())];
  double e_hi = e_lo;
  for (idx l : bands) {
    e_lo = std::min(e_lo, wf.energy[static_cast<std::size_t>(l)]);
    e_hi = std::max(e_hi, wf.energy[static_cast<std::size_t>(l)]);
  }
  const double pad = std::max(0.05, 0.1 * (e_hi - e_lo));
  e_lo -= pad;
  e_hi += pad;
  res.e_grid.resize(static_cast<std::size_t>(opt_.n_e_points));
  for (idx i = 0; i < opt_.n_e_points; ++i)
    res.e_grid[static_cast<std::size_t>(i)] =
        (opt_.n_e_points == 1)
            ? 0.5 * (e_lo + e_hi)
            : e_lo + (e_hi - e_lo) * static_cast<double>(i) /
                         static_cast<double>(opt_.n_e_points - 1);

  // M and dM blocks per internal band. The external set is tiny and fixed,
  // so its real-space functions (psi_l from the mtxel cache, d psi_l
  // transformed here) are hoisted out of the band loop — dm_matrix's
  // per-band compute_pair_raw calls would re-transform them N_b times.
  // Each dM element then sums its two product terms IN REAL SPACE and pays
  // a single FFT (compute_pair_sum_realspace), cutting the stage from
  // 3 * N_Sigma * 2 FFTs per band to N_Sigma + 1.
  std::vector<ZMatrix> m_all(static_cast<std::size_t>(wf.n_bands()));
  std::vector<ZMatrix> dm_all(static_cast<std::size_t>(wf.n_bands()));
  {
    obs::Span scope(gw_.timers(),"gwpt_mtxel");
    const Mtxel& mt = gw_.mtxel();
    const idx box = mt.box().size();
    const std::size_t ne = bands.size();
    std::vector<std::vector<cplx>> psi_l(ne), dpsi_l(ne);
    for (std::size_t i = 0; i < ne; ++i) {
      // Copy out of the cache: later cached transforms may evict.
      psi_l[i] = mt.band_realspace(bands[i]);
      dpsi_l[i].resize(static_cast<std::size_t>(box));
      mt.to_realspace(dpsi.row(bands[i]), dpsi_l[i].data());
    }
    std::vector<cplx> dpsi_n(static_cast<std::size_t>(box));
    for (idx n = 0; n < wf.n_bands(); ++n) {
      m_all[static_cast<std::size_t>(n)] = gw_.m_matrix_right(bands, n);
      // psi_n is hot in the cache from m_matrix_right's pairs; the
      // reference stays valid through the uncached calls below.
      const std::vector<cplx>& psi_n = mt.band_realspace(n);
      mt.to_realspace(dpsi.row(n), dpsi_n.data());
      ZMatrix dm(static_cast<idx>(ne), gw_.n_g());
      for (std::size_t i = 0; i < ne; ++i) {
        // dM_{ln} = M(d psi_l, psi_n) + M(psi_l, d psi_n), one FFT.
        const Mtxel::RealspacePair terms[2] = {
            {dpsi_l[i].data(), psi_n.data()},
            {psi_l[i].data(), dpsi_n.data()}};
        mt.compute_pair_sum_realspace(terms, dm.row(static_cast<idx>(i)));
      }
      dm_all[static_cast<std::size_t>(n)] = std::move(dm);
    }
  }

  // Eq. 5 contraction via the off-diag GPP kernel machinery.
  {
    const GppOffdiagKernel kernel(gw_.gpp(), gw_.coulomb());
    obs::Span scope(gw_.timers(), "gwpt_gpp_kernel");
    res.dsigma = kernel.compute_perturbed(m_all, dm_all, wf.energy,
                                          wf.n_valence, res.e_grid, flops);
  }

  // g_GW at the middle grid energy.
  const std::size_t mid = res.dsigma.size() / 2;
  res.g_gw = res.g_dfpt;
  for (idx i = 0; i < ns; ++i)
    for (idx j = 0; j < ns; ++j) res.g_gw(i, j) += res.dsigma[mid](i, j);
  return res;
}

std::vector<GwptResult> GwptCalculation::run_all(
    const std::vector<Perturbation>& ps, const std::vector<idx>& bands,
    FlopCounter* flops) {
  std::vector<GwptResult> out;
  out.reserve(ps.size());
  for (const Perturbation& p : ps) out.push_back(run_perturbation(p, bands, flops));
  return out;
}

}  // namespace xgw
