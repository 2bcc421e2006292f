#include "core/sigma.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common/error.h"
#include "common/validate.h"
#include "io/binio.h"
#include "la/eig.h"
#include "obs/span.h"
#include "sched/run_items.h"

namespace xgw {

ZMatrix encode_qp(const QpResult& r) {
  ZMatrix m(1, 5);
  m(0, 0) = cplx(static_cast<double>(r.band), r.e_mf);
  m(0, 1) = r.sigma.sx;
  m(0, 2) = r.sigma.ch;
  m(0, 3) = cplx(r.dsigma_de, r.z);
  m(0, 4) = cplx(r.e_qp, 0.0);
  return m;
}

QpResult decode_qp(const ZMatrix& m) {
  XGW_REQUIRE_KIND(m.rows() == 1 && m.cols() == 5,
                   "decode_qp: not a QP row", ErrorKind::kIoCorrupt);
  QpResult r;
  r.band = static_cast<idx>(m(0, 0).real());
  r.e_mf = m(0, 0).imag();
  r.sigma.sx = m(0, 1);
  r.sigma.ch = m(0, 2);
  r.dsigma_de = m(0, 3).real();
  r.z = m(0, 3).imag();
  r.e_qp = m(0, 4).real();
  return r;
}

GwCalculation::GwCalculation(const EpmModel& model, const GwParameters& params)
    : params_(params),
      model_(model),
      ham_(model, params.psi_cutoff),
      eps_sphere_(model.crystal().lattice(),
                  params.eps_cutoff > 0.0 ? params.eps_cutoff
                                          : ham_.cutoff() / 4.0),
      coulomb_(model.crystal().lattice(), eps_sphere_, params.coulomb) {
  XGW_REQUIRE(eps_sphere_.size() <= ham_.sphere().size(),
              "GwCalculation: eps sphere larger than psi sphere");
}

const Wavefunctions& GwCalculation::wavefunctions() const {
  if (!wf_) {
    obs::Span scope(timers_,"parabands(dense)");
    // Validate before caching: a rejected band set must not stick.
    Wavefunctions wf = solve_dense(ham_, params_.n_bands);
    XGW_REQUIRE(wf.n_valence >= 1, "GwCalculation: no occupied bands");
    XGW_REQUIRE(wf.n_conduction() >= 1,
                "GwCalculation: no empty bands (increase n_bands)");
    wf_ = std::move(wf);
  }
  return *wf_;
}

void GwCalculation::set_wavefunctions(Wavefunctions wf) {
  XGW_REQUIRE(wf.n_pw() == ham_.n_pw(),
              "set_wavefunctions: basis size mismatch");
  wf_ = std::move(wf);
  // Downstream stages depend on the band set: invalidate.
  mtxel_.reset();
  chi0_.reset();
  epsinv0_.reset();
  gpp_.reset();
}

void GwCalculation::set_chi0(ZMatrix chi) {
  XGW_REQUIRE(chi.rows() == eps_sphere_.size() &&
                  chi.cols() == eps_sphere_.size(),
              "set_chi0: shape mismatch with eps sphere");
  chi0_ = std::move(chi);
  epsinv0_.reset();
  gpp_.reset();
}

void GwCalculation::set_epsinv0(ZMatrix epsinv) {
  XGW_REQUIRE(epsinv.rows() == eps_sphere_.size() &&
                  epsinv.cols() == eps_sphere_.size(),
              "set_epsinv0: shape mismatch with eps sphere");
  epsinv0_ = std::move(epsinv);
  gpp_.reset();
}

const Mtxel& GwCalculation::mtxel() const {
  if (!mtxel_) {
    mtxel_ = std::make_unique<Mtxel>(ham_.sphere(), eps_sphere_,
                                     wavefunctions(), params_.mtxel_cache);
  }
  return *mtxel_;
}

const ZMatrix& GwCalculation::chi0() const {
  if (!chi0_) {
    obs::Span scope(timers_,"chi_sum(static)");
    ChiOptions opt;
    opt.eta = params_.eta;
    opt.nv_block = params_.nv_block;
    if (params_.head_correction) {
      const cplx chi_bar =
          chi_head_reduced(wavefunctions(), ham_.sphere(),
                           model_.crystal().lattice(), 0.0, params_.eta);
      opt.head_value = chi_head_value(chi_bar, coulomb_,
                                      model_.crystal().lattice());
    }
    chi0_ = chi_static(mtxel(), wavefunctions(), opt);
  }
  return *chi0_;
}

const ZMatrix& GwCalculation::epsinv0() const {
  if (!epsinv0_) {
    obs::Span scope(timers_,"epsilon_inverse(0)");
    epsinv0_ = epsilon_inverse(chi0(), coulomb_);
  }
  return *epsinv0_;
}

const GppModel& GwCalculation::gpp() const {
  if (!gpp_) {
    obs::Span scope(timers_,"gpp_model");
    gpp_ = build_gpp_model(epsinv0(), coulomb_, eps_sphere_,
                           model_.crystal().lattice(), mtxel(),
                           wavefunctions());
  }
  return *gpp_;
}

ZMatrix GwCalculation::m_matrix_left(idx l) const {
  const Wavefunctions& wf = wavefunctions();
  std::vector<idx> all(static_cast<std::size_t>(wf.n_bands()));
  for (idx n = 0; n < wf.n_bands(); ++n) all[static_cast<std::size_t>(n)] = n;
  ZMatrix m(wf.n_bands(), eps_sphere_.size());
  mtxel().compute_left_fixed(l, all, m);
  return m;
}

ZMatrix GwCalculation::m_matrix_right(const std::vector<idx>& ext, idx n) const {
  ZMatrix m(static_cast<idx>(ext.size()), eps_sphere_.size());
  std::vector<cplx> row(static_cast<std::size_t>(eps_sphere_.size()));
  for (std::size_t i = 0; i < ext.size(); ++i) {
    mtxel().compute_pair(ext[i], n, row.data());
    for (idx g = 0; g < eps_sphere_.size(); ++g)
      m(static_cast<idx>(i), g) = row[static_cast<std::size_t>(g)];
  }
  return m;
}

QpSolve solve_qp_linear(double e_mf, std::span<const double> e_samples,
                        std::span<const cplx> sigma_samples) {
  XGW_REQUIRE(e_samples.size() == sigma_samples.size() && !e_samples.empty(),
              "solve_qp_linear: sample size mismatch");
  const std::size_t n = e_samples.size();

  if (n == 1) {
    const double s = sigma_samples[0].real();
    return {e_mf + s, 1.0, 0.0};
  }

  // Least-squares linear fit Re Sigma(E) ~ a + b (E - e_mf).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = e_samples[i] - e_mf;
    const double y = sigma_samples[i].real();
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  double b = 0.0, a = sy / dn;
  if (std::abs(denom) > 1e-300) {
    b = (dn * sxy - sx * sy) / denom;
    a = (sy - b * sx) / dn;
  }
  // Linearized Dyson: E = e_mf + Sigma(E) with Sigma(E) ~ a + b (E - e_mf)
  //  => E - e_mf = a / (1 - b) = Z a.
  double z = 1.0 / (1.0 - b);
  // Guard unphysical Z from poles in the sampled window.
  if (!(z > 0.0) || z > 2.0) z = std::clamp(z, 0.0, 2.0);
  return {e_mf + z * a, z, b};
}

std::vector<QpResult> GwCalculation::sigma_diag(const std::vector<idx>& bands,
                                                idx n_e_points, double e_step,
                                                GppKernelVariant variant,
                                                FlopCounter* flops,
                                                const std::string& restart_dir) {
  XGW_REQUIRE(n_e_points >= 1, "sigma_diag: need at least one energy point");
  const Wavefunctions& wf = wavefunctions();
  const GppDiagKernel kernel(gpp(), coulomb_);

  // One restart file per band, named by everything the band task reads. A
  // band listed twice keeps one file (the first listing owns it).
  std::vector<std::string> files;
  if (!restart_dir.empty()) {
    RestartKey base;
    base.add(wf).add(std::span<const double>(coulomb_.values()));
    base.add(gpp().omega2).add(gpp().wtilde2).add(gpp().wtilde);
    base.add(n_e_points).add(e_step).add(variant);
    for (std::size_t i = 0; i < bands.size(); ++i) {
      const idx l = bands[i];
      const bool first = std::find(bands.begin(), bands.end(), l) -
                             bands.begin() ==
                         static_cast<std::ptrdiff_t>(i);
      files.push_back(first ? restart_item_path(restart_dir,
                                                "sigma-" + std::to_string(l),
                                                RestartKey(base).add(l))
                            : std::string());
    }
  }

  std::vector<QpResult> results(bands.size());

  auto compute_band = [&](idx bi) {
    const std::size_t slot = static_cast<std::size_t>(bi);
    const idx l = bands[slot];
    XGW_REQUIRE(l >= 0 && l < wf.n_bands(), "sigma_diag: band out of range");
    const std::string file = files.empty() ? std::string() : files[slot];
    if (!file.empty()) {
      if (std::optional<ZMatrix> row = load_restart_item(file, 1, 5)) {
        results[slot] = decode_qp(*row);
        return;
      }
    }
    ZMatrix m_ln;
    bool m_cached = false;
    if (mtxel_load_) {
      if (std::optional<ZMatrix> hit = mtxel_load_(l)) {
        m_ln = std::move(*hit);
        m_cached = true;
      }
    }
    if (!m_cached) {
      {
        obs::Span scope(timers_,"sigma_mtxel");
        m_ln = m_matrix_left(l);
      }
      if (mtxel_store_) mtxel_store_(l, m_ln);
    }
    // Corruption entering Sigma is caught at the kernel edge, not in the
    // final QP energies (fault-tolerance contract; common/validate.h).
    require_finite(m_ln, "sigma_diag: matrix elements M_ln");

    const double e0 = wf.energy[static_cast<std::size_t>(l)];
    std::vector<double> e_vals(static_cast<std::size_t>(n_e_points));
    for (idx i = 0; i < n_e_points; ++i)
      e_vals[static_cast<std::size_t>(i)] =
          e0 + e_step * (static_cast<double>(i) -
                         0.5 * static_cast<double>(n_e_points - 1));

    std::vector<SigmaParts> parts;
    {
      obs::Span scope(timers_,"gpp_diag_kernel");
      kernel.compute(m_ln, wf.energy, wf.n_valence, e_vals, parts, variant,
                     flops);
    }

    std::vector<cplx> totals(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) totals[i] = parts[i].total();
    require_finite(std::span<const cplx>(totals),
                   "sigma_diag: accumulated Sigma_ll(E)");
    const QpSolve qp = solve_qp_linear(e0, e_vals, totals);

    QpResult r;
    r.band = l;
    r.e_mf = e0;
    r.sigma = parts[parts.size() / 2];
    r.dsigma_de = qp.dsigma_de;
    r.z = qp.z;
    r.e_qp = qp.e_qp;
    results[slot] = r;
    if (!file.empty()) save_restart_item(file, encode_qp(r));
  };

  // Bands write disjoint result slots and the GPP kernel's two-stage
  // reduction is thread-count invariant, so the band loop runs as
  // scheduler tasks when workers are available (kernel construction above
  // already primed every lazy cache). The shared FlopCounter is the one
  // non-disjoint accumulator — callers that count FLOPs get the serial
  // loop.
  const int workers = sched::Executor::default_workers();
  const idx nb = static_cast<idx>(bands.size());
  if (workers > 1 && nb > 1 && flops == nullptr) {
    sched::run_items(nb, compute_band, workers, "sigma.band");
  } else {
    for (idx bi = 0; bi < nb; ++bi) compute_band(bi);
  }
  std::error_code ec;
  for (const std::string& f : files)
    if (!f.empty()) std::filesystem::remove(f, ec);
  return results;
}

std::vector<ZMatrix> GwCalculation::sigma_offdiag(const std::vector<idx>& bands,
                                                  idx n_e_points,
                                                  std::vector<double>& e_grid_out,
                                                  FlopCounter* flops) {
  XGW_REQUIRE(!bands.empty(), "sigma_offdiag: empty band set");
  XGW_REQUIRE(n_e_points >= 1, "sigma_offdiag: need energy grid points");
  const Wavefunctions& wf = wavefunctions();

  // Uniform grid spanning the external bands' energy window, padded by one
  // step on each side (the (l, m)-independent grid of Sec. 5.6).
  double e_lo = wf.energy[static_cast<std::size_t>(bands.front())];
  double e_hi = e_lo;
  for (idx l : bands) {
    XGW_REQUIRE(l >= 0 && l < wf.n_bands(), "sigma_offdiag: band range");
    e_lo = std::min(e_lo, wf.energy[static_cast<std::size_t>(l)]);
    e_hi = std::max(e_hi, wf.energy[static_cast<std::size_t>(l)]);
  }
  const double pad = std::max(0.05, 0.1 * (e_hi - e_lo));
  e_lo -= pad;
  e_hi += pad;
  e_grid_out.resize(static_cast<std::size_t>(n_e_points));
  for (idx i = 0; i < n_e_points; ++i)
    e_grid_out[static_cast<std::size_t>(i)] =
        (n_e_points == 1)
            ? 0.5 * (e_lo + e_hi)
            : e_lo + (e_hi - e_lo) * static_cast<double>(i) /
                         static_cast<double>(n_e_points - 1);

  // Assemble M blocks per internal band n (prep for the ZGEMM recast).
  std::vector<ZMatrix> m_all(static_cast<std::size_t>(wf.n_bands()));
  {
    obs::Span scope(timers_,"sigma_mtxel");
    for (idx n = 0; n < wf.n_bands(); ++n)
      m_all[static_cast<std::size_t>(n)] = m_matrix_right(bands, n);
  }

  const GppOffdiagKernel kernel(gpp(), coulomb_);
  obs::Span scope(timers_,"gpp_offdiag_kernel");
  return kernel.compute(m_all, wf.energy, wf.n_valence, e_grid_out, flops);
}

std::vector<double> GwCalculation::dyson_full_solve(const std::vector<idx>& bands,
                                                    idx n_e_points) {
  std::vector<double> e_grid;
  const std::vector<ZMatrix> sigma =
      sigma_offdiag(bands, n_e_points, e_grid);
  const Wavefunctions& wf = wavefunctions();
  const idx ns = static_cast<idx>(bands.size());

  // At each grid energy, diagonalize the Hermitian part of
  // H^QP(E) = diag(E^MF) + Sigma(E); then for each eigenvalue branch find
  // the self-consistent E = lambda_j(E) by linear interpolation on the grid.
  std::vector<std::vector<double>> lam(
      static_cast<std::size_t>(e_grid.size()));
  for (std::size_t ie = 0; ie < e_grid.size(); ++ie) {
    ZMatrix h(ns, ns);
    for (idx i = 0; i < ns; ++i) {
      for (idx j = 0; j < ns; ++j) {
        const cplx s = sigma[ie](i, j);
        const cplx sh = 0.5 * (s + std::conj(sigma[ie](j, i)));
        h(i, j) = sh;
      }
      h(i, i) +=
          wf.energy[static_cast<std::size_t>(bands[static_cast<std::size_t>(i)])];
    }
    lam[ie] = heev(h).values;
  }

  std::vector<double> qp(static_cast<std::size_t>(ns));
  for (idx j = 0; j < ns; ++j) {
    // Find the grid interval where f(E) = lambda_j(E) - E changes sign;
    // interpolate linearly. Fall back to the nearest-gridpoint value.
    double best = lam[0][static_cast<std::size_t>(j)];
    bool found = false;
    for (std::size_t ie = 0; ie + 1 < e_grid.size(); ++ie) {
      const double f0 = lam[ie][static_cast<std::size_t>(j)] - e_grid[ie];
      const double f1 = lam[ie + 1][static_cast<std::size_t>(j)] - e_grid[ie + 1];
      if (f0 == 0.0 || f0 * f1 < 0.0) {
        const double t = f0 / (f0 - f1);
        best = e_grid[ie] + t * (e_grid[ie + 1] - e_grid[ie]);
        found = true;
        break;
      }
    }
    if (!found) {
      // No crossing in the window: pick the grid point minimizing |f|.
      double fmin = std::abs(lam[0][static_cast<std::size_t>(j)] - e_grid[0]);
      best = lam[0][static_cast<std::size_t>(j)];
      for (std::size_t ie = 1; ie < e_grid.size(); ++ie) {
        const double f = std::abs(lam[ie][static_cast<std::size_t>(j)] - e_grid[ie]);
        if (f < fmin) {
          fmin = f;
          best = lam[ie][static_cast<std::size_t>(j)];
        }
      }
    }
    qp[static_cast<std::size_t>(j)] = best;
  }
  return qp;
}

}  // namespace xgw
