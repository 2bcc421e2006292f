#include "core/sigma_ff.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.h"
#include "core/epsilon.h"
#include "la/gemm.h"
#include "mem/planner.h"
#include "mem/tracker.h"
#include "obs/span.h"
#include "sched/executor.h"
#include "sched/run_items.h"

namespace xgw {

namespace {

// chi(omega_k) <- B^k v = -(weight_k / pi) Im[eps^{-1}(omega_k)] v(G'), in
// chi's own buffer on the full plane-wave path. Im is taken element-wise
// (the anti-Hermitian part carries the spectrum at q=0 Gamma-only, where
// eps(omega) is complex-symmetric). The batch tasks and the spill store's
// recompute closure both call this, so a rebuilt page comes from the same
// code.
void chi_to_bv(ZMatrix& chi, const Subspace* sub, const CoulombPotential& v,
               double weight) {
  if (sub) {
    chi = epsilon_inverse_subspace(*sub, chi, v).dense();
  } else {
    epsilon_inverse_in_place(chi, v);
  }
  const idx ng = chi.rows();
  const double pref = -weight / kPi;
  for (idx g = 0; g < ng; ++g) {
    cplx* row = chi.row(g);
    for (idx gp = 0; gp < ng; ++gp) row[gp] = pref * row[gp].imag() * v(gp);
  }
}

}  // namespace

FfScreening build_ff_screening(GwCalculation& gw, const FfOptions& opt) {
  XGW_REQUIRE(opt.n_freq >= 2, "build_ff_screening: need >= 2 frequencies");
  const Wavefunctions& wf = gw.wavefunctions();
  const CoulombPotential& v = gw.coulomb();
  const idx ng = gw.n_g();

  // Frequency grid [0, omega_max]; omega_max defaults to the largest
  // excitation energy plus margin so the spectral weight is captured.
  double omega_max = opt.omega_max;
  if (omega_max <= 0.0) {
    const double e_span = wf.energy.back() - wf.energy.front();
    omega_max = 1.5 * e_span;
  }

  FfScreening scr;
  scr.omegas.resize(static_cast<std::size_t>(opt.n_freq));
  scr.weights.resize(static_cast<std::size_t>(opt.n_freq));
  const double d_omega = omega_max / static_cast<double>(opt.n_freq - 1);
  for (idx k = 0; k < opt.n_freq; ++k) {
    scr.omegas[static_cast<std::size_t>(k)] = d_omega * static_cast<double>(k);
    // Trapezoidal weights.
    scr.weights[static_cast<std::size_t>(k)] =
        (k == 0 || k == opt.n_freq - 1) ? 0.5 * d_omega : d_omega;
  }

  ChiOptions copt = opt.chi;
  copt.eta = opt.eta;

  // Optional static subspace: built once from chi(0) at full PW cost, then
  // every omega > 0 runs in the reduced basis (Sec. 5.2). Shared with the
  // spill-store recompute closure below, which may outlive this scope.
  std::shared_ptr<Subspace> sub;
  if (opt.n_eig > 0 || opt.subspace_fraction > 0.0) {
    const ZMatrix& chi0 = gw.chi0();
    obs::Span scope(gw.timers(), "ff_subspace_build");
    sub = std::make_shared<Subspace>(
        build_subspace(chi0, v, opt.n_eig, opt.subspace_fraction));
    scr.n_eig_used = sub->n_eig();
  }

  const Lattice& lattice = gw.hamiltonian().model().crystal().lattice();
  const bool head = gw.params().head_correction;

  // Per-frequency q->0 heads.
  std::vector<cplx> heads(static_cast<std::size_t>(opt.n_freq), cplx{});
  if (head) {
    for (idx k = 0; k < opt.n_freq; ++k) {
      const cplx chi_bar = chi_head_reduced(
          wf, gw.psi_sphere(), lattice,
          scr.omegas[static_cast<std::size_t>(k)], opt.eta);
      heads[static_cast<std::size_t>(k)] = chi_head_value(chi_bar, v, lattice);
    }
  }

  // Memory plan: under a budget, solve for the chi valence block and the
  // number of frequencies per CHI-Freq pass, and decide whether the B^k v
  // set must page out-of-core. Frequencies are independent in chi_multi, so
  // chunking the sweep is bitwise identical to one monolithic pass.
  idx freq_batch = opt.n_freq;
  if (opt.memory_budget_mb > 0.0) {
    mem::PlannerInput pin;
    pin.budget_bytes = mem::mb(opt.memory_budget_mb);
    pin.nv = wf.n_valence;
    pin.nc = wf.n_conduction();
    pin.ng = ng;
    pin.ncols = sub ? sub->n_eig() : ng;
    pin.nfreq = opt.n_freq;
    pin.threads = xgw_num_threads();
    pin.fixed_bytes = mem::tracker().current_bytes();
    const mem::MemPlan plan = mem::plan(pin);
    copt.nv_block = plan.nv_block;
    freq_batch = plan.freq_batch;
    if (plan.needs_spill)
      scr.bv.enable_spill(opt.spill_dir, plan.spill_resident_bytes, "ffbv_");
  }

  // Storage-fault resilience for the spilled B^k v set: each matrix is a
  // pure function of (omega_k, weight_k, head_k) and the run's inputs, and
  // chi_multi frequency chunking is bitwise invariant, so a single-frequency
  // rebuild reproduces the batched original EXACTLY. If a spill page is
  // torn or bit-flipped past the retry budget, the pool re-derives it
  // instead of killing the campaign — at recompute cost, never at accuracy
  // cost. Captures gw by reference: the screening must not outlive the
  // calculation (already required — sigma_ff_* take both).
  {
    const std::vector<double> omegas = scr.omegas;
    const std::vector<double> weights = scr.weights;
    const std::vector<cplx> heads_c = heads;
    const ChiOptions copt_c = copt;  // AFTER the planner fixed nv_block
    scr.bv.set_recompute([&gw, omegas, weights, heads_c, copt_c,
                          sub](idx k) -> ZMatrix {
      const std::size_t i = static_cast<std::size_t>(k);
      std::vector<ZMatrix> chis = chi_multi(
          gw.mtxel(), gw.wavefunctions(),
          std::span<const double>(omegas).subspan(i, 1), copt_c, sub.get(),
          std::span<const cplx>(heads_c).subspan(i, 1));
      chi_to_bv(chis[0], sub.get(), gw.coulomb(), weights[i]);
      return std::move(chis[0]);
    });
  }

  // CHI-0/Transf/CHI-Freq in batches: MTXEL (and the subspace projection)
  // are paid once per PASS, so the planner maximizes the batch first. Each
  // batch's chi matrices then become B^k v in their own slots, one
  // scheduler task per frequency (disjoint slots, thread-invariant kernels:
  // bitwise identical at any worker count), and move into the store in k
  // order on this thread, since a spilling store is single-threaded. The
  // epsilon stage therefore holds one batch of N_G x N_G slots plus the
  // LU's one scratch matrix per worker.
  for (idx f0 = 0; f0 < opt.n_freq; f0 += freq_batch) {
    const idx fb = std::min(freq_batch, opt.n_freq - f0);
    std::vector<ZMatrix> chis;
    {
      obs::Span scope(gw.timers(),
                      sub ? "ff_chi_freq(subspace)" : "ff_chi_freq(full_pw)");
      chis = chi_multi(
          gw.mtxel(), wf,
          std::span<const double>(scr.omegas)
              .subspan(static_cast<std::size_t>(f0), static_cast<std::size_t>(fb)),
          copt, sub.get(),
          std::span<const cplx>(heads).subspan(static_cast<std::size_t>(f0),
                                               static_cast<std::size_t>(fb)));
    }

    {
      obs::Span scope(gw.timers(), "ff_eps_inverse");
      sched::run_items(
          fb,
          [&](idx dk) {
            chi_to_bv(chis[static_cast<std::size_t>(dk)], sub.get(), v,
                      scr.weights[static_cast<std::size_t>(f0 + dk)]);
          },
          sched::Executor::default_workers(), "sigma_ff.eps");
    }
    for (ZMatrix& bv : chis) scr.bv.push_back(std::move(bv));
  }
  return scr;
}

std::vector<FfResult> sigma_ff_diag(GwCalculation& gw, const FfScreening& scr,
                                    const std::vector<idx>& bands,
                                    double eta) {
  const Wavefunctions& wf = gw.wavefunctions();
  const CoulombPotential& v = gw.coulomb();
  const idx ng = gw.n_g();
  const idx nk = static_cast<idx>(scr.omegas.size());

  std::vector<FfResult> out(bands.size());

  auto compute_band = [&](idx bi) {
    const idx l = bands[static_cast<std::size_t>(bi)];
    XGW_REQUIRE(l >= 0 && l < wf.n_bands(), "sigma_ff_diag: band range");
    const ZMatrix m_ln = gw.m_matrix_left(l);
    const double e0 = wf.energy[static_cast<std::size_t>(l)];

    // Exchange: -sum_n^occ sum_G |M_ln(G)|^2 v(G).
    cplx sx{};
    for (idx n = 0; n < wf.n_valence; ++n) {
      const cplx* mrow = m_ln.row(n);
      double acc = 0.0;
      for (idx g = 0; g < ng; ++g) acc += std::norm(mrow[g]) * v(g);
      sx -= acc;
    }

    // Correlation at two energies (for Z): E0 and E0 + dE.
    const double de_fd = 0.01;
    cplx sc[2] = {cplx{}, cplx{}};
    {
      obs::Span scope(gw.timers(),"ff_sigma_kernel");
      std::vector<cplx> t(static_cast<std::size_t>(ng));
      for (idx n = 0; n < wf.n_bands(); ++n) {
        const cplx* mrow = m_ln.row(n);
        const double en = wf.energy[static_cast<std::size_t>(n)];
        const bool occ = n < wf.n_valence;
        for (idx k = 0; k < nk; ++k) {
          const ZMatrix& bv = scr.bv.get(k);
          // t = (B^k v)^T applied from the right: t(g) = sum_gp bv(g,gp) M(gp)
          for (idx g = 0; g < ng; ++g) {
            cplx acc{};
            const cplx* brow = bv.row(g);
            for (idx gp = 0; gp < ng; ++gp) acc += brow[gp] * mrow[gp];
            t[static_cast<std::size_t>(g)] = acc;
          }
          cplx quad{};
          for (idx g = 0; g < ng; ++g)
            quad += std::conj(mrow[g]) * t[static_cast<std::size_t>(g)];

          const double wk = scr.omegas[static_cast<std::size_t>(k)];
          for (int ie = 0; ie < 2; ++ie) {
            const double e = e0 + (ie == 1 ? de_fd : 0.0);
            const cplx den =
                occ ? cplx{e - en + wk, -eta} : cplx{e - en - wk, eta};
            sc[ie] += quad / den;
          }
        }
      }
    }

    FfResult r;
    r.band = l;
    r.e_mf = e0;
    r.sigma_x = sx;
    r.sigma_c = sc[0];
    const double dsig =
        (sc[1].real() - sc[0].real()) / de_fd;  // d Sigma_c / dE
    double z = 1.0 / (1.0 - dsig);
    if (!(z > 0.0) || z > 2.0) z = std::clamp(z, 0.0, 2.0);
    r.z = z;
    r.e_qp = e0 + z * (sx.real() + sc[0].real());
    out[static_cast<std::size_t>(bi)] = r;
  };

  // Bands are independent (disjoint out slots, per-band locals), so they
  // run as scheduler tasks — UNLESS the B^k v store is spilling: get(k)
  // then pages entries in and out (reference stability and LRU state are
  // single-thread contracts, mem/spill.h). Mtxel is internally locked, so
  // concurrent m_matrix_left calls serialize on the FFT cache while the
  // correlation kernels overlap. Results are bitwise identical at any
  // worker count.
  const int workers = sched::Executor::default_workers();
  const idx nb = static_cast<idx>(bands.size());
  if (workers > 1 && nb > 1 && !scr.bv.spilling()) {
    (void)gw.mtxel();  // prime the lazy cache before tasks race to it
    sched::run_items(nb, compute_band, workers, "sigma_ff.band");
  } else {
    for (idx bi = 0; bi < nb; ++bi) compute_band(bi);
  }
  return out;
}

std::vector<ZMatrix> sigma_ff_offdiag(GwCalculation& gw,
                                      const FfScreening& scr,
                                      const std::vector<idx>& bands,
                                      std::span<const double> e_grid,
                                      double eta, FlopCounter* flops) {
  XGW_REQUIRE(!bands.empty() && !e_grid.empty(),
              "sigma_ff_offdiag: empty band set or grid");
  const Wavefunctions& wf = gw.wavefunctions();
  const idx ns = static_cast<idx>(bands.size());
  const idx ng = gw.n_g();
  const idx nk = static_cast<idx>(scr.omegas.size());
  const idx ne = static_cast<idx>(e_grid.size());

  std::vector<ZMatrix> sigma(static_cast<std::size_t>(ne));
  for (auto& s : sigma) s = ZMatrix(ns, ns);

  ZMatrix mc(ns, ng), t(ns, ng), q(ns, ns);

  obs::Span scope(gw.timers(),"ff_sigma_offdiag");
  for (idx n = 0; n < wf.n_bands(); ++n) {
    const ZMatrix m_n = gw.m_matrix_right(bands, n);
    for (idx i = 0; i < ns; ++i)
      for (idx g = 0; g < ng; ++g) mc(i, g) = std::conj(m_n(i, g));
    const double en = wf.energy[static_cast<std::size_t>(n)];
    const bool occ = n < wf.n_valence;

    for (idx k = 0; k < nk; ++k) {
      const ZMatrix& bvk = scr.bv.get(k);
      // Q^{nk} = conj(M_n) (B^k v) M_n^T  — two ZGEMMs, reused over E.
      zgemm(Op::kNone, Op::kNone, cplx{1.0, 0.0}, mc, bvk, cplx{}, t, flops);
      zgemm(Op::kNone, Op::kTrans, cplx{1.0, 0.0}, t, m_n, cplx{}, q, flops);

      const double wk = scr.omegas[static_cast<std::size_t>(k)];
      for (idx ie = 0; ie < ne; ++ie) {
        const double e = e_grid[static_cast<std::size_t>(ie)];
        const cplx den =
            occ ? cplx{e - en + wk, -eta} : cplx{e - en - wk, eta};
        const cplx f = 1.0 / den;
        ZMatrix& out = sigma[static_cast<std::size_t>(ie)];
        for (idx i = 0; i < ns * ns; ++i) out.data()[i] += f * q.data()[i];
      }
    }
  }
  return sigma;
}

}  // namespace xgw
