#include "core/sigma_st.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/validate.h"
#include "core/epsilon.h"
#include "mem/planner.h"
#include "mem/tracker.h"
#include "obs/span.h"
#include "sched/executor.h"
#include "sched/run_items.h"

namespace xgw {

StScreening build_st_screening(GwCalculation& gw, const StOptions& opt) {
  const Wavefunctions& wf = gw.wavefunctions();
  const CoulombPotential& v = gw.coulomb();
  const idx ng = gw.n_g();
  const idx nv = wf.n_valence;
  XGW_REQUIRE(nv >= 1 && wf.n_conduction() >= 1,
              "build_st_screening: need valence and conduction bands");

  // Transition-energy range the grid must cover: [gap, full span].
  const double e_min = wf.energy[static_cast<std::size_t>(nv)] -
                       wf.energy[static_cast<std::size_t>(nv - 1)];
  const double e_max = wf.energy.back() - wf.energy.front();
  XGW_REQUIRE(e_min > 1e-8,
              "build_st_screening: space-time route needs a finite gap");

  StScreening scr;
  {
    obs::Span scope(gw.timers(), "st_minimax_grid");
    scr.grid = minimax_grid(opt.n_tau, e_min, e_max);
  }
  scr.mu = 0.5 * (wf.energy[static_cast<std::size_t>(nv - 1)] +
                  wf.energy[static_cast<std::size_t>(nv)]);
  scr.n_tau = scr.grid.n;
  const idx n = scr.grid.n;

  const Lattice& lattice = gw.hamiltonian().model().crystal().lattice();

  // Per-tau q->0 heads (the imaginary-time preimage of the per-frequency
  // heads the FF screening installs).
  std::vector<cplx> heads(static_cast<std::size_t>(n), cplx{});
  if (gw.params().head_correction) {
    obs::Span scope(gw.timers(), "st_head");
    for (idx j = 0; j < n; ++j) {
      const cplx chi_bar = chi_head_reduced_itau(
          wf, gw.psi_sphere(), lattice,
          scr.grid.tau[static_cast<std::size_t>(j)]);
      heads[static_cast<std::size_t>(j)] = chi_head_value(chi_bar, v, lattice);
    }
  }

  // Memory plan: the tau sweep reuses the FF planner verbatim (tau nodes
  // play the role of frequencies — same accumulator footprint), fixing the
  // chi NV-Block, the taus per pass, and whether W^c(i tau) pages
  // out-of-core.
  ChiItauOptions copt = opt.chi;
  idx tau_batch = copt.tau_batch > 0 ? std::min(copt.tau_batch, n) : n;
  if (opt.memory_budget_mb > 0.0) {
    mem::PlannerInput pin;
    pin.budget_bytes = mem::mb(opt.memory_budget_mb);
    pin.nv = nv;
    pin.nc = wf.n_conduction();
    pin.ng = ng;
    pin.ncols = ng;
    pin.nfreq = n;
    pin.threads = xgw_num_threads();
    pin.fixed_bytes = mem::tracker().current_bytes();
    const mem::MemPlan plan = mem::plan(pin);
    copt.nv_block = plan.nv_block;
    tau_batch = plan.freq_batch;
    if (plan.needs_spill)
      scr.wtau.enable_spill(opt.spill_dir, plan.spill_resident_bytes, "stw_");
  }
  copt.tau_batch = 0;  // batching happens HERE, one chi_itau call per pass

  // chi(i tau) in tau batches, cosine-transformed into chi(i omega_k)
  // accumulators on the fly (ascending j across batches -> fixed
  // accumulation order, so the batch size never changes a bit).
  std::vector<ZMatrix> chi_w(static_cast<std::size_t>(n));
  for (auto& c : chi_w) c = ZMatrix(ng, ng);
  for (idx t0 = 0; t0 < n; t0 += tau_batch) {
    const idx tb = std::min(tau_batch, n - t0);
    ++scr.tau_batches;
    std::vector<ZMatrix> chis;
    {
      obs::Span scope(gw.timers(), "st_chi_itau");
      chis = chi_itau_multi(
          gw.mtxel(), wf,
          std::span<const double>(scr.grid.tau)
              .subspan(static_cast<std::size_t>(t0),
                       static_cast<std::size_t>(tb)),
          copt,
          std::span<const cplx>(heads).subspan(static_cast<std::size_t>(t0),
                                               static_cast<std::size_t>(tb)));
    }
    obs::Span scope(gw.timers(), "st_cos_transform");
    for (idx k = 0; k < n; ++k) {
      ZMatrix& acc = chi_w[static_cast<std::size_t>(k)];
      for (idx dj = 0; dj < tb; ++dj) {
        const double c = scr.grid.cos_tw(k, t0 + dj);
        const cplx* src = chis[static_cast<std::size_t>(dj)].data();
        cplx* dst = acc.data();
        const idx sz = ng * ng;
        for (idx i = 0; i < sz; ++i) dst[i] += c * src[i];
      }
    }
  }

  // eps^{-1}(i omega_k) and W^c(i omega_k) = [eps^{-1} - I] v, written into
  // chi(i omega_k)'s own slot. Frequencies are independent (disjoint slots,
  // thread-invariant kernels), so they run as scheduler tasks at any worker
  // count with bitwise-identical results.
  auto compute_w = [&](idx k) {
    ZMatrix& w = chi_w[static_cast<std::size_t>(k)];
    epsilon_inverse_in_place(w, v);
    for (idx g = 0; g < ng; ++g) {
      cplx* wr = w.row(g);
      for (idx gp = 0; gp < ng; ++gp) {
        const cplx delta = gp == g ? wr[gp] - 1.0 : wr[gp];
        wr[gp] = delta * v(gp);
      }
    }
  };
  {
    obs::Span scope(gw.timers(), "st_eps_inverse");
    const int workers = opt.chi.workers > 0
                            ? opt.chi.workers
                            : sched::Executor::default_workers();
    if (workers > 1 && n > 1) {
      sched::run_items(n, compute_w, workers, "sigma_st.eps");
    } else {
      for (idx k = 0; k < n; ++k) compute_w(k);
    }
  }

  // W^c(i tau_j) = sum_k cos_wt(j, k) W^c(i omega_k), pushed in tau order
  // into the (possibly spilling) store.
  {
    obs::Span scope(gw.timers(), "st_w_transform");
    for (idx j = 0; j < n; ++j) {
      ZMatrix wt(ng, ng);
      for (idx k = 0; k < n; ++k) {
        const double c = scr.grid.cos_wt(j, k);
        const cplx* src = chi_w[static_cast<std::size_t>(k)].data();
        cplx* dst = wt.data();
        const idx sz = ng * ng;
        for (idx i = 0; i < sz; ++i) dst[i] += c * src[i];
      }
      require_finite(wt, "build_st_screening: W^c(i tau)");
      scr.wtau.push_back(std::move(wt));
    }
  }

  // Self-energy transforms need a WIDER exponent range than chi's: Sigma's
  // tau decay rates are |E_n - mu| + screening poles, not bare pair
  // energies. Refit on the same nodes over [e_min / 2, 2 e_max].
  double ce = 0.0, se = 0.0;
  scr.cos_tw_sigma =
      fit_cos_tau_to_omega(scr.grid, 0.5 * e_min, 2.0 * e_max, &ce);
  scr.sin_tw_sigma =
      fit_sin_tau_to_omega(scr.grid, 0.5 * e_min, 2.0 * e_max, &se);
  scr.sigma_fit_err = std::max(ce, se);
  return scr;
}

std::vector<StResult> sigma_st_diag(GwCalculation& gw, const StScreening& scr,
                                    const std::vector<idx>& bands,
                                    const StOptions& opt) {
  const Wavefunctions& wf = gw.wavefunctions();
  const CoulombPotential& v = gw.coulomb();
  const idx ng = gw.n_g();
  const idx nb = wf.n_bands();
  const idx n = scr.grid.n;
  XGW_REQUIRE(n >= 2 && static_cast<idx>(scr.wtau.size()) == n,
              "sigma_st_diag: screening/grid mismatch");

  // Pade support points: the positive imaginary-frequency nodes.
  std::vector<cplx> zk(static_cast<std::size_t>(n));
  for (idx k = 0; k < n; ++k)
    zk[static_cast<std::size_t>(k)] =
        cplx{0.0, scr.grid.omega[static_cast<std::size_t>(k)]};

  std::vector<StResult> out(bands.size());

  auto compute_band = [&](idx bi) {
    const idx l = bands[static_cast<std::size_t>(bi)];
    XGW_REQUIRE(l >= 0 && l < nb, "sigma_st_diag: band range");
    const ZMatrix m_ln = gw.m_matrix_left(l);
    const double e0 = wf.energy[static_cast<std::size_t>(l)];

    // Exchange: -sum_n^occ sum_G |M_ln(G)|^2 v(G) (exact, as in FF).
    cplx sx{};
    for (idx nn = 0; nn < wf.n_valence; ++nn) {
      const cplx* mrow = m_ln.row(nn);
      double acc = 0.0;
      for (idx g = 0; g < ng; ++g) acc += std::norm(mrow[g]) * v(g);
      sx -= acc;
    }

    obs::Span scope(gw.timers(), "st_sigma_kernel");

    // T_j = W_j^T conj(M)^T for every tau — one batched GEMM whose items
    // all share the single packed conj(M) panel. When the store spills,
    // the SAME kernel runs one item at a time (page-in invalidates other
    // refs); per-item results are independent of batch size, so spilled
    // and in-core runs are bitwise identical.
    ZMatrix mc(nb, ng);
    for (idx i = 0; i < nb; ++i)
      for (idx g = 0; g < ng; ++g) mc(i, g) = std::conj(m_ln(i, g));
    std::vector<ZMatrix> t(static_cast<std::size_t>(n));
    for (auto& tj : t) tj = ZMatrix(ng, nb);
    if (!scr.wtau.spilling()) {
      std::vector<GemmBatchItem> items;
      items.reserve(static_cast<std::size_t>(n));
      for (idx j = 0; j < n; ++j)
        items.push_back({&scr.wtau.get(j), &t[static_cast<std::size_t>(j)], 0});
      zgemm_batch(Op::kTrans, Op::kTrans, cplx{1.0, 0.0}, items, mc, cplx{},
                  opt.chi.flops);
    } else {
      for (idx j = 0; j < n; ++j) {
        std::vector<GemmBatchItem> one = {
            {&scr.wtau.get(j), &t[static_cast<std::size_t>(j)], 0}};
        zgemm_batch(Op::kTrans, Op::kTrans, cplx{1.0, 0.0}, one, mc, cplx{},
                    opt.chi.flops);
      }
    }

    // Sigma(+tau) from unoccupied states, Sigma(-tau) from occupied ones;
    // even/odd split feeds the cosine/sine transforms.
    std::vector<cplx> sig_e(static_cast<std::size_t>(n));
    std::vector<cplx> sig_o(static_cast<std::size_t>(n));
    for (idx j = 0; j < n; ++j) {
      const double tau = scr.grid.tau[static_cast<std::size_t>(j)];
      const ZMatrix& tj = t[static_cast<std::size_t>(j)];
      cplx sp{}, sm{};
      for (idx nn = 0; nn < nb; ++nn) {
        const cplx* mrow = m_ln.row(nn);
        cplx q{};
        for (idx g = 0; g < ng; ++g) q += tj(g, nn) * mrow[g];
        const double en = wf.energy[static_cast<std::size_t>(nn)];
        // Sigma(tau) = -G(tau) W(tau): G(tau > 0) carries -1 per unoccupied
        // state, G(tau < 0) carries +1 per occupied one (single-pole check:
        // these signs reproduce w/(i nu - (E_n - mu) -+ Omega) with positive
        // residue, exactly the FF denominators).
        if (nn < wf.n_valence)
          sm -= q * std::exp(-(scr.mu - en) * tau);
        else
          sp += q * std::exp(-(en - scr.mu) * tau);
      }
      sig_e[static_cast<std::size_t>(j)] = 0.5 * (sp + sm);
      sig_o[static_cast<std::size_t>(j)] = 0.5 * (sp - sm);
    }

    // Sigma^c(i nu_k) = cos[Sigma^e] + i sin[Sigma^o] (wide-range refits),
    // then Thiele-Pade continuation to just above the real axis. Energies
    // are measured from mu on both axes.
    std::vector<cplx> sig_w(static_cast<std::size_t>(n));
    for (idx k = 0; k < n; ++k) {
      cplx ce{}, co{};
      for (idx j = 0; j < n; ++j) {
        ce += scr.cos_tw_sigma(k, j) * sig_e[static_cast<std::size_t>(j)];
        co += scr.sin_tw_sigma(k, j) * sig_o[static_cast<std::size_t>(j)];
      }
      sig_w[static_cast<std::size_t>(k)] = ce + cplx{0.0, 1.0} * co;
    }
    const PadeApproximant pade(zk, sig_w, opt.pade_guard);

    const double de_fd = 0.01;
    const cplx sc0 = pade.eval(cplx{e0 - scr.mu, opt.eta});
    const cplx sc1 = pade.eval(cplx{e0 + de_fd - scr.mu, opt.eta});

    StResult r;
    r.band = l;
    r.e_mf = e0;
    r.sigma_x = sx;
    r.sigma_c = sc0;
    const double dsig = (sc1.real() - sc0.real()) / de_fd;
    double z = 1.0 / (1.0 - dsig);
    if (!(z > 0.0) || z > 2.0) z = std::clamp(z, 0.0, 2.0);
    r.z = z;
    r.e_qp = e0 + z * (sx.real() + sc0.real());
    r.pade_points = pade.points_used();
    r.pade_truncated = pade.truncated();
    out[static_cast<std::size_t>(bi)] = r;
  };

  // Bands run as scheduler tasks (disjoint out slots) unless the W store
  // is paging — spill reference stability is a single-thread contract.
  const int workers = sched::Executor::default_workers();
  const idx nbands = static_cast<idx>(bands.size());
  if (workers > 1 && nbands > 1 && !scr.wtau.spilling()) {
    (void)gw.mtxel();  // prime the lazy cache before tasks race to it
    sched::run_items(nbands, compute_band, workers, "sigma_st.band");
  } else {
    for (idx bi = 0; bi < nbands; ++bi) compute_band(bi);
  }
  return out;
}

}  // namespace xgw
