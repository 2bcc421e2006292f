#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "benchkit/stats.h"
#include "cli/driver.h"
#include "common/error.h"
#include "common/flops.h"
#include "common/quadrature.h"
#include "core/sigma.h"
#include "core/sigma_ff.h"
#include "core/sigma_st.h"
#include "harness.h"
#include "la/autotune.h"
#include "la/gemm.h"
#include "mem/tracker.h"
#include "obs/json.h"
#include "serve/batch.h"

namespace xgwb {

namespace {

using xgw::GwCalculation;
using xgw::ZMatrix;
using xgw::cplx;
namespace json = xgw::obs::json;
using Clock = std::chrono::steady_clock;

/// Spans recorded by the harness around layer calls: name, start, end,
/// parent and run id. Kept in memory; serialized when the pass ends.
class Tracer {
 public:
  explicit Tracer(int run_id) : run_id_(run_id), t0_(Clock::now()) {}

  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now(), -1.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  /// Runs `f` inside a span under `parent`; returns the span's duration.
  template <typename F>
  double span(std::string name, int parent, F&& f) {
    const int id = open(std::move(name), parent);
    f();
    close(id);
    return seconds(id);
  }

  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  double children_seconds(int parent) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent == parent) sum += seconds(static_cast<int>(i));
    return sum;
  }

  std::string json_text(const std::string& workload) const {
    json::Value doc = json::Value::make_object();
    doc.set("workload", json::Value::make_string(workload));
    doc.set("run_id", json::Value::make_number(run_id_));
    json::Value& arr = doc.set("spans", json::Value::make_array());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Value v = json::Value::make_object();
      v.set("id", json::Value::make_number(static_cast<double>(i)));
      v.set("name", json::Value::make_string(s.name));
      v.set("parent", json::Value::make_number(s.parent));
      v.set("run_id", json::Value::make_number(run_id_));
      v.set("start_s", json::Value::make_number(s.start));
      v.set("end_s", json::Value::make_number(s.end));
      arr.push(std::move(v));
    }
    return json::dump(doc, 1) + "\n";
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;  ///< -1 for a root
  };
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  int run_id_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

template <typename F>
double seconds_of(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
std::vector<double> time_reps(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) t.push_back(seconds_of(f));
  return t;
}

void fill(ZMatrix& m, double phase) {
  for (idx i = 0; i < m.rows(); ++i)
    for (idx j = 0; j < m.cols(); ++j)
      m(i, j) = cplx{std::sin(phase + 0.37 * i - 0.11 * j),
                     std::cos(phase - 0.23 * i + 0.05 * j)};
}

/// What one traced pass measured, in layer terms. MTXEL pair and row
/// counts are modelled from the call structure (one bra transform per row,
/// one product per (row, ket) pair); FFT counts are measured.
struct Layers {
  double mf_s = 0, chi_s = 0, eps_s = 0, model_s = 0, sigma_s = 0;
  double kernel_s = 0;  ///< Sigma contraction kernel, busy (TimerRegistry)
  long fft_chi = 0;         ///< FFTs of the chi build
  long fft_pre_sigma = 0;   ///< FFTs of every stage before Sigma
  long fft_sigma = 0;       ///< Sigma's MTXEL rows, serial from a cold cache
  double chi_pairs = 0, chi_rows = 0, sigma_pairs = 0, sigma_rows = 0;
  double herk_points = 0, gemm_points = 0;  ///< chi grid points per kernel
  double inversions = 0, tau_batches = 0;
  double mtxel_sigma_s = 0, gpp_diag_gflop = 0;
  idx ng = 0, nv = 0, nc = 0, nb = 0;
};

void record_sizes(const GwCalculation& gw, Layers& L) {
  L.ng = gw.n_g();
  L.nv = gw.n_valence();
  L.nb = gw.n_bands();
  L.nc = L.nb - L.nv;
}

/// mf -> mtxel: the GwCalculation constructor plus dense heev, then the
/// MTXEL object (band cache and FFT box).
std::unique_ptr<GwCalculation> build_mf(const xgw::InputFile& inp, Tracer& tr,
                                        int parent, Layers& L) {
  std::unique_ptr<GwCalculation> gw;
  L.mf_s = tr.span("mf", parent, [&] {
    gw = std::make_unique<GwCalculation>(xgw::build_material_from_input(inp),
                                         xgw::build_params_from_input(inp));
    gw->wavefunctions();
  });
  tr.span("mtxel", parent, [&] { gw->mtxel(); });
  record_sizes(*gw, L);
  return gw;
}

/// The GPP route in xgw_run's order: chi0 -> epsinv0 -> gpp ->
/// sigma_diag.
void gpp_stages(GwCalculation& gw, const std::vector<idx>& bands,
                idx n_e_points, Tracer& tr, int parent, Layers& L,
                std::vector<xgw::QpResult>& qp) {
  L.chi_s = tr.span("chi", parent, [&] { gw.chi0(); });
  L.fft_chi = gw.mtxel().fft_count();
  L.eps_s = tr.span("epsilon", parent, [&] { gw.epsinv0(); });
  L.model_s = tr.span("gpp", parent, [&] { gw.gpp(); });
  L.fft_pre_sigma = gw.mtxel().fft_count();
  L.sigma_s = tr.span("sigma", parent, [&] {
    qp = gw.sigma_diag(bands, n_e_points, 0.02);
  });
  L.kernel_s = gw.timers().seconds("gpp_diag_kernel");
  L.herk_points = 1;
  L.inversions = 1;
  L.chi_pairs = static_cast<double>(L.nv * L.nc);
  L.chi_rows = static_cast<double>(L.nv);
}

/// The full-frequency and space-time routes: build_*_screening, then
/// *_diag. Their chi, eps^-1 and Sigma-kernel times are the calculation's
/// own TimerRegistry regions; the rest of the screening stage is the
/// screening model (frequency grid and heads, minimax fit, transforms).
template <typename Screen, typename Diag>
void route_stages(GwCalculation& gw, Tracer& tr, int parent, Layers& L,
                  const char* chi_timer, const char* eps_timer,
                  const char* kernel_timer, Screen&& screen, Diag&& diag) {
  const double screening = tr.span("screening", parent, screen);
  L.fft_chi = gw.mtxel().fft_count();
  L.fft_pre_sigma = L.fft_chi;
  L.chi_s = gw.timers().seconds(chi_timer);
  L.eps_s = gw.timers().seconds(eps_timer);
  L.model_s = screening - L.chi_s - L.eps_s;
  L.sigma_s = tr.span("sigma", parent, diag);
  L.kernel_s = gw.timers().seconds(kernel_timer);
}

/// QP energies at xgw_run's printed precision (%.4f eV).
template <typename R>
std::vector<Answer> qp_answers(const std::vector<R>& qp) {
  std::vector<Answer> a;
  for (const R& r : qp) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", r.e_qp * xgw::kHartreeToEv);
    a.push_back({"band " + std::to_string(r.band), buf});
  }
  return a;
}

std::vector<Answer> serve_answers(const xgw::serve::BatchReport& rep,
                                  const std::vector<double>& freqs) {
  using xgw::serve::canon_double;
  std::vector<Answer> a;
  for (const xgw::serve::JobOutcome& j : rep.jobs) {
    for (const xgw::QpResult& r : j.qp)
      a.push_back({"band " + std::to_string(r.band),
                   canon_double(r.e_qp * xgw::kHartreeToEv)});
    for (std::size_t k = 0; k < j.eps_heads.size(); ++k)
      a.push_back({k == 0 ? "head static"
                          : "head i*" + canon_double(freqs[k - 1]),
                   canon_double(j.eps_heads[k])});
  }
  return a;
}

}  // namespace

TracedResult traced_pass(const Workload& w, const Inputs& in,
                         const std::string& scratch, int threads,
                         int run_id) {
  TracedResult res;
  Layers L;
  Tracer tr(run_id);
  xgw::mem::tracker().reset_peak();

  // ---- top-level stages: the workload's own calls, in xgw_run's order
  const int run = tr.open("run", -1);
  std::unique_ptr<GwCalculation> gw;
  std::vector<idx> sigma_bands = in.sigma_bands;
  std::vector<double> serve_freqs;
  xgw::serve::BatchReport cold, warm;  // the serve workload's batches
  const xgw::InputFile inp =
      w.route == Route::kServe
          ? xgw::InputFile()
          : xgw::InputFile::load(in.job, xgw::known_input_keys());
  idx n_e_points = inp.get_int("n_e_points", 3);  // as job_sigma reads it
  switch (w.route) {
    case Route::kGpp: {
      gw = build_mf(inp, tr, run, L);
      std::vector<xgw::QpResult> qp;
      gpp_stages(*gw, sigma_bands, n_e_points, tr, run, L, qp);
      res.answers = qp_answers(qp);
      break;
    }
    case Route::kFf: {
      gw = build_mf(inp, tr, run, L);
      xgw::FfOptions fo;  // as job_ff builds it
      fo.n_freq = inp.get_int("n_freq", 24);
      fo.chi.nv_block = inp.get_int("nv_block", fo.chi.nv_block);
      std::unique_ptr<xgw::FfScreening> scr;
      std::vector<xgw::FfResult> qp;
      route_stages(
          *gw, tr, run, L, "ff_chi_freq(full_pw)", "ff_eps_inverse",
          "ff_sigma_kernel",
          [&] {
            scr = std::make_unique<xgw::FfScreening>(
                xgw::build_ff_screening(*gw, fo));
          },
          [&] { qp = xgw::sigma_ff_diag(*gw, *scr, sigma_bands); });
      res.answers = qp_answers(qp);
      // omega_0 = 0 runs the Hermitian update; the real-axis rest ZGEMM.
      L.herk_points = 1;
      L.gemm_points = static_cast<double>(fo.n_freq - 1);
      L.inversions = static_cast<double>(fo.n_freq);
      L.chi_pairs = static_cast<double>(L.nv * L.nc);
      L.chi_rows = static_cast<double>(L.nv);
      break;
    }
    case Route::kSt: {
      gw = build_mf(inp, tr, run, L);
      xgw::StOptions so;  // as run_sigma_st builds it
      so.n_tau = inp.get_int("n_tau", 14);
      so.eta = gw->params().eta;
      so.chi.nv_block = gw->params().nv_block;
      std::unique_ptr<xgw::StScreening> scr;
      std::vector<xgw::StResult> qp;
      route_stages(
          *gw, tr, run, L, "st_chi_itau", "st_eps_inverse", "st_sigma_kernel",
          [&] {
            scr = std::make_unique<xgw::StScreening>(
                xgw::build_st_screening(*gw, so));
          },
          [&] { qp = xgw::sigma_st_diag(*gw, *scr, sigma_bands, so); });
      res.answers = qp_answers(qp);
      L.herk_points = static_cast<double>(scr->n_tau);
      L.inversions = static_cast<double>(scr->n_tau);
      L.tau_batches = static_cast<double>(scr->tau_batches);
      L.chi_pairs = static_cast<double>(L.nv * L.nc) * L.tau_batches;
      L.chi_rows = static_cast<double>(L.nv) * L.tau_batches;
      break;
    }
    case Route::kServe: {
      const auto jobs = xgw::serve::load_manifest(in.job);
      xgw::serve::ServeOptions so;
      so.store_dir = scratch + "/serve_store";
      so.workers = threads;
      std::filesystem::remove_all(so.store_dir);
      std::ostringstream sink;
      tr.span("serve.cold", run,
              [&] { cold = xgw::serve::run_batch(jobs, so, sink); });
      tr.span("serve.warm", run,
              [&] { warm = xgw::serve::run_batch(jobs, so, sink); });
      // The stage replay below runs the sigma jobs' union of bands; the
      // heads need the epsilon job's frequency grid.
      sigma_bands.clear();
      for (const auto& j : jobs) {
        if (j.input.require_string("job") == "epsilon") {
          serve_freqs = xgw::gauss_legendre_semi_infinite(
                            j.input.get_int("n_freq", 0), 1.0)
                            .nodes;
          continue;
        }
        n_e_points = j.input.get_int("n_e_points", 3);
        for (idx b : j.input.get_int_list("sigma_bands"))
          if (std::find(sigma_bands.begin(), sigma_bands.end(), b) ==
              sigma_bands.end())
            sigma_bands.push_back(b);
      }
      res.answers = serve_answers(cold, serve_freqs);
      if (warm.total_builds() != 0)
        res.problems.push_back("the warm batch built " +
                               std::to_string(warm.total_builds()) +
                               " sub-results");
      break;
    }
  }
  tr.close(run);
  res.wall_s = tr.seconds(run);
  res.stage_sum_s = tr.children_seconds(run);
  const double peak_tracked_mb =
      static_cast<double>(xgw::mem::tracker().peak_bytes()) / (1024.0 * 1024.0);

  // ---- probes: excluded from attribution --------------------------------
  const int probes = tr.open("probes", -1);
  if (w.route == Route::kServe) {
    // Stage replay of the sigma jobs' share of the cold batch (the shared
    // mean field, chi, eps^-1 and GPP model, and the union of their Sigma
    // bands), so serve has the same layer rows as the GW workloads. The
    // epsilon job's two-frequency sweep is not replayed.
    const int replay = tr.open("serve.replay", probes);
    const auto jobs = xgw::serve::load_manifest(in.job);
    gw = build_mf(jobs.front().input, tr, replay, L);
    std::vector<xgw::QpResult> qp;
    gpp_stages(*gw, sigma_bands, n_e_points, tr, replay, L, qp);
    tr.close(replay);
  }
  GwCalculation& g = *gw;

  std::vector<double> t_fft;
  tr.span("fft", probes, [&] {
    const xgw::Fft3d fft(g.mtxel().box());
    std::vector<cplx> pristine(static_cast<std::size_t>(fft.box().size()));
    for (std::size_t i = 0; i < pristine.size(); ++i)
      pristine[i] = cplx{std::sin(0.1 * i), std::cos(0.3 * i)};
    std::vector<cplx> buf;
    for (int r = 0; r < 300; ++r) {
      buf = pristine;  // the unnormalized transform grows its input
      t_fft.push_back(seconds_of([&] { fft.backward(buf.data()); }));
    }
  });

  // chi's rank-k shape: one NV-Block of pairs (nv_block * N_c) x N_G.
  const idx rows = g.params().nv_block * L.nc;
  ZMatrix a(rows, L.ng), b(rows, L.ng), out(L.ng, L.ng);
  fill(a, 0.3);
  for (idx i = 0; i < rows; ++i)
    for (idx j = 0; j < L.ng; ++j) b(i, j) = (-0.5 - 0.001 * i) * a(i, j);
  std::vector<double> t_gemm, t_herk, t_lu;
  tr.span("zgemm", probes, [&] {
    t_gemm = time_reps(10, [&] {
      xgw::zgemm(xgw::Op::kConjTrans, xgw::Op::kNone, cplx{1.0, 0.0}, a, b,
                 cplx{0.0, 0.0}, out);
    });
  });
  tr.span("zherk", probes, [&] {
    t_herk = time_reps(10, [&] { xgw::zherk_update(a, b, out); });
  });
  tr.span("lu", probes, [&] {
    ZMatrix chi(L.ng, L.ng);
    for (idx i = 0; i < L.ng; ++i) chi(i, i) = cplx{-1e-3, 0.0};
    t_lu = time_reps(10, [&] { xgw::epsilon_inverse(chi, g.coulomb()); });
  });

  std::vector<double> t_put, t_get;
  tr.span("cas", probes, [&] {
    const std::string dir = scratch + "/probe_store";
    std::filesystem::remove_all(dir);
    {
      xgw::serve::CasStore store(dir);
      ZMatrix m(L.ng, L.ng);
      fill(m, 1.1);
      for (int r = 0; r < 50; ++r) {
        const std::string key = "probe-" + std::to_string(r);
        t_put.push_back(seconds_of([&] { store.put_matrix(key, m); }));
      }
      for (int r = 0; r < 50; ++r) {
        const std::string key = "probe-" + std::to_string(r);
        t_get.push_back(seconds_of([&] {
          XGW_REQUIRE(store.get_matrix(key).has_value(),
                      "benchmark: probe store lost " + key);
        }));
      }
    }
    std::filesystem::remove_all(dir);
  });

  // Sigma's MTXEL rows, serially in band order from a cold band cache: the
  // Sigma FFT count. (The traced stage runs bands as concurrent tasks, and
  // which band takes the cache first moves its count by a few.) The rows
  // are then the GPP kernel's input for its exact FLOP count, which the
  // parallel band loop of sigma_diag does not take.
  std::sort(sigma_bands.begin(), sigma_bands.end());
  std::vector<ZMatrix> m_ln;
  L.mtxel_sigma_s = tr.span("mtxel.sigma", probes, [&] {
    g.mtxel().clear_cache();
    const long f0 = g.mtxel().fft_count();
    for (idx l : sigma_bands) m_ln.push_back(g.m_matrix_left(l));
    L.fft_sigma = g.mtxel().fft_count() - f0;
  });
  L.sigma_pairs = static_cast<double>(sigma_bands.size()) *
                  static_cast<double>(L.nb);
  L.sigma_rows = static_cast<double>(sigma_bands.size());
  if (w.route == Route::kGpp || w.route == Route::kServe) {
    tr.span("gpp.flops", probes, [&] {
      xgw::FlopCounter flops;
      const xgw::GppDiagKernel kernel(g.gpp(), g.coulomb());
      const xgw::Wavefunctions& wf = g.wavefunctions();
      std::vector<xgw::SigmaParts> parts;
      for (std::size_t i = 0; i < sigma_bands.size(); ++i) {
        const double e0 = wf.energy[static_cast<std::size_t>(sigma_bands[i])];
        std::vector<double> e(static_cast<std::size_t>(n_e_points));
        for (idx k = 0; k < n_e_points; ++k)
          e[static_cast<std::size_t>(k)] =
              e0 + 0.02 * (static_cast<double>(k) -
                           0.5 * static_cast<double>(n_e_points - 1));
        kernel.compute(m_ln[i], wf.energy, wf.n_valence, e, parts,
                       xgw::GppKernelVariant::kOptimized, &flops);
      }
      L.gpp_diag_gflop = static_cast<double>(flops.total()) * 1e-9;
    });
  }
  tr.close(probes);

  // ---- layer metrics -----------------------------------------------------
  using xgw::bench::median;
  const double t_fft_s = median(t_fft);
  const double box_n = static_cast<double>(g.mtxel().box().size());
  const double herk_rate =
      xgw::flop_model::zherk(L.ng, rows) * 1e-9 / median(t_herk);
  const double gemm_rate =
      xgw::flop_model::zgemm(L.ng, L.ng, rows) * 1e-9 / median(t_gemm);
  const double pairs = static_cast<double>(L.nv * L.nc);
  const double chi_gflop =
      (L.herk_points * xgw::flop_model::zherk(L.ng, L.nv * L.nc) +
       L.gemm_points * xgw::flop_model::zgemm(L.ng, L.ng, L.nv * L.nc)) *
      1e-9;
  // chi's update is one probe-shaped call per NV-Block per grid point.
  const double gemm_est_s =
      (L.herk_points * median(t_herk) + L.gemm_points * median(t_gemm)) *
      (pairs / static_cast<double>(rows));
  const double fft_pairs = L.chi_pairs + L.sigma_pairs;
  const double band_requests = fft_pairs + L.chi_rows + L.sigma_rows;
  const double band_transforms =
      static_cast<double>(L.fft_chi + L.fft_sigma) - fft_pairs;
  const long fft_total = L.fft_pre_sigma + L.fft_sigma;
  const double fft_est_s = static_cast<double>(fft_total) * t_fft_s;

  auto add = [&](const char* name, double v, const char* unit,
                 std::size_t n = 1) { res.layers.push_back({name, v, unit, n}); };
  auto exact = [&](const char* name, double v, const char* unit) {
    res.layers.push_back({name, v, unit, 1});
    res.counters.push_back({name, v, unit, 1});
  };
  add("mf.bands_s", L.mf_s, "s");
  add("fft.transform_ms", t_fft_s * 1e3, "ms", t_fft.size());
  add("fft.gflops_model", 5.0 * box_n * std::log2(box_n) / t_fft_s * 1e-9,
      "GFLOP/s", t_fft.size());
  exact("fft.count.chi", static_cast<double>(L.fft_chi), "count");
  exact("fft.count.sigma", static_cast<double>(L.fft_sigma), "count");
  exact("fft.count.total", static_cast<double>(fft_total), "count");
  add("fft.est_s", fft_est_s, "s", t_fft.size());
  exact("mtxel.ffts_per_pair",
        static_cast<double>(L.fft_chi + L.fft_sigma) / fft_pairs, "ratio");
  exact("mtxel.band_cache_hit_frac",
        (band_requests - band_transforms) / band_requests, "ratio");
  add("mtxel.sigma_s", L.mtxel_sigma_s, "s");
  add("chi.build_s", L.chi_s, "s");
  exact("chi.model_gflop", chi_gflop, "GFLOP");
  add("chi.gflops", chi_gflop / L.chi_s, "GFLOP/s");
  add("la.zgemm_gflops", gemm_rate, "GFLOP/s", t_gemm.size());
  add("la.zherk_gflops", herk_rate, "GFLOP/s", t_herk.size());
  add("la.lu_ms", median(t_lu) * 1e3, "ms", t_lu.size());
  add("la.fma_peak_gflops", xgw::la::autotune_result().fma_peak_gflops,
      "GFLOP/s");
  add("la.gemm_est_s", gemm_est_s, "s");
  add("epsilon.inverse_s", L.eps_s, "s");
  exact("epsilon.inversions", L.inversions, "count");
  add("screening.model_s", L.model_s, "s");
  add("sigma.diag_s", L.sigma_s, "s");
  add("sigma.kernel_s", L.kernel_s, "s");
  exact("gpp.diag_gflop", L.gpp_diag_gflop, "GFLOP");
  exact("sigma_st.tau_batches", L.tau_batches, "count");
  add("mem.peak_tracked_mb", peak_tracked_mb, "MB");
  const xgw::serve::BatchReport& c = cold;  // zero on the GW workloads
  exact("serve.builds.mf", static_cast<double>(c.mf_builds), "count");
  exact("serve.builds.mtxel", static_cast<double>(c.mtxel_builds), "count");
  exact("serve.builds.chi", static_cast<double>(c.chi_builds), "count");
  exact("serve.builds.eps", static_cast<double>(c.eps_builds), "count");
  exact("serve.builds.epsf", static_cast<double>(c.epsfreq_builds), "count");
  exact("serve.builds.sigma_band", static_cast<double>(c.sigma_band_builds),
        "count");
  exact("serve.dag_tasks", static_cast<double>(c.n_tasks), "count");
  exact("serve.shared_nodes", static_cast<double>(c.shared_nodes), "count");
  const double warm_probes =
      static_cast<double>(warm.cas.hits + warm.cas.misses);
  exact("serve.warm_hit_frac",
        warm_probes > 0 ? static_cast<double>(warm.cas.hits) / warm_probes
                        : 0.0,
        "ratio");
  res.layers.back().n = static_cast<std::size_t>(warm_probes);
  exact("cas.bytes_written", static_cast<double>(c.cas.bytes_written), "B");
  exact("cas.bytes_read", static_cast<double>(warm.cas.bytes_read), "B");
  add("cas.put_ms", median(t_put) * 1e3, "ms", t_put.size());
  add("cas.get_ms", median(t_get) * 1e3, "ms", t_get.size());
  add("trace.wall_s", res.wall_s, "s");
  add("trace.unattributed_s", res.wall_s - res.stage_sum_s, "s");

  char line[160];
  std::snprintf(line, sizeof(line),
                "fft.est_s/trace.wall_s %.3f  la.gemm_est_s/trace.wall_s %.4f  "
                "trace.unattributed_s/trace.wall_s %.2e",
                fft_est_s / res.wall_s, gemm_est_s / res.wall_s,
                (res.wall_s - res.stage_sum_s) / res.wall_s);
  res.separation = line;
  res.trace_json = tr.json_text(w.name);
  return res;
}

}  // namespace xgwb
