#include "serve/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <span>

#include "cli/driver.h"
#include "common/error.h"
#include "common/types.h"
#include "mem/planner.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pseudobands/pseudobands.h"
#include "sched/executor.h"
#include "sched/taskgraph.h"
#include "serve/workspace.h"

namespace xgw::serve {

namespace {

using Clock = std::chrono::steady_clock;

struct JobState {
  JobSpec spec;
  ResolvedSpec rs;
  std::unique_ptr<GwCalculation> gw;
  JobOutcome out;

  std::string mf_key, chi_key, eps_key;
  std::vector<std::string> sig_keys;   // sigma: one per band slot
  std::vector<std::string> mtx_keys;   // sigma: one per band slot
  std::vector<std::string> epsf_keys;  // epsilon: one per frequency

  bool eps_needed = false;
  std::vector<std::size_t> owned_slots;    // this job computes these bands
  std::vector<std::size_t> cached_slots;   // found in the CAS at submit
  std::vector<std::size_t> foreign_slots;  // another job in the batch owns
  std::vector<std::size_t> owned_freqs;
  std::vector<std::size_t> cached_freqs;
  std::vector<std::size_t> foreign_freqs;

  sched::TaskId work_task = -1;
  Clock::time_point done_at{};
};

struct BuildCounters {
  std::atomic<std::uint64_t> mf{0}, mtxel{0}, chi{0}, eps{0}, epsf{0}, sig{0};
};

void count_build(const char* stage) {
  obs::metrics().counter(std::string("serve/build/") + stage).add(1);
}

/// Everything the node bodies share. Helpers follow ensure-semantics
/// (workspace -> CAS -> compute) so a probe gone stale mid-batch — disk
/// eviction, corrupt entry dropped at read — degrades to recompute.
struct BatchCtx {
  const ServeOptions& opt;
  CasStore& cas;
  BatchWorkspace& ws;
  BuildCounters& builds;

  void ensure_wavefunctions(JobState& st) const {
    if (st.gw->has_wavefunctions()) return;
    if (auto wf = ws.get_wavefunctions(st.mf_key)) {
      st.gw->set_wavefunctions(*wf);
      return;
    }
    if (opt.use_cache) {
      if (auto wf = cas.get_wavefunctions(st.mf_key)) {
        ws.put_wavefunctions(st.mf_key, *wf);
        st.gw->set_wavefunctions(std::move(*wf));
        return;
      }
    }
    if (st.rs.input.pseudobands) {
      st.gw->set_wavefunctions(build_pseudobands(
          st.gw->wavefunctions(), st.rs.input.pseudobands_options));
    } else {
      st.gw->wavefunctions();
    }
    ++builds.mf;
    count_build("mf");
    if (opt.use_cache)
      cas.put_wavefunctions(st.mf_key, st.gw->wavefunctions());
    ws.put_wavefunctions(st.mf_key, st.gw->wavefunctions());
  }

  void ensure_chi(JobState& st) const {
    if (ws.has_matrix(st.chi_key)) return;
    if (opt.use_cache) {
      if (auto m = cas.get_matrix(st.chi_key)) {
        ws.put_matrix(st.chi_key, std::move(*m));
        return;
      }
    }
    ensure_wavefunctions(st);
    const ZMatrix& chi = st.gw->chi0();
    ++builds.chi;
    count_build("chi");
    if (opt.use_cache) cas.put_matrix(st.chi_key, chi);
    ws.put_matrix(st.chi_key, chi);
  }

  void ensure_eps(JobState& st) const {
    if (ws.has_matrix(st.eps_key)) return;
    if (opt.use_cache) {
      if (auto m = cas.get_matrix(st.eps_key)) {
        ws.put_matrix(st.eps_key, std::move(*m));
        return;
      }
    }
    if (!st.gw->has_chi0()) {
      if (auto chi = ws.get_matrix(st.chi_key)) {
        st.gw->set_chi0(*chi);
      } else {
        ensure_chi(st);
        if (!st.gw->has_chi0())
          if (auto chi2 = ws.get_matrix(st.chi_key))
            st.gw->set_chi0(*chi2);
      }
    }
    const ZMatrix& eps = st.gw->epsinv0();
    ++builds.eps;
    count_build("eps");
    if (opt.use_cache) cas.put_matrix(st.eps_key, eps);
    ws.put_matrix(st.eps_key, eps);
  }
};

std::string fmt_ev(double hartree) {
  return canon_double(hartree * kHartreeToEv);
}

}  // namespace

BatchReport run_batch(const std::vector<JobSpec>& jobs,
                      const ServeOptions& opt, std::ostream& os) {
  XGW_REQUIRE(!jobs.empty(), "run_batch: no jobs");
  const Clock::time_point t0 = Clock::now();

  CasStore cas(opt.store_dir,
               opt.store_budget_mb > 0.0 ? mem::mb(opt.store_budget_mb) : 0);
  cas.set_verify(opt.verify);
  BatchWorkspace ws;
  BuildCounters builds;
  BatchCtx ctx{opt, cas, ws, builds};

  const bool observe = !opt.report_path.empty();
  if (observe) obs::recorder().enable(obs::detail_level::kStage);

  // --- plan: probe the store, claim unique nodes, build the union DAG ----
  sched::TaskGraph graph;
  std::vector<std::unique_ptr<JobState>> states;
  std::map<std::string, sched::TaskId> node_task;  // mf/chi/eps ensure nodes
  std::map<std::string, std::size_t> slot_owner;   // sig/epsf key -> job
  std::map<std::string, int> key_refs;             // dependency-closure refs
  std::mutex err_mu;
  std::vector<std::string> warnings;

  auto guard = [&](JobState* st, std::function<void()> body) {
    // Shared ensure nodes must never take the whole batch down: a failure
    // is recorded and the consumers' inline fallbacks take over (or fail
    // per-job). st == nullptr marks a shared node.
    return [&, st, body = std::move(body)] {
      try {
        body();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (st) {
          st->out.rc = 1;
          if (st->out.error.empty()) st->out.error = e.what();
        } else {
          warnings.emplace_back(e.what());
        }
      }
      if (st) st->done_at = Clock::now();
    };
  };

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    auto stp = std::make_unique<JobState>();
    JobState& st = *stp;
    st.spec = jobs[j];
    st.out.name = st.spec.name;
    try {
      JobInput ji = read_job_input(st.spec.input);
      const EpmModel model = build_material(ji);
      st.gw = std::make_unique<GwCalculation>(model, ji.params);
      SpecDims dims;
      dims.nv = model.n_valence_bands();
      dims.ng = st.gw->n_g();
      const idx total = ji.params.n_bands > 0
                            ? std::min(ji.params.n_bands, st.gw->n_g_psi())
                            : st.gw->n_g_psi();
      dims.nc = total - dims.nv;
      st.rs = resolve_spec(st.spec.input, std::move(ji), dims);
      st.gw->set_nv_block(st.rs.nv_block);
      st.out.job = st.rs.input.job;
    } catch (const Error& e) {
      st.out.rc = 1;
      st.out.error = e.what();
      states.push_back(std::move(stp));
      continue;
    }

    st.mf_key = cache_key(st.rs, Stage::kMf);
    st.chi_key = cache_key(st.rs, Stage::kChi);
    st.eps_key = cache_key(st.rs, Stage::kEps);
    ++key_refs[st.mf_key];
    ++key_refs[st.chi_key];
    ++key_refs[st.eps_key];

    bool sig_compute = false, epsf_compute = false;
    if (st.rs.input.job == "sigma") {
      st.out.qp.resize(st.rs.bands.size());
      for (std::size_t i = 0; i < st.rs.bands.size(); ++i) {
        const idx b = st.rs.bands[i];
        st.sig_keys.push_back(cache_key(st.rs, Stage::kSigmaBand, b));
        st.mtx_keys.push_back(cache_key(st.rs, Stage::kMtxel, b));
        ++key_refs[st.sig_keys.back()];
        auto owner = slot_owner.find(st.sig_keys.back());
        if (owner != slot_owner.end() && owner->second != j) {
          st.foreign_slots.push_back(i);
        } else if (opt.use_cache && cas.probe(st.sig_keys.back())) {
          st.cached_slots.push_back(i);
        } else {
          st.owned_slots.push_back(i);
          slot_owner[st.sig_keys.back()] = j;
        }
      }
      sig_compute = !st.owned_slots.empty();
      st.eps_needed = sig_compute;
    } else {
      st.eps_needed = true;
      for (std::size_t k = 0; k < st.rs.freqs.size(); ++k) {
        st.epsf_keys.push_back(
            cache_key(st.rs, Stage::kEpsFreq, -1, static_cast<idx>(k)));
        ++key_refs[st.epsf_keys.back()];
        auto owner = slot_owner.find(st.epsf_keys.back());
        if (owner != slot_owner.end() && owner->second != j) {
          st.foreign_freqs.push_back(k);
        } else if (opt.use_cache && cas.probe(st.epsf_keys.back())) {
          st.cached_freqs.push_back(k);
        } else {
          st.owned_freqs.push_back(k);
          slot_owner[st.epsf_keys.back()] = j;
        }
      }
      epsf_compute = !st.owned_freqs.empty();
    }

    const bool eps_missed =
        st.eps_needed && !(opt.use_cache && cas.probe(st.eps_key));
    const bool chi_missed =
        eps_missed && !(opt.use_cache && cas.probe(st.chi_key));
    const bool needs_mf = sig_compute || epsf_compute || chi_missed;
    st.out.probe_hits = static_cast<idx>(st.cached_slots.size() +
                                         st.cached_freqs.size()) +
                        (st.eps_needed && !eps_missed ? 1 : 0) +
                        (eps_missed && !chi_missed ? 1 : 0);
    st.out.probe_misses =
        static_cast<idx>(st.owned_slots.size() + st.owned_freqs.size()) +
        (eps_missed ? 1 : 0) + (chi_missed ? 1 : 0);

    // Unique ensure nodes, claimed by the first job that needs them.
    JobState* p = &st;
    std::vector<sched::TaskId> deps;
    sched::TaskId mf_task = -1, chi_task = -1, eps_task = -1;
    if (needs_mf) {
      auto it = node_task.find(st.mf_key);
      if (it == node_task.end()) {
        mf_task = graph.add_task(
            "mf:" + st.mf_key, guard(nullptr, [&ctx, p] {
              ctx.ensure_wavefunctions(*p);
            }),
            "serve.mf");
        node_task[st.mf_key] = mf_task;
      } else {
        mf_task = it->second;
      }
      deps.push_back(mf_task);
    }
    if (st.eps_needed) {
      if (eps_missed) {
        auto cit = node_task.find(st.chi_key);
        if (cit == node_task.end()) {
          chi_task = graph.add_task(
              "chi:" + st.chi_key,
              guard(nullptr, [&ctx, p] { ctx.ensure_chi(*p); }), "serve.chi");
          node_task[st.chi_key] = chi_task;
        } else {
          chi_task = cit->second;
        }
        if (chi_missed && mf_task >= 0) graph.add_edge(mf_task, chi_task);
      }
      auto eit = node_task.find(st.eps_key);
      if (eit == node_task.end()) {
        eps_task = graph.add_task(
            "eps:" + st.eps_key,
            guard(nullptr, [&ctx, p] { ctx.ensure_eps(*p); }), "serve.eps");
        node_task[st.eps_key] = eps_task;
      } else {
        eps_task = eit->second;
      }
      if (chi_task >= 0) graph.add_edge(chi_task, eps_task);
      // Order mf before eps even when chi was a store hit: both node
      // bodies may touch the producer's GwCalculation, and
      // set_wavefunctions invalidates downstream stages.
      if (mf_task >= 0) graph.add_edge(mf_task, eps_task);
      deps.push_back(eps_task);
    }
    for (std::size_t i : st.foreign_slots)
      deps.push_back(states[slot_owner.at(st.sig_keys[i])]->work_task);
    for (std::size_t k : st.foreign_freqs)
      deps.push_back(states[slot_owner.at(st.epsf_keys[k])]->work_task);

    // The per-job work node: collect cached rows, compute owned ones (one
    // sigma_diag call — internally band-parallel), read foreign ones from
    // the workspace.
    st.work_task = graph.add_task(
        "job:" + st.out.name, guard(p, [&ctx, p] {
          JobState& s = *p;
          const ServeOptions& o = ctx.opt;
          if (s.rs.input.job == "sigma") {
            std::vector<std::size_t> leftover = s.owned_slots;
            for (std::size_t i : s.foreign_slots) {
              if (auto r = ctx.ws.get_qp(s.sig_keys[i]))
                s.out.qp[i] = *r;
              else
                leftover.push_back(i);  // producer failed: compute here
            }
            for (std::size_t i : s.cached_slots) {
              std::optional<QpResult> r;
              if (o.use_cache) r = ctx.cas.get_qp(s.sig_keys[i]);
              if (r)
                s.out.qp[i] = *r;
              else
                leftover.push_back(i);  // evicted/corrupt since the probe
            }
            if (!leftover.empty()) {
              std::sort(leftover.begin(), leftover.end());
              ctx.ensure_wavefunctions(s);
              if (!s.gw->has_epsinv0()) {
                if (auto e = ctx.ws.get_matrix(s.eps_key)) {
                  s.gw->set_epsinv0(*e);
                } else {
                  ctx.ensure_eps(s);
                  if (!s.gw->has_epsinv0())
                    if (auto e2 = ctx.ws.get_matrix(s.eps_key))
                      s.gw->set_epsinv0(*e2);
                }
              }
              std::map<idx, std::string> mtx_by_band;
              for (std::size_t i = 0; i < s.rs.bands.size(); ++i)
                mtx_by_band[s.rs.bands[i]] = s.mtx_keys[i];
              s.gw->set_mtxel_cache(
                  [&ctx, &mtx_by_band](idx l) -> std::optional<ZMatrix> {
                    auto it = mtx_by_band.find(l);
                    if (it == mtx_by_band.end() || !ctx.opt.use_cache)
                      return std::nullopt;
                    return ctx.cas.get_matrix(it->second);
                  },
                  [&ctx, &mtx_by_band](idx l, const ZMatrix& m) {
                    auto it = mtx_by_band.find(l);
                    if (it == mtx_by_band.end()) return;
                    ++ctx.builds.mtxel;
                    count_build("mtxel");
                    if (ctx.opt.use_cache) ctx.cas.put_matrix(it->second, m);
                  });
              std::vector<idx> bands;
              for (std::size_t i : leftover) bands.push_back(s.rs.bands[i]);
              const std::vector<QpResult> qp = s.gw->sigma_diag(
                  bands, s.rs.input.n_e_points, s.rs.input.e_step);
              s.gw->set_mtxel_cache({}, {});
              for (std::size_t i = 0; i < leftover.size(); ++i) {
                const std::size_t slot = leftover[i];
                s.out.qp[slot] = qp[i];
                ++ctx.builds.sig;
                count_build("sigma_band");
                if (o.use_cache) ctx.cas.put_qp(s.sig_keys[slot], qp[i]);
                ctx.ws.put_qp(s.sig_keys[slot], qp[i]);
              }
            }
          } else {
            // epsilon job: static head, then the imaginary-axis sweep.
            ctx.ensure_eps(s);
            {
              auto e = ctx.ws.get_matrix(s.eps_key);
              XGW_REQUIRE(e != nullptr, "serve: eps^{-1}(0) unavailable");
              s.out.eps_heads.push_back((*e)(0, 0).real());
            }
            if (!s.rs.freqs.empty()) {
              std::vector<double> heads(s.rs.freqs.size(), 0.0);
              std::vector<std::size_t> leftover = s.owned_freqs;
              auto head_from_ws = [&](std::size_t k) {
                auto m = ctx.ws.get_matrix(s.epsf_keys[k]);
                if (!m) return false;
                heads[k] = (*m)(0, 0).real();
                return true;
              };
              for (std::size_t k : s.foreign_freqs)
                if (!head_from_ws(k)) leftover.push_back(k);
              for (std::size_t k : s.cached_freqs) {
                std::optional<ZMatrix> m;
                if (o.use_cache) m = ctx.cas.get_matrix(s.epsf_keys[k]);
                if (m)
                  heads[k] = (*m)(0, 0).real();
                else
                  leftover.push_back(k);
              }
              if (!leftover.empty()) {
                std::sort(leftover.begin(), leftover.end());
                ctx.ensure_wavefunctions(s);
                ChiOptions copt;
                copt.eta = s.rs.input.params.eta;
                copt.nv_block = s.rs.nv_block;
                copt.imaginary_axis = true;
                std::vector<double> omegas;
                for (std::size_t k : leftover)
                  omegas.push_back(s.rs.freqs[k]);
                // Per-frequency results are bitwise invariant under
                // batching (core/epsilon.h), so computing only the missing
                // subset reproduces the full sweep's bytes.
                const auto eps = epsilon_inverse_multi(
                    s.gw->mtxel(), s.gw->wavefunctions(), s.gw->coulomb(),
                    std::span<const double>(omegas), copt);
                for (std::size_t i = 0; i < leftover.size(); ++i) {
                  const std::size_t k = leftover[i];
                  heads[k] = eps[i](0, 0).real();
                  ++ctx.builds.epsf;
                  count_build("epsfreq");
                  if (o.use_cache)
                    ctx.cas.put_matrix(s.epsf_keys[k], eps[i]);
                  ctx.ws.put_matrix(s.epsf_keys[k], eps[i]);
                }
              }
              for (double h : heads) s.out.eps_heads.push_back(h);
            }
          }
        }),
        "serve.job");
    for (sched::TaskId d : deps)
      if (d >= 0) graph.add_edge(d, st.work_task);
    states.push_back(std::move(stp));
  }

  // --- execute ------------------------------------------------------------
  sched::Executor ex(opt.workers);
  const sched::ExecStats es = ex.run(graph);

  // --- report -------------------------------------------------------------
  BatchReport rep;
  rep.n_tasks = es.tasks;
  rep.n_edges = es.edges;
  for (const auto& [key, refs] : key_refs) {
    (void)key;
    if (refs > 1) ++rep.shared_nodes;
  }
  rep.mf_builds = builds.mf;
  rep.mtxel_builds = builds.mtxel;
  rep.chi_builds = builds.chi;
  rep.eps_builds = builds.eps;
  rep.epsfreq_builds = builds.epsf;
  rep.sigma_band_builds = builds.sig;
  rep.cas = cas.stats();

  os << "serve batch: " << jobs.size() << " jobs store " << opt.store_dir
     << " workers " << ex.n_workers() << " verify "
     << mem::to_string(opt.verify) << (opt.use_cache ? "" : " cache off")
     << "\n";
  os << "serve plan: tasks " << rep.n_tasks << " edges " << rep.n_edges
     << " shared_nodes " << rep.shared_nodes << "\n";
  for (const std::string& w : warnings) os << "serve warning: " << w << "\n";

  auto& lat = obs::metrics().histogram("serve/job_wall_us");
  for (auto& stp : states) {
    JobState& st = *stp;
    if (st.done_at != Clock::time_point{})
      st.out.wall_s =
          std::chrono::duration<double>(st.done_at - t0).count();
    for (const std::string* key : {&st.mf_key, &st.chi_key, &st.eps_key})
      if (!key->empty() && key_refs[*key] > 1) ++st.out.shared;
    for (const std::string& k : st.sig_keys)
      if (key_refs[k] > 1) ++st.out.shared;
    for (const std::string& k : st.epsf_keys)
      if (key_refs[k] > 1) ++st.out.shared;
    lat.observe(static_cast<std::uint64_t>(st.out.wall_s * 1e6));

    if (st.out.rc == 0 && st.out.job == "sigma") {
      for (const QpResult& r : st.out.qp)
        os << "band " << r.band << " E_MF " << fmt_ev(r.e_mf) << " SX "
           << fmt_ev(r.sigma.sx.real()) << " CH " << fmt_ev(r.sigma.ch.real())
           << " Z " << canon_double(r.z) << " E_QP " << fmt_ev(r.e_qp)
           << "\n";
    } else if (st.out.rc == 0 && st.out.job == "epsilon") {
      for (std::size_t k = 0; k < st.out.eps_heads.size(); ++k) {
        os << "epsinv_head ";
        if (k == 0)
          os << "static";
        else
          os << "i*" << canon_double(st.rs.freqs[k - 1]);
        os << " " << canon_double(st.out.eps_heads[k]) << "\n";
      }
    }
    os << "serve job " << st.out.name << ": rc " << st.out.rc << " hits "
       << st.out.probe_hits << " misses " << st.out.probe_misses
       << " shared " << st.out.shared;
    char wall[32];
    std::snprintf(wall, sizeof(wall), " wall_s %.3f",
                  st.out.wall_s);
    os << wall;
    if (!st.out.error.empty()) os << " error " << st.out.error;
    os << "\n";
    rep.jobs.push_back(std::move(st.out));
  }

  os << "serve totals: builds mf " << rep.mf_builds << " mtxel "
     << rep.mtxel_builds << " chi " << rep.chi_builds << " eps "
     << rep.eps_builds << " epsf " << rep.epsfreq_builds << " sigma_band "
     << rep.sigma_band_builds << " cas_hits " << rep.cas.hits
     << " cas_misses " << rep.cas.misses << " evictions "
     << rep.cas.evictions << " corrupt " << rep.cas.corrupt << " bytes "
     << cas.disk_bytes() << "\n";

  obs::metrics().gauge("serve/store/bytes").set(
      static_cast<double>(cas.disk_bytes()));
  obs::metrics().gauge("serve/store/entries").set(
      static_cast<double>(cas.size()));

  if (observe) {
    obs::recorder().disable();
    std::string cfg;
    for (const auto& stp : states) {
      cfg += stp->out.name;
      cfg += ' ';
      cfg += stp->eps_key.empty() ? "unresolved" : stp->eps_key;
      cfg += '\n';
    }
    obs::RunReportDoc doc = obs::build_run_report(obs::recorder(), "serve",
                                                  cfg, 0.0, 0.0);
    XGW_REQUIRE(doc.write(opt.report_path),
                "run_batch: cannot write run report to " + opt.report_path);
    os << "run_report_written " << opt.report_path << "\n";
  }
  if (!opt.metrics_path.empty()) {
    obs::record_mem_gauges();
    XGW_REQUIRE(obs::metrics().write_json(opt.metrics_path),
                "run_batch: cannot write metrics to " + opt.metrics_path);
    os << "metrics_written " << opt.metrics_path << "\n";
  }
  return rep;
}

BatchReport run_manifest(const std::string& manifest_path,
                         const ServeOptions& opt, std::ostream& os) {
  return run_batch(load_manifest(manifest_path), opt, os);
}

}  // namespace xgw::serve
