// Task-graph scheduler bench: strong scaling of real concurrent execution.
//
// The sched subsystem turns SimCluster's modeled parallelism into actual
// thread-level concurrency. This bench measures what the alpha-beta model
// can only project: wall-clock strong scaling of a Sigma-pool-shaped task
// graph at 1/2/4 workers, with the graph microstructure (task and edge
// counts, critical-path FLOPs) exact-gated — those are pure functions of
// the workload shape and must never drift. Wall times and steal counts are
// machine- and schedule-dependent: recorded noise-aware / report-only.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "sched/executor.h"
#include "sched/run_items.h"
#include "sched/taskgraph.h"

using namespace xgw;
using namespace xgw::bench;

namespace {

/// Per-task compute body: a fixed-length complex Horner evaluation, enough
/// work (~1 ms serial) that scheduling overhead is a rounding error. Pure
/// function of (seed, n) — reruns and worker counts cannot change it.
cplx horner_work(std::uint64_t seed, int n) {
  Rng rng(seed);
  const cplx z = rng.normal_cplx();
  const cplx x = z / (1.0 + std::abs(z));  // strictly inside the unit disk
  cplx acc{1.0, 0.0};
  for (int i = 0; i < n; ++i)
    acc = acc * x + cplx{static_cast<double>(i % 7), 1.0};
  return acc;
}

/// Sigma-pool workload: `pools` independent pools of `bands` band tasks
/// each, a per-pool reduction reading its bands in fixed order, and a final
/// join over the pool sums. Band results land in disjoint slots, so the
/// graph is bitwise deterministic at any worker count.
struct SigmaPoolGraph {
  sched::TaskGraph graph;
  std::vector<cplx> band_out;
  std::vector<cplx> pool_sum;
  cplx total;

  SigmaPoolGraph(idx pools, idx bands, int work_n) {
    band_out.assign(static_cast<std::size_t>(pools * bands), cplx{});
    pool_sum.assign(static_cast<std::size_t>(pools), cplx{});
    std::vector<sched::TaskId> reduces;
    for (idx p = 0; p < pools; ++p) {
      std::vector<sched::TaskId> members;
      for (idx b = 0; b < bands; ++b) {
        const idx slot = p * bands + b;
        members.push_back(graph.add_task(
            "band " + std::to_string(slot),
            [this, slot, work_n] {
              band_out[static_cast<std::size_t>(slot)] = horner_work(
                  static_cast<std::uint64_t>(slot) + 1, work_n);
            },
            "sigma.band", 8.0 * work_n));
      }
      const sched::TaskId red = graph.add_task(
          "pool " + std::to_string(p),
          [this, p, bands] {
            cplx s{};
            for (idx b = 0; b < bands; ++b)
              s += band_out[static_cast<std::size_t>(p * bands + b)];
            pool_sum[static_cast<std::size_t>(p)] = s;
          },
          "sigma.pool", static_cast<double>(bands));
      for (sched::TaskId m : members) graph.add_edge(m, red);
      reduces.push_back(red);
    }
    const sched::TaskId join = graph.add_task(
        "join",
        [this, pools] {
          cplx s{};
          for (idx p = 0; p < pools; ++p)
            s += pool_sum[static_cast<std::size_t>(p)];
          total = s;
        },
        "sigma.join", static_cast<double>(pools));
    for (sched::TaskId r : reduces) graph.add_edge(r, join);
  }
};

void graph_shape(Suite& suite) {
  section("graph microstructure (exact-gated)");
  const idx pools = 4;
  const idx bands = 8;
  SigmaPoolGraph g(pools, bands, 1);

  Table t({"graph", "tasks", "edges", "critical-path flops"});
  t.row({"sigma pool 4x8", fmt_int(g.graph.n_tasks()),
         fmt_int(g.graph.n_edges()), fmt(g.graph.critical_path_flops(), 0)});
  suite.series("graph/sigma_pool_4x8")
      .counter("tasks", static_cast<double>(g.graph.n_tasks()))
      .counter("edges", static_cast<double>(g.graph.n_edges()))
      .counter("critical_path_flops", g.graph.critical_path_flops());

  // Commit chain with a sliding window of width 4: compute tasks, a serial
  // commit chain, and window edges bounding live results.
  sched::TaskGraph eps;
  const idx nf = 12;
  const idx window = 4;
  std::vector<sched::TaskId> compute(static_cast<std::size_t>(nf));
  std::vector<sched::TaskId> commit(static_cast<std::size_t>(nf));
  for (idx k = 0; k < nf; ++k) {
    compute[static_cast<std::size_t>(k)] =
        eps.add_task("compute " + std::to_string(k), [] {}, "eps.compute");
    commit[static_cast<std::size_t>(k)] =
        eps.add_task("commit " + std::to_string(k), [] {}, "eps.commit");
    eps.add_edge(compute[static_cast<std::size_t>(k)],
                 commit[static_cast<std::size_t>(k)]);
    if (k > 0)
      eps.add_edge(commit[static_cast<std::size_t>(k - 1)],
                   commit[static_cast<std::size_t>(k)]);
    if (k >= window)
      eps.add_edge(commit[static_cast<std::size_t>(k - window)],
                   compute[static_cast<std::size_t>(k)]);
  }
  t.row({"eps chain 12/w4", fmt_int(eps.n_tasks()), fmt_int(eps.n_edges()),
         fmt(eps.critical_path_flops(), 0)});
  suite.series("graph/eps_chain_12_w4")
      .counter("tasks", static_cast<double>(eps.n_tasks()))
      .counter("edges", static_cast<double>(eps.n_edges()));
  t.print();
}

void adapter_counters(Suite& suite) {
  section("run_items adapter (exact-gated task/edge counts)");
  Table t({"items", "workers", "tasks", "edges", "steals"});
  for (int w : {1, 2, 4}) {
    std::vector<cplx> out(64);
    const sched::ExecStats st = sched::run_items(
        64,
        [&](idx i) {
          out[static_cast<std::size_t>(i)] =
              horner_work(static_cast<std::uint64_t>(i), 64);
        },
        w, "bench.item");
    t.row({fmt_int(64), fmt_int(w), fmt_int(st.tasks), fmt_int(st.edges),
           fmt_int(st.steals)});
    // tasks/edges are shape properties, identical at any worker count;
    // which worker ran a task is schedule noise, so steals stay a value.
    suite.series("run_items/n=64/w=" + fmt_int(w))
        .counter("tasks", static_cast<double>(st.tasks))
        .counter("edges", static_cast<double>(st.edges))
        .value("steals", static_cast<double>(st.steals))
        .value("busy_s", st.busy_s);
  }
  t.print();
}

void strong_scaling(Suite& suite) {
  section("strong scaling: Sigma-pool workload at 1/2/4 workers");
  const idx pools = 8;
  const idx bands = 8;
  const int work_n = 60000;  // ~1 ms per band task
  SigmaPoolGraph g(pools, bands, work_n);

  // Serial reference result: worker counts must not change a single bit.
  sched::Executor(1).run(g.graph);
  const cplx ref = g.total;

  Table t({"workers", "median (s)", "ci", "speedup", "steals"});
  double t1 = 0.0;
  for (int w : {1, 2, 4}) {
    const sched::Executor exec(w);
    sched::ExecStats last{};
    const TimingStats stats =
        run_timed([&] { last = exec.run(g.graph); });
    if (g.total != ref) {
      std::fprintf(stderr, "FATAL: result drift at %d workers\n", w);
      std::exit(1);
    }
    if (w == 1) t1 = stats.median_s;
    const double speedup = stats.median_s > 0.0 ? t1 / stats.median_s : 0.0;
    t.row({fmt_int(w), fmt(stats.median_s, 4),
           "[" + fmt(stats.ci_lo_s, 4) + ", " + fmt(stats.ci_hi_s, 4) + "]",
           fmt(speedup, 2) + "x", fmt_int(last.steals)});
    suite.series("strong/sigma_pool/w=" + fmt_int(w))
        .counter("tasks", static_cast<double>(last.tasks))
        .counter("edges", static_cast<double>(last.edges))
        .counter("workers", static_cast<double>(w))
        .value("speedup_vs_w1", speedup)
        .value("steals", static_cast<double>(last.steals))
        .time(stats);
  }
  t.print();
  std::printf(
      "\nBand tasks write disjoint slots; pool reductions read them in\n"
      "fixed order — the QP-side guarantee that worker count changes wall\n"
      "time and nothing else. Speedup saturates at min(workers, cores);\n"
      "this table is the measured input the alpha-beta model's efficiency\n"
      "calibration (perf/calib.h) consumes.\n");
}

}  // namespace

int main() {
  std::printf("xgw — task-graph scheduler: strong scaling + graph shape\n");
  Suite suite("sched");
  graph_shape(suite);
  adapter_counters(suite);
  strong_scaling(suite);
  suite.write();
  return 0;
}
