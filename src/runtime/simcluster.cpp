#include "runtime/simcluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/timer.h"
#include "common/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/dist.h"
#include "sched/executor.h"
#include "sched/taskgraph.h"

namespace xgw {

SimCluster::SimCluster(idx n_ranks, NetworkModel net)
    : n_ranks_(n_ranks), net_(net) {
  XGW_REQUIRE(n_ranks >= 1, "SimCluster: need at least one rank");
}

double SimCluster::RunReport::time_to_solution() const {
  double slowest = 0.0;
  for (const RankReport& r : ranks) slowest = std::max(slowest, r.compute_s);
  return slowest + comm_s + recovery_s;
}

double SimCluster::RunReport::parallel_efficiency() const {
  const double t2s = time_to_solution();
  if (t2s <= 0.0 || ranks.empty()) return 1.0;
  return serial_s / (static_cast<double>(ranks.size()) * t2s);
}

std::string SimCluster::RunReport::gantt(idx width) const {
  double slowest = 1e-300;
  for (const RankReport& r : ranks) slowest = std::max(slowest, r.compute_s);
  std::ostringstream os;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const idx bar = static_cast<idx>(
        static_cast<double>(width) * ranks[r].compute_s / slowest + 0.5);
    os << "rank " << r << " |";
    for (idx i = 0; i < bar; ++i) os << '#';
    os << "  " << ranks[r].compute_s << " s";
    if (std::find(failed_ranks.begin(), failed_ranks.end(),
                  static_cast<idx>(r)) != failed_ranks.end())
      os << "  [DEAD]";
    os << "\n";
  }
  return os.str();
}

SimCluster::RunReport SimCluster::run(const std::function<void(idx rank)>& fn,
                                      int workers) const {
  RunReport report;
  report.ranks.resize(static_cast<std::size_t>(n_ranks_));

  // One virtual-time track per simulated rank: the modeled machine runs
  // every rank concurrently, so each rank's work is drawn from virtual
  // t = 0 regardless of when the host actually executed it.
  const bool tr = obs::trace_enabled();
  std::uint32_t vpid = 0;
  if (tr) {
    vpid = obs::recorder().new_virtual_process(
        "SimCluster run (" + std::to_string(n_ranks_) + " ranks)");
    for (idx r = 0; r < n_ranks_; ++r)
      obs::recorder().name_virtual_track(vpid, static_cast<std::uint32_t>(r),
                                         "rank " + std::to_string(r));
  }

  // One task per rank; the join node gives the graph its barrier edge
  // structure. Per-rank times land in disjoint slots and are summed in
  // rank order below, so serial_s is bitwise-deterministic.
  std::vector<double> rank_time(static_cast<std::size_t>(n_ranks_), 0.0);
  sched::TaskGraph graph;
  for (idx r = 0; r < n_ranks_; ++r)
    graph.add_task("rank " + std::to_string(r),
                   [&fn, &rank_time, r] {
                     Stopwatch sw;
                     fn(r);
                     rank_time[static_cast<std::size_t>(r)] = sw.elapsed();
                   },
                   "sim.rank");
  const sched::TaskId join = graph.add_task("ranks join", [] {}, "sim.join");
  for (idx r = 0; r < n_ranks_; ++r) graph.add_edge(r, join);
  const sched::ExecStats stats = sched::Executor(workers).run(graph);

  for (idx r = 0; r < n_ranks_; ++r) {
    const double t = rank_time[static_cast<std::size_t>(r)];
    report.ranks[static_cast<std::size_t>(r)].compute_s = t;
    report.serial_s += t;
    if (tr)
      obs::recorder().virtual_complete(vpid, static_cast<std::uint32_t>(r),
                                       "run", "sim", 0.0, t);
  }
  report.workers = static_cast<idx>(stats.workers);
  return report;
}

namespace {

/// Validates every span the attempt exposed; false = NaN/Inf at the edge.
bool attempt_outputs_finite(const std::vector<std::span<cplx>>& zspans,
                            const std::vector<std::span<double>>& dspans) {
  for (const auto& s : zspans)
    if (!all_finite(std::span<const cplx>(s))) return false;
  for (const auto& s : dspans)
    if (!all_finite(std::span<const double>(s))) return false;
  return true;
}

struct AttemptResult {
  bool ok = false;
  FaultKind fault = FaultKind::kNone;
  double compute_s = 0.0;
};

}  // namespace

SimCluster::RunReport SimCluster::run_items_ft(
    idx n_items,
    const std::function<void(idx item, RankContext& ctx)>& item_fn,
    const FtOptions& opt) const {
  XGW_REQUIRE(n_items >= 0, "run_items_ft: n_items must be >= 0");
  XGW_REQUIRE(opt.max_attempts >= 1, "run_items_ft: need >= 1 attempt");
  const BlockDist dist(n_items, n_ranks_);
  const FaultInjector inj(opt.faults);
  const bool inject = opt.faults.enabled();
  const bool virt = opt.virtual_item_cost_s > 0.0;

  RunReport report;
  report.ranks.resize(static_cast<std::size_t>(n_ranks_));

  // Virtual-time fault timeline: one track per simulated rank, events
  // stamped with modeled seconds (the rank_time accumulations below), so
  // attempts, injected faults, validation catches, retries, rank deaths
  // and work redistributions are inspectable next to the real kernel spans
  // in the same Perfetto trace.
  const bool tr = obs::trace_enabled();
  std::uint32_t vpid = 0;
  if (tr) {
    vpid = obs::recorder().new_virtual_process(
        "SimCluster ft (" + std::to_string(n_ranks_) + " ranks, " +
        std::to_string(n_items) + " items)");
    for (idx r = 0; r < n_ranks_; ++r)
      obs::recorder().name_virtual_track(vpid, static_cast<std::uint32_t>(r),
                                         "rank " + std::to_string(r));
  }
  auto vtid = [](idx r) { return static_cast<std::uint32_t>(r); };

  // Executes items [b, e) as one attempt of `rank`; applies the injected
  // fate, then validates the exposed outputs (catching both injected and
  // genuine NaN/Inf at the rank edge). Recovery re-executions pass
  // inject = false: they model re-running on a known-good node. With the
  // virtual clock enabled, the attempt is charged a deterministic modeled
  // cost instead of measured wall time — fault decisions stay identical,
  // but every downstream time-derived decision (straggler deadlines) and
  // accumulator becomes exactly reproducible.
  auto attempt_items = [&](idx rank, int attempt, idx b, idx e,
                           bool with_faults) -> AttemptResult {
    const FaultKind kind =
        with_faults ? inj.decide(rank, attempt) : FaultKind::kNone;
    RankContext ctx;
    ctx.rank_ = rank;
    ctx.attempt_ = attempt;
    Stopwatch sw;
    for (idx i = b; i < e; ++i) item_fn(i, ctx);
    double t = virt ? static_cast<double>(e - b) * opt.virtual_item_cost_s
                    : sw.elapsed();

    if (kind == FaultKind::kCrash) {
      // Node died partway through: the completed fraction of the attempt
      // is wasted time; its outputs will be overwritten by the retry.
      return {false, kind, t * inj.crash_fraction(rank, attempt)};
    }
    if (kind == FaultKind::kCorrupt && !ctx.cplx_out_.empty()) {
      // Silent corruption: one exposed element becomes NaN. The guard at
      // the rank edge must catch it — this is the injected counterpart of
      // the XGW_REQUIRE-based kernel validation.
      std::span<cplx> victim = ctx.cplx_out_.front();
      if (!victim.empty()) {
        const std::size_t at =
            inj.poison_index(rank, attempt, victim.size());
        victim[at] = cplx{std::numeric_limits<double>::quiet_NaN(), 0.0};
      }
    }
    if (kind == FaultKind::kStraggle) t *= opt.faults.straggle_factor;

    if (!attempt_outputs_finite(ctx.cplx_out_, ctx.real_out_))
      return {false, FaultKind::kCorrupt, t};
    return {true, kind, t};
  };

  // Per-rank accounting slots: each rank task writes ONLY its own slot,
  // and the final report sums them in fixed rank order — the disjoint-
  // writes + fixed-order-reduction discipline that makes the ledger (and
  // the floating-point recovery_s) bitwise identical at any worker count.
  struct RankSlot {
    double time = 0.0;      ///< accumulated attempt time (virtual or wall)
    double recovery = 0.0;  ///< backoff + respawn cost of this rank's retries
    long retries = 0;
    bool dead = false;
  };
  std::vector<RankSlot> slot(static_cast<std::size_t>(n_ranks_));

  // Attempt loop for one rank — the body of that rank's task node.
  auto run_rank = [&](idx r) {
    const idx b = dist.begin(r), e = dist.end(r);
    RankSlot& s = slot[static_cast<std::size_t>(r)];
    double acc = 0.0;
    bool ok = false;
    for (int attempt = 0; attempt < opt.max_attempts; ++attempt) {
      const double t0 = acc;
      const AttemptResult res = attempt_items(r, attempt, b, e, inject);
      acc += res.compute_s;
      if (tr) {
        obs::recorder().virtual_complete(
            vpid, vtid(r), "attempt " + std::to_string(attempt), "sim", t0,
            res.compute_s,
            "\"items\":\"[" + std::to_string(b) + "," + std::to_string(e) +
                ")\",\"ok\":" + (res.ok ? "true" : "false"));
        if (res.fault != FaultKind::kNone)
          obs::recorder().virtual_instant(
              vpid, vtid(r), std::string("fault:") + to_string(res.fault),
              "fault", acc);
        if (!res.ok && res.fault == FaultKind::kCorrupt)
          obs::recorder().virtual_instant(vpid, vtid(r), "validation_failed",
                                          "fault", acc);
      }
      if (res.ok) {
        ok = true;
        break;
      }
      // Failed attempt: exponential-backoff restart plus re-fetching the
      // rank's input state — charged through the network model so recovery
      // shows up honestly in time_to_solution().
      s.retries += 1;
      obs::metrics().counter("simcluster.retries").inc();
      s.recovery += opt.backoff_base_s * std::ldexp(1.0, attempt) +
                    net_.p2p(opt.respawn_bytes);
      if (tr)
        obs::recorder().virtual_instant(
            vpid, vtid(r), "retry", "sim", acc,
            "\"attempt\":" + std::to_string(attempt));
    }
    s.time = acc;
    if (!ok) {
      s.dead = true;
      obs::metrics().counter("simcluster.rank_deaths").inc();
      if (tr)
        obs::recorder().virtual_instant(vpid, vtid(r), "rank_dead", "fault",
                                        acc);
    }
  };

  // State written by the (exclusive) recovery nodes below; `rank_time`
  // aliasing the slots keeps the recovery code close to the math.
  std::vector<idx> dead, survivors;
  double redist_recovery_s = 0.0;
  double straggler_recovery_s = 0.0;
  long straggler_retries = 0;
  bool degraded = false;

  // Dead-rank redistribution node: depends on EVERY rank task, so by the
  // time it runs it is the only task in flight and may read all slots.
  auto redistribute = [&] {
    for (idx r = 0; r < n_ranks_; ++r)
      (slot[static_cast<std::size_t>(r)].dead ? dead : survivors).push_back(r);
    XGW_REQUIRE(!survivors.empty(),
                "run_items_ft: every rank failed; cluster lost");
    for (idx d : dead) {
      const idx nb = dist.count(d);
      if (nb > 0) {
        if (tr)
          obs::recorder().virtual_instant(
              vpid, vtid(d), "redistribute", "sim",
              slot[static_cast<std::size_t>(d)].time,
              "\"items\":" + std::to_string(nb) + ",\"survivors\":" +
                  std::to_string(survivors.size()));
        const BlockDist redist(nb, static_cast<idx>(survivors.size()));
        for (std::size_t si = 0; si < survivors.size(); ++si) {
          const idx s = survivors[si];
          const idx gb = dist.begin(d) + redist.begin(static_cast<idx>(si));
          const idx ge = dist.begin(d) + redist.end(static_cast<idx>(si));
          if (gb == ge) continue;
          const double t0 = slot[static_cast<std::size_t>(s)].time;
          const AttemptResult res =
              attempt_items(s, opt.max_attempts, gb, ge, false);
          XGW_REQUIRE(res.ok, "run_items_ft: recovery execution failed");
          slot[static_cast<std::size_t>(s)].time += res.compute_s;
          if (tr)
            obs::recorder().virtual_complete(
                vpid, vtid(s), "recover", "sim", t0, res.compute_s,
                "\"from_rank\":" + std::to_string(d) + ",\"items\":\"[" +
                    std::to_string(gb) + "," + std::to_string(ge) + ")\"");
        }
        // The dead rank's inputs are shipped to every survivor.
        redist_recovery_s +=
            net_.bcast(opt.respawn_bytes, static_cast<idx>(survivors.size()));
      }
      degraded = true;
    }
  };

  // Straggler node (depends on redistribution): surviving ranks far beyond
  // the median are cancelled at the deadline and their items re-decomposed,
  // mirroring the dead-rank path (work-stealing recovery). On the virtual
  // clock the rank times — and therefore every cancellation decision — are
  // exact model quantities, reproducible at any worker count.
  auto cancel_stragglers = [&] {
    if (!(opt.straggler_deadline > 0.0) || survivors.size() < 2) return;
    std::vector<double> times;
    times.reserve(survivors.size());
    for (idx s : survivors)
      times.push_back(slot[static_cast<std::size_t>(s)].time);
    std::nth_element(times.begin(), times.begin() + times.size() / 2,
                     times.end());
    const double median = times[times.size() / 2];
    const double deadline =
        std::max(opt.straggler_deadline * median, opt.straggler_min_s);
    if (median <= 0.0) return;
    std::vector<idx> stragglers, healthy;
    for (idx s : survivors)
      (slot[static_cast<std::size_t>(s)].time > deadline ? stragglers
                                                         : healthy)
          .push_back(s);
    if (healthy.empty()) return;
    for (idx r : stragglers) {
      const idx nb = dist.count(r);
      if (nb > 0) {
        const BlockDist redist(nb, static_cast<idx>(healthy.size()));
        for (std::size_t si = 0; si < healthy.size(); ++si) {
          const idx s = healthy[si];
          const idx gb = dist.begin(r) + redist.begin(static_cast<idx>(si));
          const idx ge = dist.begin(r) + redist.end(static_cast<idx>(si));
          if (gb == ge) continue;
          const double t0 = slot[static_cast<std::size_t>(s)].time;
          const AttemptResult res =
              attempt_items(s, opt.max_attempts, gb, ge, false);
          XGW_REQUIRE(res.ok, "run_items_ft: straggler recovery failed");
          slot[static_cast<std::size_t>(s)].time += res.compute_s;
          if (tr)
            obs::recorder().virtual_complete(
                vpid, vtid(s), "recover", "sim", t0, res.compute_s,
                "\"from_rank\":" + std::to_string(r));
        }
        straggler_recovery_s +=
            net_.bcast(opt.respawn_bytes, static_cast<idx>(healthy.size()));
      }
      // The straggler is cancelled the moment the deadline fires.
      slot[static_cast<std::size_t>(r)].time = deadline;
      straggler_retries += 1;
      if (tr)
        obs::recorder().virtual_instant(vpid, vtid(r), "straggler_cancelled",
                                        "fault", deadline);
    }
  };

  // The fault-tolerant run as an explicit task graph: R concurrent rank
  // nodes -> redistribution -> straggler cancellation. One worker executes
  // the graph in deterministic Kahn order — exactly the old serial code
  // path; W workers overlap the rank attempts for real.
  sched::TaskGraph graph;
  for (idx r = 0; r < n_ranks_; ++r)
    graph.add_task("ft rank " + std::to_string(r), [&run_rank, r] { run_rank(r); },
                   "ft.rank", static_cast<double>(dist.count(r)));
  const sched::TaskId redist_id =
      graph.add_task("redistribute", redistribute, "ft.redistribute");
  for (idx r = 0; r < n_ranks_; ++r) graph.add_edge(r, redist_id);
  const sched::TaskId straggle_id =
      graph.add_task("stragglers", cancel_stragglers, "ft.straggler");
  graph.add_edge(redist_id, straggle_id);
  const sched::ExecStats stats = sched::Executor(opt.workers).run(graph);

  // Fixed-order reduction of the per-rank slots (rank ascending, then the
  // redistribution and straggler phases) — the exact accumulation order of
  // the old serial implementation.
  for (idx r = 0; r < n_ranks_; ++r) {
    const RankSlot& s = slot[static_cast<std::size_t>(r)];
    report.ranks[static_cast<std::size_t>(r)].compute_s = s.time;
    report.serial_s += s.time;
    report.retries += s.retries;
    report.recovery_s += s.recovery;
  }
  report.recovery_s += redist_recovery_s + straggler_recovery_s;
  report.retries += straggler_retries;
  report.failed_ranks = dead;
  report.degraded = degraded;
  report.workers = static_cast<idx>(stats.workers);
  return report;
}

void SimCluster::cost_allreduce(RunReport& report, double bytes) const {
  report.comm_s += net_.allreduce(bytes, n_ranks_);
}

void SimCluster::cost_allgather(RunReport& report,
                                double bytes_per_rank) const {
  report.comm_s += net_.allgather(bytes_per_rank, n_ranks_);
}

}  // namespace xgw
