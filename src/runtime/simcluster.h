#pragma once

// Simulated-cluster execution engine: run a rank-decomposed computation
// ON THIS MACHINE, measure each rank's real compute time, and assemble the
// distributed-run timeline (slowest-rank time-to-solution plus modeled
// collective costs). This is the "functional MPI" layer behind the
// measured strong/weak-scaling parts of the figure benches: the
// decomposition logic and the per-rank work are real; only the network is
// a model.
//
// Hybrid simulated/real runtime (ROADMAP item 2): ranks execute as nodes
// of a sched::TaskGraph on a worker pool, so with W > 1 workers they run
// ACTUALLY CONCURRENTLY — real comm/compute overlap, honest multicore
// wall time — while the alpha-beta network model stays in place as the
// "what-if at 9,408 nodes" projector. Results are bitwise identical at any worker count because rank lambdas write
// disjoint outputs and every cross-rank reduction here sums in fixed rank
// order (the GEMM engine's determinism discipline, applied to the
// runtime).
//
// Fault-tolerant path (run_items_ft): work items are block-distributed over
// ranks and each rank attempt is subject to the seeded FaultInjector.
// Crashed / corrupted attempts are retried with exponential backoff (the
// restart cost is charged through the NetworkModel so recovery shows up
// honestly in time_to_solution()); ranks that exhaust their retry budget
// are declared dead and their items are re-decomposed over the survivors
// via BlockDist; stragglers past the deadline are cancelled and recovered
// the same way. Because item functions are deterministic and idempotent,
// the numerical results are bitwise those of the fault-free run — only the
// timeline changes.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "runtime/fault.h"
#include "runtime/netmodel.h"

namespace xgw {

/// Per-attempt execution context handed to fault-tolerant item functions.
/// Kernels expose the buffers they WRITE (not accumulate) so the runtime
/// can apply injected corruption and validate outputs at the rank edge.
class RankContext {
 public:
  idx rank() const { return rank_; }
  int attempt() const { return attempt_; }

  /// Registers an output span for post-attempt poisoning + validation.
  /// The memory must stay valid until the rank attempt completes, and the
  /// item function must fully overwrite it on re-execution.
  void expose(std::span<cplx> out) { cplx_out_.push_back(out); }
  void expose(std::span<double> out) { real_out_.push_back(out); }

 private:
  friend class SimCluster;

  idx rank_ = 0;
  int attempt_ = 0;
  std::vector<std::span<cplx>> cplx_out_;
  std::vector<std::span<double>> real_out_;
};

class SimCluster {
 public:
  SimCluster(idx n_ranks, NetworkModel net = {});

  idx n_ranks() const { return n_ranks_; }
  const NetworkModel& net() const { return net_; }

  struct RankReport {
    double compute_s = 0.0;
  };

  struct RunReport {
    std::vector<RankReport> ranks;
    double comm_s = 0.0;       ///< modeled collective time
    double serial_s = 0.0;     ///< sum of all rank compute times

    // Fault-tolerance accounting (all zero / empty for fault-free runs).
    long retries = 0;               ///< rank attempts that had to be redone
    std::vector<idx> failed_ranks;  ///< ranks declared dead
    double recovery_s = 0.0;        ///< modeled backoff + redistribution time
    bool degraded = false;          ///< finished on fewer ranks than launched

    idx workers = 1;  ///< scheduler workers this run used

    /// Distributed time-to-solution: slowest rank + communication +
    /// recovery overhead.
    double time_to_solution() const;
    /// serial / (ranks * t2s): 1.0 = ideal.
    double parallel_efficiency() const;
    /// ASCII per-rank timeline (one bar per rank, normalized to slowest).
    std::string gantt(idx width = 50) const;
  };

  /// Executes fn(rank) for every rank as scheduler tasks, timing each.
  /// `workers` <= 0 uses sched::Executor::default_workers() (the
  /// XGW_SCHED_WORKERS / `sched_workers` knob); 1 reproduces the old
  /// serial rank-by-rank execution exactly. Lambdas must write disjoint
  /// outputs — then results are bitwise identical at every worker count.
  RunReport run(const std::function<void(idx rank)>& fn,
                int workers = 0) const;

  /// Fault-tolerant execution policy.
  struct FtOptions {
    FaultSpec faults;            ///< injection model (disabled by default)
    int max_attempts = 3;        ///< attempts per rank before declaring it dead
    double backoff_base_s = 0.05;///< modeled restart wait; doubles per retry
    double respawn_bytes = 1e6;  ///< state re-fetched per recovery (net cost)
    /// Ranks slower than this multiple of the median rank time are treated
    /// as stragglers: cancelled at the deadline and re-decomposed over the
    /// survivors. <= 0 disables detection.
    double straggler_deadline = 4.0;
    /// Absolute floor for the straggler deadline (seconds): sub-millisecond
    /// timing jitter must never cancel a healthy rank.
    double straggler_min_s = 1e-3;
    /// Scheduler workers for the rank tasks; <= 0 means
    /// sched::Executor::default_workers().
    int workers = 0;
    /// > 0 switches the fault timeline to a DETERMINISTIC virtual clock:
    /// an attempt over k items costs k * virtual_item_cost_s modeled
    /// seconds (scaled by the injector's crash fraction / straggle factor)
    /// instead of measured wall time. Straggler detection then operates on
    /// virtual times, so retries / failed_ranks / recovery_s become exact
    /// reproducible counters — identical at any worker count and on any
    /// host — which is what bench_fault_recovery gates on. 0 keeps the
    /// measured-wall-clock behavior (honest timelines, jittery ledger).
    double virtual_item_cost_s = 0.0;
  };

  /// Fault-tolerant execution of `n_items` work items block-distributed
  /// over the ranks (BlockDist(n_items, n_ranks)). `item_fn` computes one
  /// item and exposes its outputs on the context; it must be deterministic
  /// and overwrite (not accumulate into) its outputs so re-execution is
  /// idempotent. Throws Error if every rank dies.
  RunReport run_items_ft(
      idx n_items,
      const std::function<void(idx item, RankContext& ctx)>& item_fn,
      const FtOptions& opt) const;

  /// Fault-free convenience overload (default FtOptions).
  RunReport run_items_ft(
      idx n_items,
      const std::function<void(idx item, RankContext& ctx)>& item_fn) const {
    return run_items_ft(n_items, item_fn, FtOptions{});
  }

  /// Adds the cost of a final allreduce of `bytes` to a report.
  void cost_allreduce(RunReport& report, double bytes) const;
  void cost_allgather(RunReport& report, double bytes_per_rank) const;

 private:
  idx n_ranks_;
  NetworkModel net_;
};

}  // namespace xgw
