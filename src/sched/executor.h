#pragma once

// Worker-pool executor for TaskGraph: W std::thread workers draining a
// shared ready-queue (tasks whose in-edges have all completed). W = 1 is
// special-cased to run the deterministic Kahn order inline on the calling
// thread — byte-for-byte the old serial execution, so "scheduler with one
// worker" and "no scheduler" are indistinguishable.
//
// Cooperation with nested parallelism: each worker runs under a
// WorkerTeamScope (common/concurrency.h), so the GEMM dispatch point
// and the chi frequency team degrade to their serial-equivalent variants
// instead of oversubscribing the host with W full OpenMP teams. Because
// those variants are bitwise-identical by construction, this is purely a
// throughput decision.
//
// Exceptions: the first task exception (in task-id order of observation)
// is captured, the queue is cancelled (no new tasks start; running tasks
// finish), and run() rethrows it on the calling thread.

#include <cstdint>

#include "sched/taskgraph.h"

namespace xgw::sched {

/// Deterministic execution statistics (exact-gated in bench_sched).
struct ExecStats {
  idx tasks = 0;        ///< tasks executed
  idx edges = 0;        ///< edges in the graph
  idx workers = 0;      ///< worker count used
  idx steals = 0;       ///< tasks run by a worker other than worker 0
  double wall_s = 0.0;  ///< wall time of the run() call
  double busy_s = 0.0;  ///< summed per-task execution time across workers
};

class Executor {
 public:
  /// n_workers <= 0 means default_workers().
  explicit Executor(int n_workers = 0);

  int n_workers() const { return n_workers_; }

  /// Runs the graph to completion (blocking). Rethrows the first task
  /// exception after all in-flight tasks drain. The graph's task
  /// functions are invoked exactly once each.
  ExecStats run(const TaskGraph& graph) const;

  /// Worker count from XGW_SCHED_WORKERS (>=1), else set_default_workers()
  /// value, else 1. Read once; the env var is the CI threads-matrix knob.
  static int default_workers();

  /// Programmatic override (e.g. the driver's `sched_workers` input key).
  /// 0 restores the environment/1 default.
  static void set_default_workers(int n);

  /// Index of the current worker within a running Executor: 0..W-1 on a
  /// worker thread (or the calling thread for W = 1 runs), -1 elsewhere.
  /// Lets tasks keep per-worker state (reusable buffers) without locking.
  static int worker_index();

 private:
  int n_workers_;
};

}  // namespace xgw::sched
