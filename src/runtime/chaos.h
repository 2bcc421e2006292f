#pragma once

// End-to-end storage + compute chaos harness for the out-of-core FF
// pipeline.
//
// The strongest robustness claim this codebase makes is not "it survives
// faults" but "it survives faults WITHOUT changing the physics": a run
// whose spill pages are torn, whose spill writes hit ENOSPC, and
// whose reads blip with EIO must still produce QP energies BITWISE
// identical to the fault-free run. run_ff_chaos executes the full
// epsilon -> sigma_ff pipeline (build_ff_screening under a memory budget
// that forces out-of-core paging, then the band loop) beneath a seeded
// IoFaultInjector + FaultInjector schedule and reports everything needed
// to assert that claim: the per-run fault schedule (reproducible from the
// seed alone), injected/recovered counter deltas, and the recovered QP
// results. tests/test_chaos.cpp diffs the results against a fault-free
// reference with EXPECT_EQ on doubles — equality of bits, not tolerance.

#include <cstdint>
#include <vector>

#include "core/sigma_ff.h"
#include "io/iohooks.h"
#include "mem/spill.h"
#include "runtime/fault.h"

namespace xgw {

/// One chaos run = pipeline config + fault schedule + recovery budgets.
struct ChaosSpec {
  /// Compute (p_crash / p_corrupt / p_straggle, applied per band stage) and
  /// storage (faults.io, applied per file operation) halves of the
  /// schedule. Same seed -> same schedule, independent of timing.
  FaultSpec faults;
  /// Retry/backoff installed for the run's duration. Default: enough
  /// attempts to out-budget IoFaultSpec::max_per_path, no real sleeping.
  io::IoRetryPolicy retry{/*max_attempts=*/6, /*backoff_base_s=*/1e-4,
                          /*backoff_mult=*/2.0, /*jitter=*/0.5, /*seed=*/0,
                          /*sleep=*/false};
  /// Eviction-write verification installed for the run's duration.
  mem::SpillVerify spill_verify = mem::SpillVerify::kSize;
  /// Per-band retry budget for injected compute faults (crash / corrupt).
  int max_stage_attempts = 4;

  /// Pipeline under test. Set memory_budget_mb small enough that the
  /// planner pages the B^k v store out-of-core — otherwise no storage is
  /// exercised. Pin ff.chi.nv_block: NV-blocking is only roundoff-stable,
  /// and the planner may pick different blocks under different budgets.
  FfOptions ff;
  std::vector<idx> bands;
  double sigma_eta = 0.02;
};

/// What happened, in numbers the tests can assert on.
struct ChaosReport {
  std::vector<FfResult> results;  ///< QP results computed under chaos

  /// Fired storage faults in firing order (the reproducible schedule).
  std::vector<IoFaultInjector::Event> schedule;
  std::uint64_t io_injected = 0;   ///< total storage faults fired
  std::uint64_t io_recovered = 0;  ///< sum of fault/io/recovered/* deltas
  double stalled_s = 0.0;          ///< virtual stall time charged

  std::uint64_t compute_faults = 0;  ///< stage crash/corrupt/straggle fired
  std::uint64_t stage_retries = 0;   ///< band stages re-run after a fault

  bool spill_used = false;  ///< the planner actually paged out-of-core
  bool degraded = false;    ///< pool fell back to in-core (ENOSPC path)
  std::uint64_t rematerializations = 0;  ///< corrupt pages re-derived
  std::uint64_t rewrites = 0;            ///< eviction writes redone
};

/// Runs build_ff_screening + sigma_ff_diag under the spec's fault schedule,
/// recovering every injected fault (retry / rewrite / re-materialization /
/// degradation / stage re-execution). Throws only when a recovery budget is
/// genuinely exhausted — which a schedule respecting
/// IoFaultSpec::max_per_path < retry.max_attempts never does for transient
/// kinds. Global retry policy / spill-verify mode are restored on exit.
ChaosReport run_ff_chaos(GwCalculation& gw, const ChaosSpec& spec);

/// Storage-fault counter names, in IoFaultKind order (shared by the report
/// logic, tests, and the bench sweep).
inline constexpr const char* kIoFaultNames[5] = {"transient", "nospace",
                                                "torn", "bitflip", "stall"};

}  // namespace xgw
