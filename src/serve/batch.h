#pragma once

// xgw-serve batch driver: accepts many GW job specs, probes the
// content-addressed store for every sub-result each spec needs, builds the
// UNION cache-miss DAG — one node per unique missing sub-result, shared by
// every job that needs it — and runs it on sched::TaskGraph/Executor.
//
// Determinism contract: every node computes a sub-result through exactly
// the code path the single-job driver uses (same GwCalculation stages,
// same NV-Block size, same fixed-order reductions) and commits the bytes
// through binio (byte-exact round trips). A consumer therefore cannot
// tell whether its chi/eps/M-block came from a cold compute, a warm CAS
// hit, or another job's task in the same batch — QP energies are bitwise
// identical in all three cases, which is what the CI serve-smoke job and
// bench_serve's drift FATAL check assert.
//
// Node granularity (serve/spec.h): mf (band set), chi(0), eps^{-1}(0),
// eps^{-1}(i omega_k) per frequency, Sigma per band; MTXEL blocks are
// cached per external band through GwCalculation's mtxel hook inside the
// sigma node. Every node is ensure-semantics (workspace -> CAS -> compute),
// so a probe that turns stale mid-batch — an entry evicted by the disk
// budget or dropped after a corrupt read — degrades to recompute, never to
// a wrong or missing answer.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/sigma.h"
#include "mem/spill.h"
#include "serve/cas.h"
#include "serve/spec.h"

namespace xgw::serve {

struct ServeOptions {
  std::string store_dir = "xgw_cas";  ///< CAS directory (shared across runs)
  double store_budget_mb = 0.0;       ///< CAS disk LRU budget; 0 = unlimited
  int workers = 0;                ///< executor workers; 0 = default_workers()
  bool use_cache = true;          ///< false: compute-only (bench cold leg)
  mem::SpillVerify verify = mem::SpillVerify::kSize;  ///< CAS commit checks
  std::string metrics_path;  ///< write obs metrics JSON after the batch
  std::string report_path;   ///< write an obs run report after the batch
};

/// Per-job result + service telemetry.
struct JobOutcome {
  std::string name;
  std::string job;  ///< "sigma" | "epsilon"
  int rc = 0;
  std::string error;
  double wall_s = 0.0;  ///< submit -> job completion (advisory)
  idx probe_hits = 0;   ///< sub-results this job found cached at submit
  idx probe_misses = 0; ///< sub-results this job had to have computed
  idx shared = 0;       ///< sub-results shared with another job in the batch
  std::vector<QpResult> qp;       ///< sigma jobs, manifest band order
  std::vector<double> eps_heads;  ///< epsilon jobs: head of eps^{-1}(0)
                                  ///< then each eps^{-1}(i omega_k)
};

/// Whole-batch report: per-job outcomes plus the exact counters the bench
/// gates (builds per stage — the "each shared chi built exactly once"
/// acceptance check — and the CAS hit/miss/evict ledger).
struct BatchReport {
  std::vector<JobOutcome> jobs;
  idx n_tasks = 0;
  idx n_edges = 0;
  idx shared_nodes = 0;  ///< unique DAG nodes consumed by > 1 job
  // Exact build counters (deterministic for a given manifest + store state):
  std::uint64_t mf_builds = 0;
  std::uint64_t mtxel_builds = 0;
  std::uint64_t chi_builds = 0;
  std::uint64_t eps_builds = 0;
  std::uint64_t epsfreq_builds = 0;
  std::uint64_t sigma_band_builds = 0;
  CasStats cas;  ///< this store instance's counters after the batch

  bool all_ok() const {
    for (const JobOutcome& j : jobs)
      if (j.rc != 0) return false;
    return true;
  }
  std::uint64_t total_builds() const {
    return mf_builds + mtxel_builds + chi_builds + eps_builds +
           epsfreq_builds + sigma_band_builds;
  }
};

/// Runs a batch of job specs against the store described by `opt`,
/// streaming per-job output blocks (manifest order, 17-significant-digit
/// energies so reruns can be diffed bitwise) and status lines to `os`.
BatchReport run_batch(const std::vector<JobSpec>& jobs,
                      const ServeOptions& opt, std::ostream& os);

/// load_manifest + run_batch.
BatchReport run_manifest(const std::string& manifest_path,
                         const ServeOptions& opt, std::ostream& os);

}  // namespace xgw::serve
