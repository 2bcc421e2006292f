#pragma once

// xgw_benchmark: end-to-end G0W0 time-to-solution on four Si16 workloads
// plus a traced, in-process per-layer breakdown. See benchmark/README.md.
//
// The harness times the real binaries (xgw_run, xgw_serve_run) from the
// outside, then runs one traced pass that calls each layer's public
// functions with spans recorded around the calls. It changes nothing in
// src/ and keeps the program's own obs recorder off everywhere, so the
// timed and traced passes execute the same code.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace xgwb {

using xgw::idx;

enum class Route { kGpp, kFf, kSt, kServe };

struct Workload {
  const char* name;
  Route route;
};

/// The four workloads, in run order.
const std::vector<Workload>& all_workloads();
const Workload* find_workload(const std::string& name);

/// Files generated for one workload and seed. `job` is the .inp handed to
/// xgw_run, or the manifest handed to xgw_serve_run.
struct Inputs {
  std::string job;
  std::vector<std::string> files;
  std::vector<idx> sigma_bands;  ///< GW routes: Sigma bands in seed order
};

/// Writes the workload's inputs into `dir`. The seed changes only ordering
/// (Sigma-band order, key order inside each file, manifest job order and
/// per-job band order), never counts or physics.
Inputs write_inputs(const Workload& w, std::uint64_t seed,
                    const std::string& dir);

/// Writes the ~10 ms job that measures a cold start (silicon primitive
/// cell, job epsilon: heev, FFT, GEMM, LU).
std::string write_cold_start_input(const std::string& dir);

/// One reported number: `<workload> <name> <value> <unit> n=<samples>`.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 1;
};

// --- answers and the committed reference --------------------------------

/// One checked answer of a run: a QP energy (`band <b>`) or an epsilon head
/// (`head <label>`), with the text exactly as the program printed it.
struct Answer {
  std::string key;
  std::string text;
};

/// QP rows of an xgw_run job (any Sigma route): key `band <b>`, E_QP (eV).
std::vector<Answer> parse_job_output(const std::string& out);

/// Result lines of an xgw_serve_run batch, in printed order: band rows
/// (E_QP) and epsilon heads. Per-job status lines (which carry wall times)
/// are not answers.
std::vector<Answer> parse_serve_output(const std::string& out);

class Reference {
 public:
  /// Loads `path`; a missing or malformed file throws xgw::Error.
  static Reference load(const std::string& path);

  /// Appends a mismatch description per answer that misses the reference
  /// (QP energies within 1 meV, heads within 1e-6) and per reference answer
  /// of `workload` that is absent.
  void check_answers(const std::string& workload,
                     const std::vector<Answer>& answers,
                     std::vector<std::string>& problems) const;

  /// Appends a description per exact counter that differs from its pinned
  /// value (compared as shortest round-trip text, i.e. bitwise).
  void check_counters(const std::string& workload,
                      const std::vector<Metric>& counters,
                      std::vector<std::string>& problems) const;

  /// Reference text for one workload's answers and counters (the
  /// --write-reference mode).
  static std::string format(const std::string& workload,
                            const std::vector<Answer>& answers,
                            const std::vector<Metric>& counters);

 private:
  // workload -> key -> value text
  std::map<std::string, std::map<std::string, std::string>> answers_;
  std::map<std::string, std::map<std::string, std::string>> counters_;
};

// --- child processes ---------------------------------------------------

struct ProcResult {
  double wall_s = 0.0;
  long max_rss_kb = 0;
  int exit_code = -1;  ///< -1 when the child did not exit normally
};

/// Environment overrides for a child: each pair sets a variable; an empty
/// value removes it. Everything else is inherited.
using EnvOverrides = std::vector<std::pair<std::string, std::string>>;

/// Spawns argv[0] with `argv` in `cwd`, stdout to `stdout_path`, waits for
/// it with wait4 and returns its wall time and peak RSS.
ProcResult run_process(const std::vector<std::string>& argv,
                       const EnvOverrides& env, const std::string& cwd,
                       const std::string& stdout_path);

std::string read_file(const std::string& path);

// --- traced in-process pass -------------------------------------------

struct TracedResult {
  std::vector<Metric> layers;    ///< per-layer metrics measured in-process
  std::vector<Metric> counters;  ///< exact counters (subset of layers)
  std::vector<Answer> answers;   ///< in-process answers, printed precision
  double wall_s = 0.0;           ///< traced wall (the `run` root span)
  double stage_sum_s = 0.0;      ///< sum of the top-level stage spans
  std::string trace_json;        ///< spans, written when the run ends
  std::string separation;        ///< layer-share line to print
  std::vector<std::string> problems;  ///< failed in-process checks
};

/// Runs `w` in-process on the generated inputs with spans around each
/// layer call, then the FFT/GEMM/LU/CAS probes under a separate `probes`
/// root. `scratch` is a directory for the probe store and the serve pass.
TracedResult traced_pass(const Workload& w, const Inputs& in,
                         const std::string& scratch, int threads,
                         int run_id);

}  // namespace xgwb
