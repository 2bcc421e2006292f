#pragma once

// The unified bench result schema ("xgw-bench-result-v1") and its writer.
//
// Every bench_* binary builds ONE Suite and writes ONE BENCH_<name>.json
// next to its human-readable tables. The schema separates three kinds of
// series data because the compare gate treats them differently:
//
//   counters — deterministic, machine-independent quantities (FLOP counts,
//              byte-model sizes, planner block shapes, basis dimensions).
//              Compared EXACTLY against the baseline: any drift fails the
//              gate. Keep thread- and wall-clock-dependent numbers out.
//   values   — informational measurements (GFLOP/s, ratios, physics
//              results). Reported as deltas, never gated.
//   time     — wall-time TimingStats (median/MAD/bootstrap CI) from
//              run_timed(). Gated with the noise-aware threshold logic,
//              or report-only under --time-advisory (the CI default on
//              shared runners).
//   info     — string tags (variant names, units) carried for reporting.
//
// Document layout:
// {
//   "schema": "xgw-bench-result-v1",
//   "bench": "<name>",
//   "machine": { host, cpu_model, hw_threads, omp_threads, compiler,
//                build_type, flags, git_sha },
//   "series": [ { "key": "...", "counters": {...}, "values": {...},
//                 "info": {...}, "time": { samples, median_s, mad_s,
//                 min_s, max_s, ci_lo_s, ci_hi_s } } ]
// }
//
// Series keys are the stable match keys of the compare gate: encode the
// configuration ("zgemm/simd/n=256"), never an index or a timestamp.

#include <string>
#include <vector>

#include "benchkit/stats.h"
#include "obs/json.h"

namespace xgw::bench {

class Series {
 public:
  explicit Series(std::string key) : key_(std::move(key)) {}

  /// Deterministic quantity, exact-compared by the gate.
  Series& counter(const std::string& name, double v);
  /// Informational measurement, report-only.
  Series& value(const std::string& name, double v);
  /// String tag, report-only.
  Series& info(const std::string& name, const std::string& v);
  /// Wall-time summary from run_timed(); gated noise-aware.
  Series& time(TimingStats stats);

  const std::string& key() const { return key_; }
  obs::json::Value to_value() const;

 private:
  std::string key_;
  std::vector<std::pair<std::string, double>> counters_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::string>> info_;
  bool has_time_ = false;
  TimingStats time_;
};

class Suite {
 public:
  explicit Suite(std::string bench_name);

  /// Starts (or returns the existing) series with the given stable key.
  Series& series(const std::string& key);

  const std::string& bench_name() const { return bench_name_; }
  /// The canonical artifact path: BENCH_<bench>.json in the working dir.
  std::string default_path() const { return "BENCH_" + bench_name_ + ".json"; }

  obs::json::Value to_value() const;

  /// Serializes through obs::json::dump and writes `path` (default_path()
  /// when empty). Returns false (with a stderr warning) on I/O failure so
  /// benches keep running on read-only filesystems.
  bool write(const std::string& path = std::string()) const;

 private:
  std::string bench_name_;
  std::vector<Series> series_;
};

/// Builds a RunReportDoc (obs/report.h) from the global trace recorder and
/// writes it next to the suite artifact — the bench must have run with the
/// recorder enabled. Returns false and warns on I/O failure.
bool write_run_report(const std::string& bench_name, const std::string& path,
                      double peak_gflops = 0.0,
                      double mem_bandwidth_gbs = 0.0);

}  // namespace xgw::bench
