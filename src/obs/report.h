#pragma once

// Machine-readable end-of-run report: where the time and FLOPs went, per
// stage, tied to the configuration that produced them — the artifact the
// paper's Tables 3-5 are condensed from, and what successive performance
// PRs diff against.
//
// A RunReportDoc is assembled from the TraceRecorder aggregate (so its
// stage rows are exactly the spans that executed) plus caller-provided
// identity (job name, config text). When the caller supplies machine
// numbers (peak GFLOP/s and memory bandwidth), each stage is annotated
// with its roofline ceiling from the measured FLOP/byte counters, and the
// driver additionally stamps the split-GEMM packing model ceiling from
// perf/progmodel.

#include <cstdint>
#include <string>
#include <vector>

namespace xgw::obs {

class TraceRecorder;

struct StageReport {
  std::string name;      ///< "category/span-name"
  double seconds = 0.0;
  long calls = 0;
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  /// Tracked-allocation high-water mark observed while the stage's spans
  /// were open (max over calls, bytes; see TraceCounters::peak_bytes for
  /// exactness semantics). 0 = never sampled.
  std::uint64_t peak_bytes = 0;
  double gflops = 0.0;          ///< achieved rate (flops / seconds / 1e9)
  double roofline_gflops = 0.0; ///< min(peak, AI * bw); 0 = not annotated
};

struct RunReportDoc {
  std::string job;          ///< job / bench name
  std::string config_hash;  ///< FNV-1a of the configuration text (hex)
  std::vector<StageReport> stages;
  double total_seconds = 0.0;      ///< sum over stage rows (spans overlap!)
  std::uint64_t total_flops = 0;   ///< span FLOPs + orphans == legacy counter
  double peak_gflops = 0.0;        ///< machine peak, 0 = unknown
  double mem_bandwidth_gbs = 0.0;  ///< machine bandwidth, 0 = unknown
  /// Ceiling of the packed split-complex GEMM engine from
  /// perf/progmodel::split_gemm_roofline (stamped by the CLI driver which
  /// links perf/); 0 = absent.
  double split_gemm_roofline_gflops = 0.0;

  std::string to_json() const;
  bool write(const std::string& path) const;
};

/// 64-bit FNV-1a offset basis (the hash of the empty string).
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/// 64-bit FNV-1a — the config hash, binio checksums, fault-schedule path
/// keys and restart-item names. Stable across platforms. Pass a previous
/// return value as `seed` to continue hashing over several buffers.
std::uint64_t fnv1a(std::string_view text, std::uint64_t seed = kFnv1aBasis);
std::string fnv1a_hex(std::string_view text);

/// Builds the report from the recorder's current aggregate. When
/// `peak_gflops` and `mem_bandwidth_gbs` are both positive, stages with
/// byte counters get roofline annotations.
RunReportDoc build_run_report(const TraceRecorder& rec, std::string job,
                              std::string_view config_text,
                              double peak_gflops = 0.0,
                              double mem_bandwidth_gbs = 0.0);

}  // namespace xgw::obs
