#pragma once

// RAII trace spans with per-span FLOP/byte attribution.
//
// obs::Span is the RAII timing region: it is move-safe, nests (each
// thread keeps an innermost-span pointer), and carries counters so every
// kernel invocation knows its own achieved GFLOP/s. The overload taking a
// TimerRegistry is the compatibility shim: it ALWAYS accumulates elapsed
// seconds into the registry (so GwCalculation::timers() reports are
// unchanged) and additionally records a trace event when the recorder is
// enabled.
//
// Cost model:
//  * recorder disabled, no registry: one relaxed atomic load + branch.
//  * recorder disabled, with registry: two steady_clock reads + map insert.
//  * recorder enabled: two clock reads + one uncontended mutex append,
//    O(100 ns) — bench_kernels_micro measures both paths.
//
// FLOP attribution: kernels call obs::attribute_flops(n) at the same sites
// where they feed the legacy FlopCounter. The count lands on the calling
// thread's innermost open span; with no span open it goes to the
// recorder's orphan counter (e.g. OpenMP worker threads whose team master
// holds the span). Every FLOP is attributed exactly once, so
//   sum over spans + orphans == legacy global FlopCounter total
// (exact, tested). When the recorder is off, attribution is a no-op.

#include <cstdint>
#include <string>

#include "common/timer.h"
#include "obs/trace.h"

namespace xgw::obs {

class Span {
 public:
  /// Pure trace span: records only when the recorder is enabled at
  /// `detail` or finer.
  explicit Span(const char* name, const char* cat = "kernel",
                int detail = detail_level::kKernel) noexcept
      : name_(name), cat_(cat) {
    if (trace_detail() >= detail) open();
  }

  /// Compatibility shim for TimerRegistry regions: always
  /// accumulates wall seconds into `reg` under `name` (even with tracing
  /// off), and also traces when enabled.
  Span(TimerRegistry& reg, const char* name, const char* cat = "kernel",
       int detail = detail_level::kKernel) noexcept
      : name_(name), cat_(cat), reg_(&reg) {
    if (trace_detail() >= detail)
      open();
    else
      start_ = std::chrono::steady_clock::now();
  }

  ~Span() { close(); }

  /// Move transfers the pending record; the moved-from span records
  /// nothing. Only the innermost open span may be moved (debug-checked).
  Span(Span&& o) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span& operator=(Span&&) = delete;

  bool active() const { return active_; }

  void add_flops(std::uint64_t n) { counters_.flops += n; }
  void add_bytes(std::uint64_t n) { counters_.bytes += n; }
  void add_items(std::uint64_t n) { counters_.items += n; }

  /// Attach a key/value argument to the trace event (no-ops when the span
  /// is not recording).
  void arg(const char* key, long long v);
  void arg(const char* key, double v);
  void arg(const char* key, const char* v);
  void arg(const char* key, const std::string& v) { arg(key, v.c_str()); }

  /// The calling thread's innermost open span (nullptr when none).
  static Span* current() noexcept;

 private:
  void open() noexcept;
  void close() noexcept;

  const char* name_;
  const char* cat_;
  TimerRegistry* reg_ = nullptr;
  bool active_ = false;
  Span* parent_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
  double t0_us_ = 0.0;
  // mem::MemTracker samples at open (high-water mark and current bytes):
  // close() derives the span's peak_bytes counter from them.
  std::uint64_t mem_hwm0_ = 0;
  std::uint64_t mem_cur0_ = 0;
  TraceCounters counters_;
  std::string args_;
};

/// Attributes kernel FLOPs to the calling thread's innermost open span
/// (orphan counter when none). No-op while the recorder is disabled.
void attribute_flops(std::uint64_t n) noexcept;

/// Same for bytes moved (roofline denominators).
void attribute_bytes(std::uint64_t n) noexcept;

}  // namespace xgw::obs
