#pragma once

// Wall-clock timing utilities used by kernels, benches, and the simulated
// runtime's per-rank accounting.

#include <chrono>
#include <map>
#include <mutex>
#include <string>

namespace xgw {

/// Monotonic stopwatch with lap support.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  /// Seconds since construction or last reset().
  double elapsed() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates named timing regions; BerkeleyGW-style per-kernel breakdown
/// (MTXEL / CHI_SUM / GPP ...) printed at end of run.
class TimerRegistry {
 public:
  /// Thread-safe: regions may close on concurrent scheduler workers.
  void add(const std::string& name, double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = slots_[name];
    slot.seconds += seconds;
    slot.count += 1;
  }

  double seconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(name);
    return it == slots_.end() ? 0.0 : it->second.seconds;
  }

  long calls(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(name);
    return it == slots_.end() ? 0 : it->second.count;
  }

  /// Formatted per-region report, sorted by name.
  std::string report() const;

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.clear();
  }

 private:
  struct Slot {
    double seconds = 0.0;
    long count = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
};

}  // namespace xgw
