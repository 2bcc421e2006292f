#pragma once

// Fault-injection model for the simulated-cluster runtime.
//
// The paper's headline runs occupy 9,408 Frontier nodes for hours; at that
// scale node loss, silent data corruption, and stragglers are the expected
// operating regime, not the exception (cf. the exascale resilience
// requirement in arXiv:2209.12747). This module provides the deterministic
// chaos half of the fault-tolerance story: a seedable injector that decides,
// per (rank, attempt), whether that execution crashes, returns NaN-poisoned
// output, or runs N x slow. Decisions depend only on (seed, rank, attempt),
// never on execution order, so a given seed reproduces the same failure
// pattern across reruns and across restart resumes.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "io/iohooks.h"

namespace xgw {

/// What the injector does to one rank attempt.
enum class FaultKind : std::uint8_t {
  kNone = 0,      ///< attempt succeeds normally
  kCrash,         ///< rank dies partway through the attempt (work lost)
  kCorrupt,       ///< rank completes but its output is NaN-poisoned
  kStraggle,      ///< rank completes correctly but straggle_factor x slower
};

const char* to_string(FaultKind kind);

/// Thrown by the runtime when a rank attempt is killed by the injector or
/// when output validation rejects the attempt's results.
class RankFailure : public Error {
 public:
  RankFailure(idx rank, int attempt, FaultKind kind);

  idx rank() const { return rank_; }
  int attempt() const { return attempt_; }
  FaultKind kind() const { return kind_; }

 private:
  idx rank_;
  int attempt_;
  FaultKind kind_;
};

/// What the I/O injector does to one storage operation.
enum class IoFaultKind : std::uint8_t {
  kNone = 0,    ///< operation proceeds normally
  kTransient,   ///< EIO-class blip: op throws kIoTransient, retry succeeds
  kNoSpace,     ///< ENOSPC: write throws kIoNoSpace (degradation path)
  kTorn,        ///< write silently stops partway (discovered at read/verify)
  kBitFlip,     ///< one bit of the outgoing buffer flips silently
  kStall,       ///< latency spike: op completes after a (virtual) stall
};

const char* to_string(IoFaultKind kind);

/// Per-run storage-fault configuration — the I/O half of the chaos model.
/// Probabilities are per OPERATION (open/read/write/flush/rename on one
/// file) and are evaluated in the order transient, nospace, torn, bitflip,
/// stall from one uniform draw, so their sum must be <= 1. Decisions depend
/// only on (seed, path, per-path op ordinal), never on wall clock, so a
/// given seed reproduces the same fault schedule on every rerun of the
/// same pipeline.
struct IoFaultSpec {
  std::uint64_t seed = 0;       ///< injection stream seed
  double p_transient = 0.0;     ///< P(op fails with transient EIO)
  double p_nospace = 0.0;       ///< P(write fails with ENOSPC)
  double p_torn = 0.0;          ///< P(write is silently torn short)
  double p_bitflip = 0.0;       ///< P(one written bit flips silently)
  double p_stall = 0.0;         ///< P(op stalls)
  double stall_s = 0.001;       ///< virtual seconds charged per stall
  /// Hard cap on TOTAL faults fired against any single path. This is what
  /// makes every seeded schedule recoverable by construction: a whole-file
  /// operation retried more than max_per_path times must eventually run
  /// fault-free, so a retry budget of max_per_path + 1 attempts (plus the
  /// rewrite / re-materialization layers for silent corruption) always
  /// converges. <= 0 disables injection.
  int max_per_path = 2;
  /// Only inject on paths containing this substring ("" = all paths) —
  /// targeted injection ("corrupt only restart files", "only spill pages").
  std::string path_contains;

  bool enabled() const {
    return p_transient > 0.0 || p_nospace > 0.0 || p_torn > 0.0 ||
           p_bitflip > 0.0 || p_stall > 0.0;
  }
};

/// Per-run fault configuration. Probabilities are per rank ATTEMPT and are
/// evaluated in the order crash, corrupt, straggle from one uniform draw,
/// so p_crash + p_corrupt + p_straggle must be <= 1.
struct FaultSpec {
  std::uint64_t seed = 0;       ///< injection stream seed
  double p_crash = 0.0;         ///< P(attempt crashes mid-flight)
  double p_corrupt = 0.0;       ///< P(attempt returns NaN-poisoned output)
  double p_straggle = 0.0;      ///< P(attempt straggles)
  double straggle_factor = 8.0; ///< straggler slowdown multiplier
  /// Ranks that crash on EVERY attempt (targeted injection: "lose node k").
  /// These ranks exhaust their retry budget and are declared dead, forcing
  /// the redistribution path.
  std::vector<idx> kill_ranks;
  /// Storage-fault half of the schedule (injected behind the io::IoHooks
  /// seam by IoFaultInjector; ignored by the compute-only SimCluster path).
  IoFaultSpec io;

  bool enabled() const {
    return p_crash > 0.0 || p_corrupt > 0.0 || p_straggle > 0.0 ||
           !kill_ranks.empty();
  }
};

/// Deterministic, order-independent fault oracle.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec = {});

  const FaultSpec& spec() const { return spec_; }

  /// The fate of attempt `attempt` on rank `rank`.
  FaultKind decide(idx rank, int attempt) const;

  /// Fraction of the attempt's work completed before a crash (in [0.25,
  /// 0.75)): the wasted compute charged to the timeline.
  double crash_fraction(idx rank, int attempt) const;

  /// Element poisoned by a corrupt fault, uniform in [0, n).
  std::size_t poison_index(idx rank, int attempt, std::size_t n) const;

 private:
  std::uint64_t stream_seed(idx rank, int attempt) const;

  FaultSpec spec_;
};

/// Deterministic storage-fault injector behind the io::IoHooks seam.
///
/// Install with io::ScopedIoHooks (or set_io_hooks) and every binio / spill
/// / restart-file byte flows through it. Each operation on a path draws its
/// fate from (seed, fnv1a(path), per-path op ordinal):
///   kTransient / kNoSpace -> classified xgw::Error thrown before bytes move
///   kTorn                 -> the write silently ends at a seeded fraction
///   kBitFlip              -> one seeded bit of the outgoing buffer flips
///   kStall                -> stall_s virtual seconds charged, op proceeds
/// Every fired fault increments fault/io/injected/<kind> on the global
/// metrics registry and (when tracing) records an instant event, so the
/// chaos harness can assert injected == recovered from one snapshot.
class IoFaultInjector : public io::IoHooks {
 public:
  explicit IoFaultInjector(IoFaultSpec spec = {});

  const IoFaultSpec& spec() const { return spec_; }

  // io::IoHooks
  void before(const std::string& path, io::IoOp op, std::uint64_t offset,
              std::size_t bytes) override;
  std::size_t on_write(const std::string& path, std::uint64_t offset,
                       unsigned char* data, std::size_t n) override;

  /// One fired fault, in firing order (the reproducible schedule).
  struct Event {
    std::string path;
    io::IoOp op = io::IoOp::kRead;
    std::uint64_t ordinal = 0;  ///< per-path operation index
    IoFaultKind kind = IoFaultKind::kNone;
  };

  /// Faults fired so far, in order. Two runs of the same pipeline with the
  /// same seed produce identical schedules.
  std::vector<Event> schedule() const;

  /// Total faults fired, and per-kind counts.
  std::uint64_t injected() const;
  std::uint64_t injected(IoFaultKind kind) const;
  /// Virtual stall seconds accumulated.
  double stalled_s() const;

 private:
  IoFaultKind decide(const std::string& path, io::IoOp op,
                     std::uint64_t ordinal) const;
  void fire(const std::string& path, io::IoOp op, std::uint64_t ordinal,
            IoFaultKind kind);

  struct PathState {
    std::uint64_t ordinal = 0;  ///< next operation index
    int faults_fired = 0;       ///< total, bounded by spec.max_per_path
    IoFaultKind pending_write = IoFaultKind::kNone;  ///< torn/bitflip handoff
  };

  IoFaultSpec spec_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, PathState> paths_;
  std::vector<Event> schedule_;
  std::uint64_t counts_[6] = {0, 0, 0, 0, 0, 0};
  double stalled_s_ = 0.0;
};

}  // namespace xgw
