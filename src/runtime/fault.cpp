#include "runtime/fault.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace xgw {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kStraggle:
      return "straggle";
  }
  return "unknown";
}

RankFailure::RankFailure(idx rank, int attempt, FaultKind kind)
    : Error("rank " + std::to_string(rank) + " attempt " +
            std::to_string(attempt) + " failed (" + to_string(kind) + ")"),
      rank_(rank),
      attempt_(attempt),
      kind_(kind) {}

FaultInjector::FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {
  XGW_REQUIRE(spec_.p_crash >= 0.0 && spec_.p_corrupt >= 0.0 &&
                  spec_.p_straggle >= 0.0,
              "FaultSpec: probabilities must be >= 0");
  XGW_REQUIRE(spec_.p_crash + spec_.p_corrupt + spec_.p_straggle <= 1.0,
              "FaultSpec: probabilities must sum to <= 1");
  XGW_REQUIRE(spec_.straggle_factor >= 1.0,
              "FaultSpec: straggle_factor must be >= 1");
}

std::uint64_t FaultInjector::stream_seed(idx rank, int attempt) const {
  // Golden-ratio / Murmur-style mixing so that neighboring (rank, attempt)
  // pairs land in unrelated parts of the stream; Rng's splitmix64 seeding
  // finishes the job.
  std::uint64_t s = spec_.seed;
  s ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(rank) + 1);
  s ^= 0xBF58476D1CE4E5B9ULL * (static_cast<std::uint64_t>(attempt) + 1);
  return s;
}

FaultKind FaultInjector::decide(idx rank, int attempt) const {
  if (std::find(spec_.kill_ranks.begin(), spec_.kill_ranks.end(), rank) !=
      spec_.kill_ranks.end())
    return FaultKind::kCrash;
  if (spec_.p_crash <= 0.0 && spec_.p_corrupt <= 0.0 &&
      spec_.p_straggle <= 0.0)
    return FaultKind::kNone;
  Rng rng(stream_seed(rank, attempt));
  const double u = rng.uniform();
  if (u < spec_.p_crash) return FaultKind::kCrash;
  if (u < spec_.p_crash + spec_.p_corrupt) return FaultKind::kCorrupt;
  if (u < spec_.p_crash + spec_.p_corrupt + spec_.p_straggle)
    return FaultKind::kStraggle;
  return FaultKind::kNone;
}

double FaultInjector::crash_fraction(idx rank, int attempt) const {
  Rng rng(stream_seed(rank, attempt) ^ 0xD6E8FEB86659FD93ULL);
  return rng.uniform(0.25, 0.75);
}

std::size_t FaultInjector::poison_index(idx rank, int attempt,
                                        std::size_t n) const {
  if (n == 0) return 0;
  Rng rng(stream_seed(rank, attempt) ^ 0xA5A5A5A55A5A5A5AULL);
  return static_cast<std::size_t>(rng.below(n));
}

// --- storage-fault injector ----------------------------------------------

const char* to_string(IoFaultKind kind) {
  switch (kind) {
    case IoFaultKind::kNone:
      return "none";
    case IoFaultKind::kTransient:
      return "transient";
    case IoFaultKind::kNoSpace:
      return "nospace";
    case IoFaultKind::kTorn:
      return "torn";
    case IoFaultKind::kBitFlip:
      return "bitflip";
    case IoFaultKind::kStall:
      return "stall";
  }
  return "unknown";
}

namespace {

std::uint64_t io_stream_seed(std::uint64_t seed, const std::string& path,
                             std::uint64_t ordinal) {
  std::uint64_t s = seed;
  s ^= 0x9E3779B97F4A7C15ULL *
       (obs::fnv1a(path) | 1ULL);
  s ^= 0xBF58476D1CE4E5B9ULL * (ordinal + 1);
  return s;
}

bool is_write_class(io::IoOp op) {
  return op == io::IoOp::kOpenWrite || op == io::IoOp::kWrite ||
         op == io::IoOp::kFlush || op == io::IoOp::kRename;
}

}  // namespace

IoFaultInjector::IoFaultInjector(IoFaultSpec spec) : spec_(std::move(spec)) {
  XGW_REQUIRE(spec_.p_transient >= 0.0 && spec_.p_nospace >= 0.0 &&
                  spec_.p_torn >= 0.0 && spec_.p_bitflip >= 0.0 &&
                  spec_.p_stall >= 0.0,
              "IoFaultSpec: probabilities must be >= 0");
  XGW_REQUIRE(spec_.p_transient + spec_.p_nospace + spec_.p_torn +
                      spec_.p_bitflip + spec_.p_stall <=
                  1.0,
              "IoFaultSpec: probabilities must sum to <= 1");
  XGW_REQUIRE(spec_.stall_s >= 0.0, "IoFaultSpec: stall_s must be >= 0");
}

IoFaultKind IoFaultInjector::decide(const std::string& path, io::IoOp op,
                                    std::uint64_t ordinal) const {
  if (!spec_.enabled()) return IoFaultKind::kNone;
  Rng rng(io_stream_seed(spec_.seed, path, ordinal));
  const double u = rng.uniform();
  double edge = spec_.p_transient;
  IoFaultKind k = IoFaultKind::kNone;
  if (u < edge) {
    k = IoFaultKind::kTransient;
  } else if (u < (edge += spec_.p_nospace)) {
    k = IoFaultKind::kNoSpace;
  } else if (u < (edge += spec_.p_torn)) {
    k = IoFaultKind::kTorn;
  } else if (u < (edge += spec_.p_bitflip)) {
    k = IoFaultKind::kBitFlip;
  } else if (u < (edge += spec_.p_stall)) {
    k = IoFaultKind::kStall;
  }
  // Applicability filter: a fault drawn for an operation class it cannot
  // affect is a no-op (decisions stay order-independent; effective rates
  // per op class are exactly the configured ones).
  if (k == IoFaultKind::kNoSpace && !is_write_class(op))
    return IoFaultKind::kNone;
  if ((k == IoFaultKind::kTorn || k == IoFaultKind::kBitFlip) &&
      op != io::IoOp::kWrite)
    return IoFaultKind::kNone;
  return k;
}

void IoFaultInjector::fire(const std::string& path, io::IoOp op,
                           std::uint64_t ordinal, IoFaultKind kind) {
  schedule_.push_back({path, op, ordinal, kind});
  ++counts_[static_cast<std::size_t>(kind)];
  obs::metrics()
      .counter(std::string("fault/io/injected/") + to_string(kind))
      .inc();
  if (obs::trace_enabled())
    obs::recorder().record_instant(
        (std::string("io_fault:") + to_string(kind)).c_str(), "fault",
        "\"path\":\"" + path + "\",\"op\":\"" + io::to_string(op) +
            "\",\"ordinal\":" + std::to_string(ordinal));
}

void IoFaultInjector::before(const std::string& path, io::IoOp op,
                             std::uint64_t offset, std::size_t bytes) {
  (void)offset;
  (void)bytes;
  if (!spec_.path_contains.empty() &&
      path.find(spec_.path_contains) == std::string::npos)
    return;
  std::unique_lock<std::mutex> lock(mu_);
  PathState& st = paths_[path];
  const std::uint64_t ordinal = st.ordinal++;
  IoFaultKind k = decide(path, op, ordinal);
  if (k == IoFaultKind::kNone) return;
  // Total per-path cap: guarantees every seeded schedule is recoverable by
  // a bounded retry / rewrite / re-materialization budget (see IoFaultSpec).
  if (st.faults_fired >= spec_.max_per_path) return;
  ++st.faults_fired;
  switch (k) {
    case IoFaultKind::kNone:
      return;
    case IoFaultKind::kStall:
      fire(path, op, ordinal, k);
      stalled_s_ += spec_.stall_s;
      // A stall is survived by waiting: it is its own recovery.
      obs::metrics().counter("fault/io/recovered/stall").inc();
      return;
    case IoFaultKind::kTransient:
      fire(path, op, ordinal, k);
      lock.unlock();
      throw Error("injected I/O fault: transient EIO on " +
                      std::string(io::to_string(op)) + " of '" + path +
                      "' (op " + std::to_string(ordinal) + ")",
                  ErrorKind::kIoTransient);
    case IoFaultKind::kNoSpace:
      fire(path, op, ordinal, k);
      lock.unlock();
      throw Error("injected I/O fault: ENOSPC on " +
                      std::string(io::to_string(op)) + " of '" + path +
                      "' (op " + std::to_string(ordinal) + ")",
                  ErrorKind::kIoNoSpace);
    case IoFaultKind::kTorn:
    case IoFaultKind::kBitFlip:
      // Applied to the buffer in the on_write that follows this before().
      st.pending_write = k;
      fire(path, op, ordinal, k);
      return;
  }
}

std::size_t IoFaultInjector::on_write(const std::string& path,
                                      std::uint64_t offset,
                                      unsigned char* data, std::size_t n) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = paths_.find(path);
  if (it == paths_.end() || it->second.pending_write == IoFaultKind::kNone ||
      n == 0)
    return n;
  const IoFaultKind k = it->second.pending_write;
  it->second.pending_write = IoFaultKind::kNone;
  Rng rng(io_stream_seed(spec_.seed ^ 0xD6E8FEB86659FD93ULL, path,
                         it->second.ordinal) ^
          offset);
  if (k == IoFaultKind::kTorn) {
    // The write silently ends somewhere in [25%, 75%) of this buffer.
    return static_cast<std::size_t>(static_cast<double>(n) *
                                    rng.uniform(0.25, 0.75));
  }
  // kBitFlip: one seeded bit flips on the way to the platter.
  const std::uint64_t bit = rng.below(static_cast<std::uint64_t>(n) * 8);
  data[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  return n;
}

std::vector<IoFaultInjector::Event> IoFaultInjector::schedule() const {
  std::unique_lock<std::mutex> lock(mu_);
  return schedule_;
}

std::uint64_t IoFaultInjector::injected() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < 6; ++i) total += counts_[i];
  return total;
}

std::uint64_t IoFaultInjector::injected(IoFaultKind kind) const {
  std::unique_lock<std::mutex> lock(mu_);
  return counts_[static_cast<std::size_t>(kind)];
}

double IoFaultInjector::stalled_s() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stalled_s_;
}

}  // namespace xgw
