#pragma once

// Error handling: xgw reports precondition violations and runtime failures
// via exceptions carrying the failing expression and location.
//
// Errors additionally carry a machine-readable ErrorKind so recovery layers
// (io retry/backoff, spill re-materialization, restart-item recompute) can
// classify a failure as transient-retryable, corrupt-data, or fatal
// WITHOUT parsing message strings. The kind taxonomy is deliberately
// coarse: it encodes the recovery action, not the root cause.

#include <stdexcept>
#include <string>

namespace xgw {

/// Machine-readable failure class. Drives the retry/recovery policy:
///   kIoTransient  -> bounded retry with backoff (EIO-class blips)
///   kIoNoSpace    -> no retry; degrade gracefully (stop spilling) or fail
///                    with an actionable message naming stage and bytes
///   kIoCorrupt    -> data on disk fails its checksum; retrying the read is
///                    useless — re-materialize from the producer or
///                    recompute the restart item
///   kIoTruncated  -> short/torn write discovered at read time; same
///                    recovery as kIoCorrupt
///   kValidation   -> NaN/Inf caught at a kernel boundary; recompute the
///                    producing attempt
///   kGeneric      -> everything else; never auto-recovered
enum class ErrorKind : std::uint8_t {
  kGeneric = 0,
  kIoTransient,
  kIoNoSpace,
  kIoCorrupt,
  kIoTruncated,
  kValidation,
};

const char* to_string(ErrorKind kind);

/// True for kinds a bounded in-place retry can plausibly fix.
inline bool is_transient(ErrorKind k) { return k == ErrorKind::kIoTransient; }

/// True for kinds meaning "the bytes on disk are not the bytes written".
inline bool is_corruption(ErrorKind k) {
  return k == ErrorKind::kIoCorrupt || k == ErrorKind::kIoTruncated;
}

/// Exception thrown on any xgw precondition or consistency failure.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, ErrorKind kind = ErrorKind::kGeneric)
      : std::runtime_error(what), kind_(kind) {}

  ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_ = ErrorKind::kGeneric;
};

namespace detail {
[[noreturn]] void throw_error(const char* expr, const char* file, int line,
                              const std::string& msg,
                              ErrorKind kind = ErrorKind::kGeneric);
}  // namespace detail

}  // namespace xgw

/// Precondition / invariant check. Always on (never compiled out): GW runs
/// are long and silent corruption is far more expensive than a branch.
#define XGW_REQUIRE(expr, msg)                                        \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::xgw::detail::throw_error(#expr, __FILE__, __LINE__, (msg));   \
    }                                                                 \
  } while (false)

/// XGW_REQUIRE with a machine-readable kind for the recovery layers.
#define XGW_REQUIRE_KIND(expr, msg, kind)                             \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::xgw::detail::throw_error(#expr, __FILE__, __LINE__, (msg),    \
                                 (kind));                             \
    }                                                                 \
  } while (false)
