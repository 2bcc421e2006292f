#pragma once

// Pluggable I/O interposition seam + retry/backoff policy for every file
// that xgw reads or writes (binio matrix/WFN files and restart items, spill
// pages, CAS entries).
//
// Production builds pay one relaxed atomic pointer load per operation: when
// no hooks are installed the fast path is a nullptr check and the raw
// stream call. With hooks installed (the storage-fault chaos layer,
// runtime/fault.h::IoFaultInjector), every open/read/write/flush/rename
// first consults the hook, which may
//   * throw a classified xgw::Error (transient EIO, ENOSPC) to fail the op,
//   * mutate the outgoing buffer (silent bit-flip corruption), or
//   * shorten the write (torn write: the file silently ends early).
//
// Recovery is layered ABOVE the seam: whole-file operations (write_matrix,
// read_matrix, spill page-in) run under `io_retry_run`, which retries
// transient failures with deterministic seeded-jitter exponential backoff
// and publishes fault/io/... metrics, so a blip never kills an hours-long
// campaign. Corruption kinds are NOT retried on the write path (the bytes
// are wrong, not the timing) — they surface to the spill
// re-materialization / CAS rewrite / restart-item recompute layers.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/error.h"

namespace xgw::io {

/// Operation classes visible to the hooks.
enum class IoOp : std::uint8_t {
  kOpenRead = 0,
  kOpenWrite,
  kRead,
  kWrite,
  kFlush,
  kRename,
};

const char* to_string(IoOp op);

/// Interposition interface. Implementations must be thread-safe (spill
/// eviction can run from any thread holding the pool).
class IoHooks {
 public:
  virtual ~IoHooks();

  /// Called BEFORE bytes move. May throw a classified xgw::Error to fail
  /// the operation (kIoTransient / kIoNoSpace). `bytes` is 0 for
  /// open/flush/rename.
  virtual void before(const std::string& path, IoOp op, std::uint64_t offset,
                      std::size_t bytes) = 0;

  /// Write-path mutation hook: `data` is a scratch COPY of the outgoing
  /// buffer that may be corrupted in place; the return value is how many
  /// bytes to actually write (< n simulates a torn write — the writer then
  /// silently drops everything after the tear). Default: identity.
  virtual std::size_t on_write(const std::string& path, std::uint64_t offset,
                               unsigned char* data, std::size_t n);
};

/// Installs (or clears, with nullptr) the process-wide hooks. The caller
/// keeps ownership and must keep the object alive while installed.
void set_io_hooks(IoHooks* hooks) noexcept;
IoHooks* io_hooks() noexcept;

/// RAII installer: restores the previously installed hooks on destruction.
class ScopedIoHooks {
 public:
  explicit ScopedIoHooks(IoHooks* hooks);
  ~ScopedIoHooks();
  ScopedIoHooks(const ScopedIoHooks&) = delete;
  ScopedIoHooks& operator=(const ScopedIoHooks&) = delete;

 private:
  IoHooks* prev_;
};

/// Bounded-retry policy for transient I/O failures. Backoff for attempt k
/// (0-based failure count) is
///   backoff_base_s * backoff_mult^k * (1 + jitter * u)
/// with u drawn deterministically from (seed, path hash, k) — reruns of
/// the same schedule back off identically, but distinct files never
/// thundering-herd on the same instant.
struct IoRetryPolicy {
  int max_attempts = 1;         ///< 1 = retry disabled (seed default)
  double backoff_base_s = 1e-3; ///< first backoff
  double backoff_mult = 2.0;    ///< exponential growth per failure
  double jitter = 0.5;          ///< uniform jitter fraction on top
  std::uint64_t seed = 0;       ///< jitter stream seed
  bool sleep = true;            ///< false: account the backoff, skip the nap

  bool enabled() const { return max_attempts > 1; }
};

/// Process-wide policy consulted by binio / spill / CAS operations.
void set_io_retry_policy(const IoRetryPolicy& policy) noexcept;
IoRetryPolicy io_retry_policy() noexcept;

/// Deterministic backoff (seconds) for the k-th consecutive failure on
/// `path` under `policy` (exposed for tests).
double io_backoff_s(const IoRetryPolicy& policy, const std::string& path,
                    int failure);

/// Runs `body` with bounded retry under the global policy. Retries when the
/// thrown Error's kind is kIoTransient, or — iff `retry_corruption` (read
/// paths, where a fresh read may succeed after a transient in-flight flip)
/// — a corruption kind. Rethrows the last error once attempts are
/// exhausted. On eventual success after n > 0 failures, publishes one
/// fault/io/recovered/<kind> metric per caught failure and returns the
/// number of failures recovered from.
int io_retry_run(const char* what, const std::string& path,
                 bool retry_corruption, const std::function<void()>& body);

/// The injected-fault name an ErrorKind observed during recovery pairs
/// with, so fault/io/injected/<name> and fault/io/recovered/<name> line up
/// exactly: a torn write is DISCOVERED as a truncated read (-> "torn"), a
/// silent bit flip as a checksum mismatch (-> "bitflip").
const char* recovered_fault_name(ErrorKind k);

/// Ticks fault/io/recovered/<recovered_fault_name(k)>: the one mark a
/// recovery layer publishes per fault it neutralized.
void publish_recovered(ErrorKind k);

// --- hook-aware file primitives ------------------------------------------
//
// Thin ofstream/ifstream wrappers that route every byte through the hooks
// seam and throw classified errors naming path + byte offset. binio's
// checksummed formats and the spill pool build on these, so fault
// injection and retry cover every storage path uniformly.

class HookedFileWriter {
 public:
  explicit HookedFileWriter(std::string path);

  /// Writes n bytes (subject to hook mutation/tearing). The caller's
  /// buffer is never modified.
  void put(const void* data, std::size_t n);

  /// Flush + final error check. Must be called exactly once.
  void finish();

  const std::string& path() const noexcept { return path_; }
  std::uint64_t offset() const noexcept { return offset_; }
  /// True once a hook tore the stream: later bytes are silently dropped,
  /// exactly like a partial write that never reached the disk.
  bool torn() const noexcept { return torn_; }

 private:
  std::string path_;
  std::ofstream os_;
  std::uint64_t offset_ = 0;
  bool torn_ = false;
  std::vector<unsigned char> scratch_;
};

class HookedFileReader {
 public:
  explicit HookedFileReader(std::string path);

  /// Reads exactly n bytes or throws kIoTruncated naming path + offset.
  void get(void* data, std::size_t n);

  /// Reads up to n bytes; returns the count actually read (trailer probes).
  std::size_t get_some(void* data, std::size_t n);

  const std::string& path() const noexcept { return path_; }
  std::uint64_t offset() const noexcept { return offset_; }

 private:
  std::string path_;
  std::ifstream is_;
  std::uint64_t offset_ = 0;
};

/// Hook-aware atomic rename (CAS tmp -> entry promotion). Throws
/// kIoTransient on filesystem failure so the caller's retry loop can
/// re-attempt it.
void hooked_rename(const std::string& from, const std::string& to);

}  // namespace xgw::io
