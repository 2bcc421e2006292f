#pragma once

// Content-addressed sub-result store for the serving layer.
//
// Entries are io/binio files (trailing FNV-1a checksum, so every read is
// verified) named `cas_<key>.<kind>.xgw` under one directory — the key
// carries the content address (serve/spec.h), the kind tag makes a damaged
// index rebuildable from a plain directory scan. Commits are torn-write
// safe, the autotune-cache pattern: write to `<file>.tmp`, verify per the
// spill-verify mode (off / size / checksum read-back, the same
// write_verified discipline as mem::SpillPool), then atomically rename
// into place. A verification failure re-writes up to a bounded number of
// rounds; persistent failure (ENOSPC, dying disk) DEGRADES — the entry is
// simply not cached and the batch recomputes, results stay correct, and
// the failure is published to the fault ledger as recovered.
//
// Reads that surface corruption (torn tail, at-rest bit flip — binio's
// checksum catches both) erase the entry, count it, publish the recovery,
// and report a MISS: the serving layer then recomputes the sub-result,
// which is bitwise identical by the determinism contract.
//
// Eviction is LRU over a disk-byte budget: every put/get refreshes the
// entry's recency ordinal, and a put that pushes the store past budget
// drops the stalest entries. The ordinals persist in `cas-index.txt`
// (versioned, checksummed, tmp+rename committed); a damaged or missing
// index costs only the recency order, never the entries.
//
// All operations are serialized on one internal mutex: batch tasks call in
// from every worker, and compute time dominates store time by orders of
// magnitude.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "core/sigma.h"
#include "la/matrix.h"
#include "mem/spill.h"
#include "mf/wavefunctions.h"

namespace xgw::serve {

/// Payload kind, encoded in the entry file name.
enum class CasKind : std::uint8_t { kMatrix = 0, kWavefunctions, kQpRow };

const char* to_string(CasKind k);

struct CasStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t corrupt = 0;       ///< entries dropped after a bad read
  std::uint64_t put_failures = 0;  ///< commits abandoned (degraded to uncached)
  std::uint64_t rewrites = 0;      ///< commits redone after failed verification
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

class CasStore {
 public:
  /// Opens (creating if needed) the store at `dir` and scans it for
  /// existing entries; stale `.tmp` files from a torn previous commit are
  /// removed. `disk_budget_bytes` caps the on-disk footprint (0 =
  /// unlimited).
  explicit CasStore(std::string dir, std::size_t disk_budget_bytes = 0);
  ~CasStore();

  CasStore(const CasStore&) = delete;
  CasStore& operator=(const CasStore&) = delete;

  /// Index-only presence check — no file I/O, no counter movement.
  bool contains(const std::string& key) const;

  /// contains() that moves the hit/miss counters — the batch planner's
  /// probe, so "resubmit == zero misses" is observable per batch.
  bool probe(const std::string& key);

  void put_matrix(const std::string& key, const ZMatrix& m);
  std::optional<ZMatrix> get_matrix(const std::string& key);

  void put_wavefunctions(const std::string& key, const Wavefunctions& wf);
  std::optional<Wavefunctions> get_wavefunctions(const std::string& key);

  void put_qp(const std::string& key, const QpResult& r);
  std::optional<QpResult> get_qp(const std::string& key);

  /// Commit verification mode (defaults to the process-wide
  /// mem::spill_verify() at construction).
  void set_verify(mem::SpillVerify v);
  mem::SpillVerify verify() const;

  CasStats stats() const;
  std::size_t size() const;
  std::size_t disk_bytes() const;
  std::size_t budget_bytes() const;
  const std::string& dir() const { return dir_; }

  /// Persists the LRU index (also done by the destructor).
  void flush();

 private:
  struct Entry {
    CasKind kind = CasKind::kMatrix;
    std::size_t bytes = 0;
    std::uint64_t seq = 0;  ///< recency ordinal (higher = fresher)
  };

  std::string file_for(const std::string& key, CasKind kind) const;
  void scan_and_load_index();
  void flush_index_locked();
  bool commit_entry(const std::string& key, CasKind kind,
                    std::size_t expected_bytes,
                    const std::function<void(const std::string&)>& write_file,
                    const std::function<bool(const std::string&)>& matches);
  void record_put(const std::string& key, CasKind kind);
  void evict_past_budget(const std::string& keep);
  /// Classifies a failed read: corruption kinds drop the entry and report
  /// a miss; kGeneric/kValidation rethrow.
  void drop_after_bad_read(const std::string& key, const Error& e);

  mutable std::mutex mu_;
  std::string dir_;
  std::size_t budget_ = 0;
  std::size_t total_bytes_ = 0;
  std::uint64_t next_seq_ = 0;
  mem::SpillVerify verify_;
  CasStats stats_;
  std::map<std::string, Entry> entries_;
};

}  // namespace xgw::serve
