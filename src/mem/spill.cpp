#include "mem/spill.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "io/binio.h"
#include "io/iohooks.h"
#include "mem/tracker.h"
#include "obs/metrics.h"

namespace xgw::mem {

namespace {

std::size_t matrix_bytes(const ZMatrix& m) {
  return static_cast<std::size_t>(m.size()) * sizeof(cplx);
}

std::atomic<SpillVerify> g_verify{SpillVerify::kSize};

}  // namespace

const char* to_string(SpillVerify v) {
  switch (v) {
    case SpillVerify::kOff:
      return "off";
    case SpillVerify::kSize:
      return "size";
    case SpillVerify::kChecksum:
      return "checksum";
  }
  return "unknown";
}

SpillVerify parse_spill_verify(const std::string& s) {
  if (s == "off") return SpillVerify::kOff;
  if (s == "size") return SpillVerify::kSize;
  if (s == "checksum") return SpillVerify::kChecksum;
  throw Error("spill_verify must be 'off', 'size' or 'checksum', got '" + s +
                  "'",
              ErrorKind::kValidation);
}

void set_spill_verify(SpillVerify v) noexcept {
  g_verify.store(v, std::memory_order_relaxed);
}

SpillVerify spill_verify() noexcept {
  return g_verify.load(std::memory_order_relaxed);
}

SpillPool::SpillPool(std::string dir, std::size_t resident_budget_bytes,
                     std::string prefix)
    : dir_(std::move(dir)), prefix_(std::move(prefix)),
      budget_(resident_budget_bytes), verify_(spill_verify()) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  XGW_REQUIRE(!ec, "spill: cannot create spill directory: " + dir_ + " (" +
                       ec.message() + ")");
}

SpillPool::~SpillPool() {
  std::error_code ec;
  for (auto& [key, e] : entries_)
    if (e.on_disk) {
      tracker().on_free(Tag::kSpill, e.bytes);
      std::filesystem::remove(file_for(key), ec);
    }
}

std::string SpillPool::file_for(const std::string& key) const {
  return dir_ + "/" + prefix_ + key + ".xgw";
}

void SpillPool::touch(Entry& e, const std::string& key) {
  lru_.erase(e.lru);
  lru_.push_front(key);
  e.lru = lru_.begin();
}

// Writes e.m to its spill file and proves the file good under the pool's
// verification mode BEFORE the caller releases the in-memory copy — the
// eviction-ordering invariant. A rejected write is redone (bounded); a
// persistent failure (ENOSPC, exhausted retries, verification that never
// passes) returns false WITHOUT touching e.m, and the pool degrades to
// in-core operation: results stay bitwise correct, the budget is knowingly
// exceeded.
bool SpillPool::write_verified(const std::string& key, const Entry& e) {
  const std::string file = file_for(key);
  constexpr int kMaxWriteRounds = 4;
  std::vector<ErrorKind> failed_kinds;
  for (int round = 0; round < kMaxWriteRounds; ++round) {
    try {
      write_matrix(file, e.m);
      bool ok = true;
      ErrorKind bad = ErrorKind::kGeneric;
      if (verify_ == SpillVerify::kSize) {
        std::error_code ec;
        const auto sz = std::filesystem::file_size(file, ec);
        if (ec || sz != matrix_file_bytes(e.m.rows(), e.m.cols())) {
          ok = false;
          bad = ErrorKind::kIoTruncated;
        }
      } else if (verify_ == SpillVerify::kChecksum) {
        try {
          const ZMatrix back = read_matrix(file);
          if (back.rows() != e.m.rows() || back.cols() != e.m.cols() ||
              std::memcmp(back.data(), e.m.data(), e.bytes) != 0) {
            ok = false;
            bad = ErrorKind::kIoCorrupt;
          }
        } catch (const Error& err) {
          if (err.kind() == ErrorKind::kGeneric) throw;
          ok = false;
          bad = err.kind();
        }
      }
      if (ok) {
        // Every rejected round was a survived silent-corruption event.
        rewrites_ += failed_kinds.size();
        for (ErrorKind k : failed_kinds) {
          obs::metrics().counter("spill/rewrites").inc();
          io::publish_recovered(k);
        }
        return true;
      }
      failed_kinds.push_back(bad);
    } catch (const Error& err) {
      // The write itself failed past the retry layer (injected ENOSPC, or
      // exhausted transient retries). Degrade rather than die. Earlier
      // verify-rejected rounds were survived too (their bad bytes were
      // discarded), so they count as recovered alongside this failure.
      log_warn("spill: cannot write ", file, " (", e.bytes,
               " payload bytes): ", err.what(),
               " -- pool degrades to in-core operation");
      for (ErrorKind k : failed_kinds) io::publish_recovered(k);
      io::publish_recovered(err.kind());
      return false;
    }
  }
  log_warn("spill: eviction write of ", file, " (", e.bytes,
           " payload bytes) failed ", to_string(verify_),
           " verification ", kMaxWriteRounds,
           " times -- pool degrades to in-core operation");
  for (ErrorKind k : failed_kinds) io::publish_recovered(k);
  return false;
}

bool SpillPool::evict(const std::string& key, Entry& e) {
  const std::size_t bytes = e.bytes;
  if (!e.on_disk) {
    // First spill of this content. Entries are immutable between put()s
    // (and put resets on_disk), so a paged-in entry still matches its file
    // byte-for-byte — re-evicting it skips the write entirely.
    if (!write_verified(key, e)) {
      degraded_ = true;
      obs::metrics().counter("spill/degraded").inc();
      return false;  // in-memory copy untouched: still the only good copy
    }
    bytes_written_ += bytes;
    tracker().on_alloc(Tag::kSpill, bytes);  // bytes now live on disk
  }
  e.m = ZMatrix();
  e.resident = false;
  e.on_disk = true;
  lru_.erase(e.lru);
  resident_bytes_ -= bytes;
  ++evictions_;
  return true;
}

void SpillPool::page_in(const std::string& key, Entry& e) {
  bool rematerialized = false;
  try {
    e.m = read_matrix(file_for(key));
  } catch (const Error& err) {
    if (err.kind() == ErrorKind::kGeneric || !recompute_) throw;
    // The disk copy is gone (torn page, at-rest flip, dead device past the
    // retry budget) but the content is a pure function of upstream data:
    // re-derive it instead of killing the campaign. Determinism of the
    // callback keeps the run bitwise identical to the fault-free one.
    log_warn("spill: page-in of ", file_for(key), " failed (", err.what(),
             ") -- re-materializing key ", key);
    e.m = recompute_(key);
    XGW_REQUIRE(matrix_bytes(e.m) == e.bytes,
                "spill: re-materialized matrix for key " + key +
                    " has wrong size");
    ++rematerializations_;
    obs::metrics().counter("spill/rematerializations").inc();
    io::publish_recovered(err.kind());
    // Drop the bad file: the entry is dirty again and re-evicts via a
    // fresh verified write.
    tracker().on_free(Tag::kSpill, e.bytes);
    std::error_code ec;
    std::filesystem::remove(file_for(key), ec);
    rematerialized = true;
  }
  e.resident = true;
  e.on_disk = !rematerialized;  // keep the file; next eviction overwrites it
  lru_.push_front(key);
  e.lru = lru_.begin();
  resident_bytes_ += e.bytes;
  ++page_ins_;
  bytes_read_ += e.bytes;
  XGW_REQUIRE(matrix_bytes(e.m) == e.bytes,
              "spill: paged-in size mismatch for key " + key);
}

void SpillPool::make_room(std::size_t incoming_bytes, const Entry* keep) {
  if (degraded_) return;  // eviction disabled: stay in-core
  while (resident_bytes_ + incoming_bytes > budget_ && !lru_.empty()) {
    const std::string victim = lru_.back();
    Entry& e = entries_.at(victim);
    if (&e == keep) break;  // never evict the entry being served
    if (!evict(victim, e)) break;  // pool just degraded
  }
}

void SpillPool::put(const std::string& key, ZMatrix m) {
  const std::size_t bytes = matrix_bytes(m);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& e = it->second;
    if (e.resident) {
      resident_bytes_ -= e.bytes;
      lru_.erase(e.lru);
    }
    if (e.on_disk) tracker().on_free(Tag::kSpill, e.bytes);
    e = Entry{};
  }
  make_room(bytes, nullptr);
  Entry& e = entries_[key];
  e.m = std::move(m);
  e.resident = true;
  e.on_disk = false;
  e.bytes = bytes;
  lru_.push_front(key);
  e.lru = lru_.begin();
  resident_bytes_ += bytes;
}

const ZMatrix& SpillPool::get(const std::string& key) {
  auto it = entries_.find(key);
  XGW_REQUIRE(it != entries_.end(), "spill: no such entry: " + key);
  Entry& e = it->second;
  if (!e.resident) {
    make_room(e.bytes, &e);
    page_in(key, e);
  } else {
    touch(e, key);
  }
  return e.m;
}

ZMatrix SpillPool::take(const std::string& key) {
  auto it = entries_.find(key);
  XGW_REQUIRE(it != entries_.end(), "spill: no such entry: " + key);
  Entry& e = it->second;
  if (!e.resident) {
    make_room(e.bytes, &e);
    page_in(key, e);
  } else {
    lru_.erase(e.lru);
  }
  resident_bytes_ -= e.bytes;
  if (e.on_disk) {
    tracker().on_free(Tag::kSpill, e.bytes);
    std::error_code ec;
    std::filesystem::remove(file_for(key), ec);
  }
  ZMatrix out = std::move(e.m);
  entries_.erase(it);
  return out;
}

bool SpillPool::contains(const std::string& key) const {
  return entries_.count(key) != 0;
}

void MatrixStore::enable_spill(const std::string& dir,
                               std::size_t resident_budget_bytes,
                               const std::string& prefix) {
  XGW_REQUIRE(pool_ == nullptr, "MatrixStore: spill already enabled");
  pool_ = std::make_unique<SpillPool>(dir, resident_budget_bytes, prefix);
  if (recompute_) {
    auto fn = recompute_;
    pool_->set_recompute(
        [fn](const std::string& k) { return fn(std::stoll(k)); });
  }
  for (idx i = 0; i < n_; ++i)
    pool_->put(key(i), std::move(in_core_[static_cast<std::size_t>(i)]));
  in_core_.clear();
  in_core_.shrink_to_fit();
}

void MatrixStore::set_recompute(std::function<ZMatrix(idx)> fn) {
  recompute_ = std::move(fn);
  if (pool_) {
    auto f = recompute_;
    pool_->set_recompute(
        [f](const std::string& k) { return f(std::stoll(k)); });
  }
}

void MatrixStore::push_back(ZMatrix m) {
  if (pool_) {
    pool_->put(key(n_), std::move(m));
  } else {
    in_core_.push_back(std::move(m));
  }
  ++n_;
}

void MatrixStore::set(idx i, ZMatrix m) {
  XGW_REQUIRE(i >= 0 && i < n_, "MatrixStore: index out of range");
  if (pool_) {
    pool_->put(key(i), std::move(m));
  } else {
    in_core_[static_cast<std::size_t>(i)] = std::move(m);
  }
}

const ZMatrix& MatrixStore::get(idx i) const {
  XGW_REQUIRE(i >= 0 && i < n_, "MatrixStore: index out of range");
  if (pool_) return pool_->get(key(i));
  return in_core_[static_cast<std::size_t>(i)];
}

}  // namespace xgw::mem
