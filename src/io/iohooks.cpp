#include "io/iohooks.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace xgw::io {

const char* to_string(IoOp op) {
  switch (op) {
    case IoOp::kOpenRead:
      return "open_read";
    case IoOp::kOpenWrite:
      return "open_write";
    case IoOp::kRead:
      return "read";
    case IoOp::kWrite:
      return "write";
    case IoOp::kFlush:
      return "flush";
    case IoOp::kRename:
      return "rename";
  }
  return "unknown";
}

IoHooks::~IoHooks() = default;

std::size_t IoHooks::on_write(const std::string&, std::uint64_t,
                              unsigned char*, std::size_t n) {
  return n;
}

namespace {

std::atomic<IoHooks*> g_hooks{nullptr};

// The policy is read on every whole-file op and written only from
// single-threaded setup (driver / test fixtures); a mutex-free word-copy
// under a tiny spinlock keeps the read path allocation-free.
std::atomic<int> g_policy_epoch{0};
IoRetryPolicy g_policy{};

}  // namespace

const char* recovered_fault_name(ErrorKind k) {
  switch (k) {
    case ErrorKind::kIoTransient:
      return "transient";
    case ErrorKind::kIoNoSpace:
      return "nospace";
    case ErrorKind::kIoCorrupt:
      return "bitflip";
    case ErrorKind::kIoTruncated:
      return "torn";
    default:
      return "other";
  }
}

void publish_recovered(ErrorKind k) {
  obs::metrics()
      .counter(std::string("fault/io/recovered/") + recovered_fault_name(k))
      .inc();
}

void set_io_hooks(IoHooks* hooks) noexcept {
  g_hooks.store(hooks, std::memory_order_release);
}

IoHooks* io_hooks() noexcept {
  return g_hooks.load(std::memory_order_acquire);
}

ScopedIoHooks::ScopedIoHooks(IoHooks* hooks) : prev_(io_hooks()) {
  set_io_hooks(hooks);
}

ScopedIoHooks::~ScopedIoHooks() { set_io_hooks(prev_); }

void set_io_retry_policy(const IoRetryPolicy& policy) noexcept {
  g_policy = policy;
  g_policy_epoch.fetch_add(1, std::memory_order_release);
}

IoRetryPolicy io_retry_policy() noexcept {
  (void)g_policy_epoch.load(std::memory_order_acquire);
  return g_policy;
}

double io_backoff_s(const IoRetryPolicy& policy, const std::string& path,
                    int failure) {
  double b = policy.backoff_base_s;
  for (int i = 0; i < failure; ++i) b *= policy.backoff_mult;
  if (policy.jitter > 0.0) {
    Rng rng(policy.seed ^ obs::fnv1a(path) ^
            (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(failure + 1)));
    b *= 1.0 + policy.jitter * rng.uniform();
  }
  return b;
}

int io_retry_run(const char* what, const std::string& path,
                 bool retry_corruption, const std::function<void()>& body) {
  const IoRetryPolicy policy = io_retry_policy();
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  int caught = 0;
  for (int attempt = 0;; ++attempt) {
    try {
      body();
      return caught;
    } catch (const Error& e) {
      const ErrorKind k = e.kind();
      const bool retryable =
          is_transient(k) || (retry_corruption && is_corruption(k));
      if (!retryable || attempt + 1 >= max_attempts) throw;
      ++caught;
      obs::metrics().counter("fault/io/retries").inc();
      // Recovered-counter accounting rule: a TRANSIENT failure is a
      // distinct event that throws exactly once and is neutralized right
      // here, by retrying — count it now, even if the whole operation
      // later fails for an unrelated reason (a higher layer then recovers
      // the remainder and counts only that). Corruption kinds are NOT
      // counted here: a retried read of an at-rest-corrupt file
      // re-discovers the SAME event each attempt, and the layer that
      // finally neutralizes the bad file (rewrite, re-materialization,
      // restart-item recompute) counts it once. This is what keeps
      // fault/io/injected/* == fault/io/recovered/* exact in the chaos
      // harness.
      if (is_transient(k)) publish_recovered(k);
      const double backoff = io_backoff_s(policy, path, attempt);
      obs::metrics()
          .counter("fault/io/backoff_us")
          .add(static_cast<std::uint64_t>(backoff * 1e6));
      if (obs::trace_enabled())
        obs::recorder().record_instant(
            "io_retry", "fault",
            std::string("\"op\":\"") + what + "\",\"path\":\"" + path +
                "\",\"kind\":\"" + to_string(k) + "\",\"attempt\":" +
                std::to_string(attempt + 1) + ",\"backoff_s\":" +
                std::to_string(backoff));
      if (policy.sleep && backoff > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  }
}

// --- hook-aware file primitives ------------------------------------------

HookedFileWriter::HookedFileWriter(std::string path)
    : path_(std::move(path)) {
  if (IoHooks* h = io_hooks()) h->before(path_, IoOp::kOpenWrite, 0, 0);
  os_.open(path_, std::ios::binary | std::ios::trunc);
  XGW_REQUIRE_KIND(os_.good(),
                   "io: cannot open file for writing: " + path_,
                   ErrorKind::kIoTransient);
}

void HookedFileWriter::put(const void* data, std::size_t n) {
  if (torn_) {
    offset_ += n;  // bytes the caller BELIEVES were written
    return;
  }
  const unsigned char* src = static_cast<const unsigned char*>(data);
  std::size_t write_n = n;
  if (IoHooks* h = io_hooks()) {
    h->before(path_, IoOp::kWrite, offset_, n);  // may throw classified
    scratch_.assign(src, src + n);
    write_n = h->on_write(path_, offset_, scratch_.data(), n);
    XGW_REQUIRE(write_n <= n, "IoHooks::on_write grew the buffer");
    src = scratch_.data();
    if (write_n < n) torn_ = true;
  }
  os_.write(reinterpret_cast<const char*>(src),
            static_cast<std::streamsize>(write_n));
  XGW_REQUIRE_KIND(os_.good(),
                   "io: write failed: '" + path_ + "' at byte offset " +
                       std::to_string(offset_),
                   ErrorKind::kIoTransient);
  offset_ += n;
}

void HookedFileWriter::finish() {
  if (IoHooks* h = io_hooks()) h->before(path_, IoOp::kFlush, offset_, 0);
  os_.flush();
  XGW_REQUIRE_KIND(os_.good(),
                   "io: flush failed: '" + path_ + "' at byte offset " +
                       std::to_string(offset_),
                   ErrorKind::kIoTransient);
}

HookedFileReader::HookedFileReader(std::string path)
    : path_(std::move(path)) {
  if (IoHooks* h = io_hooks()) h->before(path_, IoOp::kOpenRead, 0, 0);
  is_.open(path_, std::ios::binary);
  XGW_REQUIRE_KIND(is_.good(),
                   "io: cannot open file for reading: " + path_,
                   ErrorKind::kIoTransient);
}

void HookedFileReader::get(void* data, std::size_t n) {
  if (IoHooks* h = io_hooks()) h->before(path_, IoOp::kRead, offset_, n);
  is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  XGW_REQUIRE_KIND(is_.gcount() == static_cast<std::streamsize>(n),
                   "io: truncated file: '" + path_ + "': expected " +
                       std::to_string(n) + " bytes at byte offset " +
                       std::to_string(offset_) + ", got " +
                       std::to_string(is_.gcount()),
                   ErrorKind::kIoTruncated);
  offset_ += n;
}

std::size_t HookedFileReader::get_some(void* data, std::size_t n) {
  if (IoHooks* h = io_hooks()) h->before(path_, IoOp::kRead, offset_, n);
  is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  const std::size_t got = static_cast<std::size_t>(is_.gcount());
  offset_ += got;
  if (got < n) is_.clear();
  return got;
}

void hooked_rename(const std::string& from, const std::string& to) {
  if (IoHooks* h = io_hooks()) h->before(to, IoOp::kRename, 0, 0);
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  XGW_REQUIRE_KIND(!ec,
                   "io: rename failed: '" + from + "' -> '" + to + "': " +
                       ec.message(),
                   ErrorKind::kIoTransient);
}

}  // namespace xgw::io
