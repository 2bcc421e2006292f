#include "serve/cas.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "io/binio.h"
#include "io/iohooks.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace xgw::serve {

namespace fs = std::filesystem;

namespace {

constexpr int kMaxCommitRounds = 4;
constexpr const char* kIndexName = "cas-index.txt";
constexpr const char* kIndexMagic = "xgw-cas-index-v1";

void count(const char* name) {
  obs::metrics().counter(std::string("serve/cas/") + name).add(1);
}

bool bitwise_equal(const ZMatrix& a, const ZMatrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(cplx)) == 0;
}

bool bitwise_equal(const Wavefunctions& a, const Wavefunctions& b) {
  return a.n_valence == b.n_valence && bitwise_equal(a.coeff, b.coeff) &&
         a.energy.size() == b.energy.size() &&
         std::memcmp(a.energy.data(), b.energy.data(),
                     a.energy.size() * sizeof(double)) == 0;
}

}  // namespace

const char* to_string(CasKind k) {
  switch (k) {
    case CasKind::kMatrix: return "mat";
    case CasKind::kWavefunctions: return "wfn";
    case CasKind::kQpRow: return "qp";
  }
  return "?";
}

CasStore::CasStore(std::string dir, std::size_t disk_budget_bytes)
    : dir_(std::move(dir)),
      budget_(disk_budget_bytes),
      verify_(mem::spill_verify()) {
  fs::create_directories(dir_);
  scan_and_load_index();
}

CasStore::~CasStore() {
  try {
    flush();
  } catch (...) {
    // Destructor flush is best-effort; the index is a recency hint only.
  }
}

std::string CasStore::file_for(const std::string& key, CasKind kind) const {
  return dir_ + "/cas_" + key + "." + to_string(kind) + ".xgw";
}

void CasStore::scan_and_load_index() {
  // The files are the source of truth; the index only restores recency.
  for (const auto& de : fs::directory_iterator(dir_)) {
    const std::string name = de.path().filename().string();
    if (name.size() > 4 && name.ends_with(".tmp")) {
      fs::remove(de.path());  // torn previous commit
      continue;
    }
    if (!name.starts_with("cas_") || !name.ends_with(".xgw")) continue;
    const std::string stem = name.substr(4, name.size() - 8);
    const std::size_t dot = stem.rfind('.');
    if (dot == std::string::npos) continue;
    const std::string key = stem.substr(0, dot);
    const std::string tag = stem.substr(dot + 1);
    Entry e;
    if (tag == "mat")
      e.kind = CasKind::kMatrix;
    else if (tag == "wfn")
      e.kind = CasKind::kWavefunctions;
    else if (tag == "qp")
      e.kind = CasKind::kQpRow;
    else
      continue;
    e.bytes = static_cast<std::size_t>(fs::file_size(de.path()));
    entries_[key] = e;
    total_bytes_ += e.bytes;
  }
  // Assign recency: sorted key order as the fallback, index order when the
  // index is intact.
  for (auto& [key, e] : entries_) {
    (void)key;
    e.seq = next_seq_++;
  }
  std::ifstream is(dir_ + "/" + kIndexName);
  if (!is.good()) return;
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  const std::size_t nl = text.rfind("checksum ");
  if (nl == std::string::npos) return;
  const std::string body = text.substr(0, nl);
  std::string sum = text.substr(nl + 9);
  while (!sum.empty() && (sum.back() == '\n' || sum.back() == '\r'))
    sum.pop_back();
  if (obs::fnv1a_hex(body) != sum) return;  // damaged: keep the scan order
  std::istringstream lines(body);
  std::string line;
  if (!std::getline(lines, line) || line != kIndexMagic) return;
  std::uint64_t seq, bytes;
  std::string tag, key;
  while (lines >> seq >> tag >> bytes >> key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) continue;  // evicted/deleted since
    it->second.seq = seq;
    next_seq_ = std::max(next_seq_, seq + 1);
  }
}

void CasStore::flush_index_locked() {
  std::string body = kIndexMagic;
  body += '\n';
  for (const auto& [key, e] : entries_) {
    body += std::to_string(e.seq);
    body += ' ';
    body += to_string(e.kind);
    body += ' ';
    body += std::to_string(e.bytes);
    body += ' ';
    body += key;
    body += '\n';
  }
  const std::string text = body + "checksum " + obs::fnv1a_hex(body) + "\n";
  const std::string path = dir_ + "/" + kIndexName;
  const std::string tmp = path + ".tmp";
  try {
    io::HookedFileWriter w(tmp);
    w.put(text.data(), text.size());
    w.finish();
    io::hooked_rename(tmp, path);
  } catch (const Error&) {
    // Best-effort: a lost index only costs the recency order.
    std::error_code ec;
    fs::remove(tmp, ec);
  }
}

void CasStore::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  flush_index_locked();
}

bool CasStore::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.count(key) != 0;
}

bool CasStore::probe(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  const bool hit = entries_.count(key) != 0;
  if (hit) {
    ++stats_.hits;
    count("hit");
  } else {
    ++stats_.misses;
    count("miss");
  }
  return hit;
}

void CasStore::set_verify(mem::SpillVerify v) {
  std::lock_guard<std::mutex> lk(mu_);
  verify_ = v;
}

mem::SpillVerify CasStore::verify() const {
  std::lock_guard<std::mutex> lk(mu_);
  return verify_;
}

CasStats CasStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t CasStore::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

std::size_t CasStore::disk_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_bytes_;
}

std::size_t CasStore::budget_bytes() const { return budget_; }

bool CasStore::commit_entry(
    const std::string& key, CasKind kind, std::size_t expected_bytes,
    const std::function<void(const std::string&)>& write_file,
    const std::function<bool(const std::string&)>& matches) {
  // Caller holds mu_. Same discipline as SpillPool::write_verified: never
  // report the entry present until the on-disk copy is proven good (to the
  // configured verification level), and degrade instead of dying.
  const std::string file = file_for(key, kind);
  const std::string tmp = file + ".tmp";
  std::vector<ErrorKind> failed;
  bool ok = false;
  for (int round = 0; round < kMaxCommitRounds && !ok; ++round) {
    try {
      write_file(tmp);
      switch (verify_) {
        case mem::SpillVerify::kOff:
          ok = true;
          break;
        case mem::SpillVerify::kSize:
          ok = fs::exists(tmp) &&
               static_cast<std::size_t>(fs::file_size(tmp)) == expected_bytes;
          if (!ok) failed.push_back(ErrorKind::kIoTruncated);
          break;
        case mem::SpillVerify::kChecksum:
          ok = matches(tmp);
          if (!ok) failed.push_back(ErrorKind::kIoCorrupt);
          break;
      }
      if (ok)
        io::io_retry_run("cas_commit", file, false,
                         [&] { io::hooked_rename(tmp, file); });
    } catch (const Error& e) {
      if (e.kind() == ErrorKind::kGeneric ||
          e.kind() == ErrorKind::kValidation)
        throw;
      failed.push_back(e.kind());
      ok = false;
    }
  }
  // Every observed failure ends handled — rewritten or degraded-to-uncached
  // — so it pairs with one recovered mark in the fault ledger.
  for (ErrorKind k : failed) io::publish_recovered(k);
  if (ok) {
    if (!failed.empty()) {
      ++stats_.rewrites;
      count("rewrite");
    }
    record_put(key, kind);
  } else {
    ++stats_.put_failures;
    count("put_failure");
    std::error_code ec;
    fs::remove(tmp, ec);
  }
  return ok;
}

void CasStore::record_put(const std::string& key, CasKind kind) {
  auto it = entries_.find(key);
  if (it != entries_.end()) total_bytes_ -= it->second.bytes;
  Entry e;
  e.kind = kind;
  e.bytes = static_cast<std::size_t>(fs::file_size(file_for(key, kind)));
  e.seq = next_seq_++;
  entries_[key] = e;
  total_bytes_ += e.bytes;
  ++stats_.puts;
  stats_.bytes_written += e.bytes;
  count("put");
  evict_past_budget(key);
  flush_index_locked();
}

void CasStore::evict_past_budget(const std::string& keep) {
  if (budget_ == 0) return;
  while (total_bytes_ > budget_ && entries_.size() > 1) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == entries_.end() || it->second.seq < victim->second.seq)
        victim = it;
    }
    if (victim == entries_.end()) return;
    std::error_code ec;
    fs::remove(file_for(victim->first, victim->second.kind), ec);
    total_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++stats_.evictions;
    count("evict");
  }
}

void CasStore::drop_after_bad_read(const std::string& key, const Error& e) {
  if (e.kind() == ErrorKind::kGeneric || e.kind() == ErrorKind::kValidation)
    throw e;
  // Corruption: the bytes are gone for good — drop the entry so the slot
  // recomputes and recommits. Persistent transient failure: keep the file
  // (the bytes may be fine), still report a miss so the caller recomputes.
  if (is_corruption(e.kind())) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      std::error_code ec;
      fs::remove(file_for(key, it->second.kind), ec);
      total_bytes_ -= it->second.bytes;
      entries_.erase(it);
    }
    ++stats_.corrupt;
    count("corrupt");
    flush_index_locked();
  }
  io::publish_recovered(e.kind());
  ++stats_.misses;
  count("miss");
}

void CasStore::put_matrix(const std::string& key, const ZMatrix& m) {
  std::lock_guard<std::mutex> lk(mu_);
  commit_entry(
      key, CasKind::kMatrix, matrix_file_bytes(m.rows(), m.cols()),
      [&](const std::string& tmp) { write_matrix(tmp, m); },
      [&](const std::string& tmp) { return bitwise_equal(read_matrix(tmp), m); });
}

std::optional<ZMatrix> CasStore::get_matrix(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.kind != CasKind::kMatrix) {
    ++stats_.misses;
    count("miss");
    return std::nullopt;
  }
  try {
    ZMatrix m = read_matrix(file_for(key, CasKind::kMatrix));
    it->second.seq = next_seq_++;
    ++stats_.hits;
    stats_.bytes_read += it->second.bytes;
    count("hit");
    return m;
  } catch (const Error& e) {
    drop_after_bad_read(key, e);
    return std::nullopt;
  }
}

void CasStore::put_wavefunctions(const std::string& key,
                                 const Wavefunctions& wf) {
  std::lock_guard<std::mutex> lk(mu_);
  commit_entry(
      key, CasKind::kWavefunctions,
      wavefunctions_file_bytes(wf.n_bands(), wf.n_pw()),
      [&](const std::string& tmp) { write_wavefunctions(tmp, wf); },
      [&](const std::string& tmp) {
        return bitwise_equal(read_wavefunctions(tmp), wf);
      });
}

std::optional<Wavefunctions> CasStore::get_wavefunctions(
    const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.kind != CasKind::kWavefunctions) {
    ++stats_.misses;
    count("miss");
    return std::nullopt;
  }
  try {
    Wavefunctions wf = read_wavefunctions(file_for(key, it->second.kind));
    it->second.seq = next_seq_++;
    ++stats_.hits;
    stats_.bytes_read += it->second.bytes;
    count("hit");
    return wf;
  } catch (const Error& e) {
    drop_after_bad_read(key, e);
    return std::nullopt;
  }
}

void CasStore::put_qp(const std::string& key, const QpResult& r) {
  std::lock_guard<std::mutex> lk(mu_);
  const ZMatrix m = encode_qp(r);
  commit_entry(
      key, CasKind::kQpRow, matrix_file_bytes(m.rows(), m.cols()),
      [&](const std::string& tmp) { write_matrix(tmp, m); },
      [&](const std::string& tmp) { return bitwise_equal(read_matrix(tmp), m); });
}

std::optional<QpResult> CasStore::get_qp(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.kind != CasKind::kQpRow) {
    ++stats_.misses;
    count("miss");
    return std::nullopt;
  }
  try {
    const QpResult r = decode_qp(read_matrix(file_for(key, it->second.kind)));
    it->second.seq = next_seq_++;
    ++stats_.hits;
    stats_.bytes_read += it->second.bytes;
    count("hit");
    return r;
  } catch (const Error& e) {
    drop_after_bad_read(key, e);
    return std::nullopt;
  }
}

}  // namespace xgw::serve
