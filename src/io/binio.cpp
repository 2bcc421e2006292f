#include "io/binio.h"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "io/iohooks.h"
#include "obs/metrics.h"

namespace xgw {

namespace {

using io::HookedFileReader;
using io::HookedFileWriter;

constexpr char kMagic[4] = {'X', 'G', 'W', '1'};
constexpr std::uint32_t kKindMatrix = 1;
constexpr std::uint32_t kKindWavefunctions = 2;

struct Header {
  char magic[4];
  std::uint32_t kind;
  std::int64_t rows;
  std::int64_t cols;
  std::int64_t payload_bytes;
};
static_assert(sizeof(Header) == 32, "header must be 32 bytes");

// Checksummed binio writer over the hook-aware file primitive. The FNV-1a
// hash is computed over the INTENDED bytes before the hooks see them: an
// injected silent bit-flip or torn write therefore leaves a file whose
// stored checksum disagrees with its contents, exactly like real at-rest
// corruption — readers detect it, they never trust it.
class Writer {
 public:
  explicit Writer(const std::string& path) : file_(path) {}

  void put(const void* data, std::size_t n) {
    hash_ = obs::fnv1a({static_cast<const char*>(data), n}, hash_);
    file_.put(data, n);
  }

  void finish() {
    const std::uint64_t h = hash_;
    file_.put(&h, sizeof(h));
    file_.finish();
  }

 private:
  HookedFileWriter file_;
  std::uint64_t hash_ = obs::kFnv1aBasis;
};

// Every read error names the file and the byte offset where the read
// started — a run that dies on a corrupt input file must tell the
// operator WHICH file and WHERE, not just that "a" checksum failed. Errors
// carry ErrorKind so the recovery layers can classify without parsing.
class Reader {
 public:
  explicit Reader(const std::string& path) : file_(path) {}

  void get(void* data, std::size_t n) {
    file_.get(data, n);
    hash_ = obs::fnv1a({static_cast<const char*>(data), n}, hash_);
  }

  void verify_checksum() {
    std::uint64_t stored = 0;
    const std::uint64_t computed = hash_;
    const std::size_t got = file_.get_some(&stored, sizeof(stored));
    XGW_REQUIRE_KIND(got == sizeof(stored),
                     "binio: missing checksum: '" + file_.path() +
                         "' at byte offset " + std::to_string(file_.offset()),
                     ErrorKind::kIoTruncated);
    XGW_REQUIRE_KIND(stored == computed,
                     "binio: checksum mismatch (corrupt file): '" +
                         file_.path() + "': payload of " +
                         std::to_string(file_.offset() - sizeof(stored)) +
                         " bytes hashes to " + std::to_string(computed) +
                         ", file stores " + std::to_string(stored),
                     ErrorKind::kIoCorrupt);
  }

  const std::string& path() const noexcept { return file_.path(); }
  std::size_t offset() const noexcept {
    return static_cast<std::size_t>(file_.offset());
  }

 private:
  HookedFileReader file_;
  std::uint64_t hash_ = obs::kFnv1aBasis;
};

Header make_header(std::uint32_t kind, idx rows, idx cols,
                   std::int64_t payload) {
  Header h{};
  std::memcpy(h.magic, kMagic, 4);
  h.kind = kind;
  h.rows = rows;
  h.cols = cols;
  h.payload_bytes = payload;
  return h;
}

/// True iff rows*cols*unit == want, computed without overflow. The header
/// fields are untrusted bytes: a corrupt rows of 2^60 must fail this check,
/// not wrap the multiplication.
bool product_matches(std::int64_t rows, std::int64_t cols, std::int64_t unit,
                     std::int64_t want) {
  if (want < 0 || want % unit != 0) return false;
  const std::int64_t cells = want / unit;
  if (rows == 0 || cols == 0) return cells == 0;
  return cells % rows == 0 && cells / rows == cols;
}

// The checksum that proves a file honest sits AFTER the payload, so a reader
// must not size any allocation from header fields alone — a single flipped
// bit in `rows` would otherwise demand a multi-GB buffer before the
// mismatch is ever detected (found by the storage-fault chaos harness).
// Every header is therefore proven consistent with the one fact the
// filesystem provides up front: the actual file size.
Header read_header(Reader& r, std::uint32_t expected_kind,
                   std::uint64_t extra_bytes) {
  Header h{};
  r.get(&h, sizeof(h));
  XGW_REQUIRE_KIND(std::memcmp(h.magic, kMagic, 4) == 0,
                   "binio: bad magic (not an xgw file): '" + r.path() +
                       "' at byte offset 0",
                   ErrorKind::kIoCorrupt);
  XGW_REQUIRE_KIND(h.kind == expected_kind,
                   "binio: wrong file kind: '" + r.path() +
                       "' at byte offset 4: expected kind " +
                       std::to_string(expected_kind) + ", file has kind " +
                       std::to_string(h.kind),
                   ErrorKind::kIoCorrupt);
  XGW_REQUIRE_KIND(h.rows >= 0 && h.cols >= 0 && h.payload_bytes >= 0,
                   "binio: bad dimensions: '" + r.path() +
                       "' at byte offset 8",
                   ErrorKind::kIoCorrupt);
  std::error_code ec;
  const std::uint64_t actual = std::filesystem::file_size(r.path(), ec);
  const std::uint64_t expected =
      sizeof(Header) + extra_bytes +
      static_cast<std::uint64_t>(h.payload_bytes) + sizeof(std::uint64_t);
  XGW_REQUIRE_KIND(!ec && actual == expected,
                   "binio: header/file-size mismatch: '" + r.path() +
                       "': header implies " + std::to_string(expected) +
                       " bytes, file has " +
                       (ec ? ec.message() : std::to_string(actual)),
                   ErrorKind::kIoCorrupt);
  return h;
}

}  // namespace

void write_matrix(const std::string& path, const ZMatrix& m) {
  io::io_retry_run("write_matrix", path, /*retry_corruption=*/false, [&] {
    Writer w(path);
    const std::int64_t payload = static_cast<std::int64_t>(m.size()) *
                                 static_cast<std::int64_t>(sizeof(cplx));
    const Header h = make_header(kKindMatrix, m.rows(), m.cols(), payload);
    w.put(&h, sizeof(h));
    w.put(m.data(), static_cast<std::size_t>(payload));
    w.finish();
  });
}

ZMatrix read_matrix(const std::string& path) {
  ZMatrix m;
  // Corruption IS retryable here: a failed read attempt re-reads the file
  // from scratch, which recovers transient in-flight flips (at-rest
  // corruption keeps failing and surfaces to the re-materialization /
  // fallback layers above).
  io::io_retry_run("read_matrix", path, /*retry_corruption=*/true, [&] {
    Reader r(path);
    const Header h = read_header(r, kKindMatrix, 0);
    XGW_REQUIRE_KIND(product_matches(h.rows, h.cols,
                                     static_cast<std::int64_t>(sizeof(cplx)),
                                     h.payload_bytes),
                     "binio: payload size mismatch: '" + path +
                         "' at byte offset 16",
                     ErrorKind::kIoCorrupt);
    m = ZMatrix(h.rows, h.cols);
    r.get(m.data(), static_cast<std::size_t>(h.payload_bytes));
    r.verify_checksum();
  });
  return m;
}

void write_wavefunctions(const std::string& path, const Wavefunctions& wf) {
  io::io_retry_run("write_wavefunctions", path, /*retry_corruption=*/false,
                   [&] {
    Writer w(path);
    const std::int64_t coeff_bytes =
        static_cast<std::int64_t>(wf.coeff.size()) *
        static_cast<std::int64_t>(sizeof(cplx));
    const std::int64_t energy_bytes =
        static_cast<std::int64_t>(wf.energy.size()) *
        static_cast<std::int64_t>(sizeof(double));
    const Header h = make_header(kKindWavefunctions, wf.n_bands(), wf.n_pw(),
                                 coeff_bytes + energy_bytes);
    w.put(&h, sizeof(h));
    const std::int64_t nval = wf.n_valence;
    w.put(&nval, sizeof(nval));
    w.put(wf.coeff.data(), static_cast<std::size_t>(coeff_bytes));
    w.put(wf.energy.data(), static_cast<std::size_t>(energy_bytes));
    w.finish();
  });
}

Wavefunctions read_wavefunctions(const std::string& path) {
  Wavefunctions wf;
  io::io_retry_run("read_wavefunctions", path, /*retry_corruption=*/true,
                   [&] {
    Reader r(path);
    const Header h = read_header(r, kKindWavefunctions, sizeof(std::int64_t));
    std::int64_t nval = 0;
    r.get(&nval, sizeof(nval));
    XGW_REQUIRE_KIND(nval >= 0 && nval <= h.rows,
                     "binio: bad n_valence: '" + path + "' at byte offset 32",
                     ErrorKind::kIoCorrupt);
    // rows <= payload/8 (energy array alone needs rows*8 bytes), so the
    // products below cannot overflow once this holds.
    XGW_REQUIRE_KIND(
        h.rows <= h.payload_bytes / static_cast<std::int64_t>(sizeof(double)) &&
            product_matches(h.rows, h.cols,
                            static_cast<std::int64_t>(sizeof(cplx)),
                            h.payload_bytes -
                                h.rows *
                                    static_cast<std::int64_t>(sizeof(double))),
        "binio: payload size mismatch: '" + path + "' at byte offset 16",
        ErrorKind::kIoCorrupt);
    wf = Wavefunctions();
    wf.coeff = ZMatrix(h.rows, h.cols);
    wf.energy.resize(static_cast<std::size_t>(h.rows));
    wf.n_valence = nval;
    r.get(wf.coeff.data(),
          static_cast<std::size_t>(wf.coeff.size()) * sizeof(cplx));
    r.get(wf.energy.data(), wf.energy.size() * sizeof(double));
    r.verify_checksum();
  });
  return wf;
}

std::size_t matrix_file_bytes(idx rows, idx cols) {
  return sizeof(Header) + static_cast<std::size_t>(rows * cols) * sizeof(cplx) +
         sizeof(std::uint64_t);
}

std::size_t wavefunctions_file_bytes(idx n_bands, idx n_pw) {
  return sizeof(Header) + sizeof(std::int64_t) +
         static_cast<std::size_t>(n_bands * n_pw) * sizeof(cplx) +
         static_cast<std::size_t>(n_bands) * sizeof(double) +
         sizeof(std::uint64_t);
}

std::string restart_item_path(const std::string& dir, const std::string& item,
                              const RestartKey& key) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  XGW_REQUIRE_KIND(!ec,
                   "restart: cannot create checkpoint directory '" + dir +
                       "': " + ec.message(),
                   ErrorKind::kValidation);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, key.value());
  return (std::filesystem::path(dir) / (item + "-" + hex + ".bin")).string();
}

std::optional<ZMatrix> load_restart_item(const std::string& path, idx rows,
                                         idx cols) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;  // not written yet
  try {
    // The expected size is known up front, so a short file is named for
    // what it is — a torn write — before binio reads any of it.
    const std::size_t want = matrix_file_bytes(rows, cols);
    XGW_REQUIRE_KIND(size == want,
                     "restart: '" + path + "' has " + std::to_string(size) +
                         " bytes, a " + std::to_string(rows) + "x" +
                         std::to_string(cols) + " item file has " +
                         std::to_string(want),
                     size < want ? ErrorKind::kIoTruncated
                                 : ErrorKind::kIoCorrupt);
    ZMatrix m = read_matrix(path);
    XGW_REQUIRE_KIND(m.rows() == rows && m.cols() == cols,
                     "restart: '" + path + "' holds a " +
                         std::to_string(m.rows()) + "x" +
                         std::to_string(m.cols()) + " matrix, expected " +
                         std::to_string(rows) + "x" + std::to_string(cols),
                     ErrorKind::kIoCorrupt);
    obs::metrics().counter("checkpoint.loads").inc();
    return m;
  } catch (const Error& e) {
    if (e.kind() == ErrorKind::kGeneric || e.kind() == ErrorKind::kValidation)
      throw;
    log_warn("restart: recomputing the item of unusable file ", path, ": ",
             e.what());
    std::filesystem::remove(path, ec);
    io::publish_recovered(e.kind());
    return std::nullopt;
  }
}

void save_restart_item(const std::string& path, const ZMatrix& m) {
  try {
    write_matrix(path, m);
  } catch (const Error& e) {
    if (e.kind() == ErrorKind::kGeneric || e.kind() == ErrorKind::kValidation)
      throw;
    // A partial file must not outlive the skip: it would resurface on
    // resume as a torn file that no fault ever tore.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    log_warn("restart: SKIPPING ", path, " (",
             matrix_file_bytes(m.rows(), m.cols()), " bytes): ", e.what(),
             " -- the loop continues; this item is recomputed if the run "
             "is resumed");
    obs::metrics().counter("checkpoint/skipped").inc();
    io::publish_recovered(e.kind());
    return;
  }
  obs::metrics().counter("checkpoint.writes").inc();
  obs::metrics()
      .counter("checkpoint.bytes")
      .add(matrix_file_bytes(m.rows(), m.cols()));
}

}  // namespace xgw
