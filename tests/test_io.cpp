// Tests: binary WFN / epsmat file formats (roundtrip, corruption
// detection, size accounting), the pluggable I/O hook seam, and the
// retry/backoff recovery layer.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/rng.h"
#include "io/binio.h"
#include "io/iohooks.h"
#include "mf/epm.h"
#include "mf/hamiltonian.h"
#include "mf/solver.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace xgw {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("xgw_io_test_") + name))
      .string();
}

struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() { std::remove(path.c_str()); }
  std::string path;
};

TEST(BinIo, MatrixRoundTripExact) {
  const std::string path = temp_path("mat.bin");
  FileGuard guard(path);
  Rng rng(1);
  ZMatrix m(17, 23);
  for (idx i = 0; i < m.size(); ++i) m.data()[i] = rng.normal_cplx();

  write_matrix(path, m);
  const ZMatrix back = read_matrix(path);
  ASSERT_EQ(back.rows(), 17);
  ASSERT_EQ(back.cols(), 23);
  for (idx i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], back.data()[i]);
}

TEST(BinIo, WavefunctionsRoundTripExact) {
  const std::string path = temp_path("wfn.bin");
  FileGuard guard(path);
  const PwHamiltonian h(EpmModel::silicon(1), 1.5);
  const Wavefunctions wf = solve_dense(h, 10);

  write_wavefunctions(path, wf);
  const Wavefunctions back = read_wavefunctions(path);
  EXPECT_EQ(back.n_bands(), wf.n_bands());
  EXPECT_EQ(back.n_pw(), wf.n_pw());
  EXPECT_EQ(back.n_valence, wf.n_valence);
  for (idx i = 0; i < wf.coeff.size(); ++i)
    EXPECT_EQ(back.coeff.data()[i], wf.coeff.data()[i]);
  for (std::size_t i = 0; i < wf.energy.size(); ++i)
    EXPECT_EQ(back.energy[i], wf.energy[i]);
}

TEST(BinIo, FileSizeMatchesAccounting) {
  const std::string path = temp_path("size.bin");
  FileGuard guard(path);
  ZMatrix m(5, 9);
  write_matrix(path, m);
  EXPECT_EQ(std::filesystem::file_size(path), matrix_file_bytes(5, 9));

  const PwHamiltonian h(EpmModel::silicon(1), 1.5);
  const Wavefunctions wf = solve_dense(h, 6);
  const std::string path2 = temp_path("size2.bin");
  FileGuard guard2(path2);
  write_wavefunctions(path2, wf);
  EXPECT_EQ(std::filesystem::file_size(path2),
            wavefunctions_file_bytes(wf.n_bands(), wf.n_pw()));
}

// The trailer is 64-bit FNV-1a over header + payload. Pinned to a golden
// value so files written by earlier builds keep verifying.
TEST(BinIo, ChecksumIsFnv1aOfHeaderAndPayload) {
  const std::string path = temp_path("checksum.bin");
  FileGuard guard(path);
  ZMatrix m(1, 2);
  m(0, 0) = cplx(1.0, -2.0);
  m(0, 1) = cplx(0.5, 0.25);
  write_matrix(path, m);
  std::ifstream f(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), matrix_file_bytes(1, 2));
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - 8, 8);
  EXPECT_EQ(stored, obs::fnv1a(std::string_view(bytes).substr(0, 64)));
  EXPECT_EQ(stored, 0x1c404c6717d2be4full);
}

TEST(BinIo, CorruptionDetected) {
  const std::string path = temp_path("corrupt.bin");
  FileGuard guard(path);
  Rng rng(2);
  ZMatrix m(8, 8);
  for (idx i = 0; i < m.size(); ++i) m.data()[i] = rng.normal_cplx();
  write_matrix(path, m);

  // Flip one payload byte.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(64);
    byte = static_cast<char>(byte ^ 0x1);
    f.write(&byte, 1);
  }
  EXPECT_THROW(read_matrix(path), Error);
}

TEST(BinIo, TruncationDetected) {
  const std::string path = temp_path("trunc.bin");
  FileGuard guard(path);
  ZMatrix m(8, 8);
  write_matrix(path, m);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW(read_matrix(path), Error);
}

TEST(BinIo, WrongKindDetected) {
  const std::string path = temp_path("kind.bin");
  FileGuard guard(path);
  ZMatrix m(4, 4);
  write_matrix(path, m);
  EXPECT_THROW(read_wavefunctions(path), Error);
}

TEST(BinIo, MissingFileThrows) {
  EXPECT_THROW(read_matrix(temp_path("does_not_exist.bin")), Error);
}

// --- negative paths must name the file and the byte offset ---------------
// A corrupt restart on a 9000-node run is only debuggable if the error says
// WHICH file failed and WHERE, not just that "a" checksum mismatched.

std::string error_message_of(const std::string& path) {
  try {
    read_matrix(path);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(BinIoNegative, TruncatedFileNamesPathAndOffset) {
  const std::string path = temp_path("neg_trunc.bin");
  FileGuard guard(path);
  ZMatrix m(8, 8);
  write_matrix(path, m);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  const std::string msg = error_message_of(path);
  ASSERT_FALSE(msg.empty()) << "expected read_matrix to throw";
  // Truncation is now caught up front by the header/file-size consistency
  // check (before any payload-sized allocation); the diagnostic names the
  // file and both byte counts.
  EXPECT_NE(msg.find("file-size mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("bytes"), std::string::npos) << msg;
}

TEST(BinIoNegative, FlippedChecksumByteNamesPathAndOffset) {
  const std::string path = temp_path("neg_cksum.bin");
  FileGuard guard(path);
  Rng rng(7);
  ZMatrix m(8, 8);
  for (idx i = 0; i < m.size(); ++i) m.data()[i] = rng.normal_cplx();
  write_matrix(path, m);

  // Flip one byte of the trailing FNV-1a checksum (the last 8 bytes).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const auto pos =
        static_cast<std::streamoff>(std::filesystem::file_size(path)) - 3;
    f.seekg(pos);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(pos);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }

  const std::string msg = error_message_of(path);
  ASSERT_FALSE(msg.empty()) << "expected read_matrix to throw";
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
}

TEST(BinIoNegative, WrongKindHeaderNamesPathAndKinds) {
  const std::string path = temp_path("neg_kind.bin");
  FileGuard guard(path);
  ZMatrix m(4, 4);
  write_matrix(path, m);

  std::string msg;
  try {
    read_wavefunctions(path);
  } catch (const Error& e) {
    msg = e.what();
  }
  ASSERT_FALSE(msg.empty()) << "expected read_wavefunctions to throw";
  EXPECT_NE(msg.find("wrong file kind"), std::string::npos) << msg;
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("byte offset 4"), std::string::npos) << msg;
}

TEST(BinIo, StagedWorkflowEpsmatReuse) {
  // The production pattern the "incl. I/O" rows measure: Epsilon writes
  // eps^{-1}, Sigma reads it back and proceeds.
  const std::string path = temp_path("epsmat.bin");
  FileGuard guard(path);
  Rng rng(3);
  ZMatrix epsinv(12, 12);
  for (idx i = 0; i < epsinv.size(); ++i)
    epsinv.data()[i] = rng.normal_cplx();
  write_matrix(path, epsinv);
  const ZMatrix staged = read_matrix(path);
  EXPECT_LT(max_abs_diff(epsinv, staged), 1e-300);
}

// --- untrusted headers ----------------------------------------------------
// The checksum sits after the payload, so a reader must never size an
// allocation from header fields alone: a single flipped bit in `rows`
// would otherwise demand a multi-GB buffer before any mismatch is seen.

TEST(BinIoNegative, FlippedHeaderDimensionRejectedBeforeAllocation) {
  const std::string path = temp_path("neg_dims.bin");
  FileGuard guard(path);
  ZMatrix m(8, 8);
  write_matrix(path, m);
  // Flip a high bit of `rows` (bytes 8..15): rows becomes astronomically
  // large while the file itself stays a few KB.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(14);
    char b = 0;
    f.read(&b, 1);
    f.seekp(14);
    b = static_cast<char>(b ^ 0x10);
    f.write(&b, 1);
  }
  try {
    read_matrix(path);
    FAIL() << "expected corrupt-header throw";
  } catch (const Error& e) {
    EXPECT_TRUE(is_corruption(e.kind())) << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(BinIoNegative, FlippedHeaderKindClassifiedAsCorruption) {
  const std::string path = temp_path("neg_kindflip.bin");
  FileGuard guard(path);
  write_matrix(path, ZMatrix(4, 4));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);  // the `kind` field
    char b = 0;
    f.read(&b, 1);
    f.seekp(4);
    b = static_cast<char>(b ^ 0x4);
    f.write(&b, 1);
  }
  try {
    read_matrix(path);
    FAIL() << "expected wrong-kind throw";
  } catch (const Error& e) {
    // Corruption, not kGeneric: the recovery layers (re-materialization,
    // checkpoint fallback) must be allowed to neutralize a flipped kind.
    EXPECT_TRUE(is_corruption(e.kind())) << e.what();
  }
}

// --- retry/backoff layer --------------------------------------------------

/// Restores the process-wide retry policy on scope exit.
struct ScopedRetryPolicy {
  explicit ScopedRetryPolicy(const io::IoRetryPolicy& p)
      : prev(io::io_retry_policy()) {
    io::set_io_retry_policy(p);
  }
  ~ScopedRetryPolicy() { io::set_io_retry_policy(prev); }
  io::IoRetryPolicy prev;
};

io::IoRetryPolicy test_policy(int attempts) {
  io::IoRetryPolicy p;
  p.max_attempts = attempts;
  p.backoff_base_s = 1e-5;
  p.sleep = false;  // virtual backoff only: tests never really wait
  return p;
}

TEST(IoRetry, BackoffIsDeterministicAndGrows) {
  const io::IoRetryPolicy p = test_policy(8);
  const std::string path = "some/file.xgw";
  double prev = 0.0;
  for (int failure = 0; failure < 6; ++failure) {
    const double a = io::io_backoff_s(p, path, failure);
    const double b = io::io_backoff_s(p, path, failure);
    EXPECT_EQ(a, b);       // pure function of (policy, path, failure#)
    EXPECT_GT(a, prev);    // exponential growth dominates the jitter band
    prev = a;
  }
  // Different paths draw different jitter.
  EXPECT_NE(io::io_backoff_s(p, "a.xgw", 3), io::io_backoff_s(p, "b.xgw", 3));
}

TEST(IoRetry, TransientFailuresRetriedAndCountedAsRecovered) {
  ScopedRetryPolicy scope(test_policy(5));
  const std::uint64_t recovered_before =
      obs::metrics().counter_value("fault/io/recovered/transient");
  int calls = 0;
  const int caught = io::io_retry_run("test_op", "x.xgw", false, [&] {
    if (++calls <= 2)
      throw Error("injected transient", ErrorKind::kIoTransient);
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(caught, 2);
  EXPECT_EQ(obs::metrics().counter_value("fault/io/recovered/transient"),
            recovered_before + 2);
}

TEST(IoRetry, ExhaustedBudgetRethrowsTheClassifiedError) {
  ScopedRetryPolicy scope(test_policy(3));
  int calls = 0;
  try {
    io::io_retry_run("test_op", "x.xgw", false, [&] {
      ++calls;
      throw Error("always transient", ErrorKind::kIoTransient);
    });
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIoTransient);
  }
  EXPECT_EQ(calls, 3);
}

TEST(IoRetry, CorruptionRetriedOnlyWhenAsked) {
  ScopedRetryPolicy scope(test_policy(4));
  int calls = 0;
  EXPECT_THROW(io::io_retry_run("w", "x.xgw", /*retry_corruption=*/false,
                                [&] {
                                  ++calls;
                                  throw Error("corrupt",
                                              ErrorKind::kIoCorrupt);
                                }),
               Error);
  EXPECT_EQ(calls, 1);  // write paths fail fast on corruption

  calls = 0;
  EXPECT_THROW(io::io_retry_run("r", "x.xgw", /*retry_corruption=*/true,
                                [&] {
                                  ++calls;
                                  throw Error("corrupt",
                                              ErrorKind::kIoCorrupt);
                                }),
               Error);
  EXPECT_EQ(calls, 4);  // read paths re-read: in-flight flips do recover
}

TEST(IoRetry, NoSpaceIsNeverRetried) {
  ScopedRetryPolicy scope(test_policy(5));
  int calls = 0;
  EXPECT_THROW(io::io_retry_run("w", "x.xgw", true, [&] {
                 ++calls;
                 throw Error("disk full", ErrorKind::kIoNoSpace);
               }),
               Error);
  // ENOSPC escalates immediately to the degradation handlers: retrying a
  // full filesystem only burns the backoff budget.
  EXPECT_EQ(calls, 1);
}

TEST(IoHooks, TornWriteLatchDropsTrailingBytes) {
  // A hook that tears one write short must leave a file whose checksum
  // disagrees with its contents — exactly like a real torn page.
  class TearOnce : public io::IoHooks {
   public:
    void before(const std::string&, io::IoOp, std::uint64_t,
                std::size_t) override {}
    std::size_t on_write(const std::string&, std::uint64_t offset,
                         unsigned char*, std::size_t n) override {
      if (offset > 0 && !torn_) {  // tear the payload, not the header
        torn_ = true;
        return n / 2;
      }
      return n;
    }

   private:
    bool torn_ = false;
  };

  const std::string path = temp_path("torn.bin");
  FileGuard guard(path);
  ZMatrix m(8, 8);
  {
    TearOnce hooks;
    io::ScopedIoHooks scope(&hooks);
    write_matrix(path, m);
  }
  EXPECT_LT(std::filesystem::file_size(path), matrix_file_bytes(8, 8));
  try {
    read_matrix(path);
    FAIL() << "expected truncation throw";
  } catch (const Error& e) {
    EXPECT_TRUE(is_corruption(e.kind())) << e.what();
  }
}

}  // namespace
}  // namespace xgw
