// Tests: per-item restart files (io/binio RestartKey, load_restart_item,
// save_restart_item) and bitwise-identical resume of the epsilon frequency
// loop and the sigma band loop after a simulated job kill, at one and four
// scheduler workers, under storage faults and under changed physics.
//
// A job kill is simulated through the io::IoHooks seam: KillHook fails one
// item's restart write with a non-storage error, so the loop dies there
// the way a killed process never finishes that item.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/epsilon.h"
#include "core/sigma.h"
#include "io/binio.h"
#include "io/iohooks.h"
#include "obs/metrics.h"
#include "runtime/fault.h"
#include "sched/executor.h"
#include "test_helpers.h"

namespace xgw {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty restart directory, removed with its contents on scope exit.
struct TempDir {
  explicit TempDir(const char* name)
      : path((fs::temp_directory_path() / (std::string("xgw_restart_") + name))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

/// Pins the scheduler's default worker count for one scope.
struct Workers {
  explicit Workers(int n) { sched::Executor::set_default_workers(n); }
  ~Workers() { sched::Executor::set_default_workers(0); }
};

/// Fails the restart write of the first item whose path contains `needle`
/// with a non-storage error (a simulated job kill). Every other operation
/// is forwarded to `inner` (a fault injector, or nothing).
class KillHook : public io::IoHooks {
 public:
  explicit KillHook(std::string needle, io::IoHooks* inner = nullptr)
      : needle_(std::move(needle)), inner_(inner) {}

  void before(const std::string& path, io::IoOp op, std::uint64_t offset,
              std::size_t bytes) override {
    if (op == io::IoOp::kOpenWrite && path.find(needle_) != std::string::npos)
      throw Error("simulated job kill before writing '" + path + "'");
    if (inner_) inner_->before(path, op, offset, bytes);
  }
  std::size_t on_write(const std::string& path, std::uint64_t offset,
                       unsigned char* data, std::size_t n) override {
    return inner_ ? inner_->on_write(path, offset, data, n) : n;
  }

 private:
  std::string needle_;
  io::IoHooks* inner_;
};

/// Names of the files in `dir`, sorted.
std::vector<std::string> files_in(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir))
    out.push_back(e.path().filename().string());
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t counter(const char* name) {
  return obs::metrics().counter_value(name);
}

void corrupt_byte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(offset);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(offset);
  f.write(&b, 1);
}

ZMatrix sample_matrix(idx rows, idx cols) {
  ZMatrix m(rows, cols);
  for (idx i = 0; i < m.size(); ++i)
    m.data()[i] = cplx(0.25 * static_cast<double>(i), -1.0 / (1.0 + i));
  return m;
}

void expect_bitwise(const std::vector<ZMatrix>& got,
                    const std::vector<ZMatrix>& ref) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    ASSERT_EQ(got[k].rows(), ref[k].rows());
    for (idx i = 0; i < ref[k].size(); ++i)
      ASSERT_EQ(got[k].data()[i], ref[k].data()[i])
          << "omega index " << k << ", element " << i;
  }
}

void expect_bitwise(const std::vector<QpResult>& got,
                    const std::vector<QpResult>& ref) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].band, ref[i].band);
    EXPECT_EQ(got[i].e_mf, ref[i].e_mf);
    EXPECT_EQ(got[i].sigma.sx, ref[i].sigma.sx);
    EXPECT_EQ(got[i].sigma.ch, ref[i].sigma.ch);
    EXPECT_EQ(got[i].dsigma_de, ref[i].dsigma_de);
    EXPECT_EQ(got[i].z, ref[i].z);
    EXPECT_EQ(got[i].e_qp, ref[i].e_qp);
  }
}

// --- one restart file ------------------------------------------------------

TEST(Checkpoint, RoundTripExact) {
  TempDir dir("roundtrip");
  const std::string path =
      restart_item_path(dir.path, "eps-0", RestartKey().add(1.5));
  const ZMatrix m = sample_matrix(4, 4);
  const std::uint64_t writes = counter("checkpoint.writes");
  const std::uint64_t bytes = counter("checkpoint.bytes");
  const std::uint64_t loads = counter("checkpoint.loads");
  save_restart_item(path, m);
  EXPECT_EQ(counter("checkpoint.writes"), writes + 1);
  EXPECT_EQ(counter("checkpoint.bytes"), bytes + matrix_file_bytes(4, 4));
  EXPECT_EQ(fs::file_size(path), matrix_file_bytes(4, 4));

  const std::optional<ZMatrix> back = load_restart_item(path, 4, 4);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(counter("checkpoint.loads"), loads + 1);
  for (idx i = 0; i < m.size(); ++i) EXPECT_EQ(back->data()[i], m.data()[i]);

  // A Sigma band item: one QP row through the encode_qp codec.
  QpResult r;
  r.band = 3;
  r.e_mf = 0.3854213698471126;
  r.sigma.sx = cplx(-0.034, 1e-17);
  r.sigma.ch = cplx(-0.2658441172956, -3e-9);
  r.dsigma_de = -0.350694;
  r.z = 0.740348538175915;
  r.e_qp = 0.16321117264590416;
  const std::string row =
      restart_item_path(dir.path, "sigma-3", RestartKey().add(r.band));
  save_restart_item(row, encode_qp(r));
  const std::optional<ZMatrix> got = load_restart_item(row, 1, 5);
  ASSERT_TRUE(got.has_value());
  expect_bitwise({decode_qp(*got)}, {r});
}

TEST(Checkpoint, ReaderRejectsOverrun) {
  // A QP row is exactly five complex slots; anything else is not a record.
  EXPECT_THROW(decode_qp(ZMatrix(1, 4)), Error);
  EXPECT_THROW(decode_qp(ZMatrix(5, 1)), Error);
  EXPECT_NO_THROW(decode_qp(ZMatrix(1, 5)));
}

TEST(Checkpoint, MissingFileLoadsNothing) {
  TempDir dir("missing");
  const std::uint64_t torn = counter("fault/io/recovered/torn");
  const std::uint64_t flip = counter("fault/io/recovered/bitflip");
  EXPECT_FALSE(load_restart_item(dir.path + "/never_written.bin", 2, 2));
  // A missing item is simply not done yet: no fault to account.
  EXPECT_EQ(counter("fault/io/recovered/torn"), torn);
  EXPECT_EQ(counter("fault/io/recovered/bitflip"), flip);
}

TEST(Checkpoint, VersionMismatchRejected) {
  TempDir dir("version");
  // A file of the retired XGWC checkpoint container is not read.
  const std::string old = dir.path + "/eps-0-old.bin";
  {
    std::ofstream f(old, std::ios::binary);
    const char header[48] = {'X', 'G', 'W', 'C', 1};
    f.write(header, sizeof(header));
  }
  EXPECT_FALSE(load_restart_item(old, 15, 15));
  EXPECT_FALSE(fs::exists(old));

  // Nor is a binio file of the wrong shape (same byte count, 5x1 not 1x5).
  const std::string row = dir.path + "/sigma-2-shape.bin";
  write_matrix(row, sample_matrix(5, 1));
  EXPECT_FALSE(load_restart_item(row, 1, 5));
  EXPECT_FALSE(fs::exists(row));
}

TEST(Checkpoint, TruncationDetected) {
  TempDir dir("trunc");
  const std::string path = dir.path + "/eps-0-trunc.bin";
  for (std::uintmax_t cut : {7u, 1u}) {
    save_restart_item(path, sample_matrix(3, 3));
    fs::resize_file(path, matrix_file_bytes(3, 3) - cut);
    const std::uint64_t torn = counter("fault/io/recovered/torn");
    EXPECT_FALSE(load_restart_item(path, 3, 3)) << "cut " << cut;
    EXPECT_EQ(counter("fault/io/recovered/torn"), torn + 1);
    EXPECT_FALSE(fs::exists(path));  // never re-read on the next resume
  }
}

TEST(Checkpoint, PayloadBitFlipDetected) {
  TempDir dir("bitflip");
  const std::string path = dir.path + "/eps-0-flip.bin";
  save_restart_item(path, sample_matrix(3, 3));
  corrupt_byte(path, 32 + 40);  // inside the payload, after the header
  const std::uint64_t flip = counter("fault/io/recovered/bitflip");
  EXPECT_FALSE(load_restart_item(path, 3, 3));
  EXPECT_EQ(counter("fault/io/recovered/bitflip"), flip + 1);
}

TEST(Checkpoint, FallbackPublishesRecoveryMetrics) {
  // Each damaged file falls back to recomputing its item and is accounted
  // exactly once, whether it is read once or the run is resumed again.
  TempDir dir("fallback_obs");
  const std::string a = dir.path + "/eps-0-a.bin";
  const std::string b = dir.path + "/eps-1-b.bin";
  save_restart_item(a, sample_matrix(2, 2));
  save_restart_item(b, sample_matrix(2, 2));
  corrupt_byte(a, 40);
  fs::resize_file(b, 20);
  const std::uint64_t flip = counter("fault/io/recovered/bitflip");
  const std::uint64_t torn = counter("fault/io/recovered/torn");
  for (int resume = 0; resume < 2; ++resume) {
    EXPECT_FALSE(load_restart_item(a, 2, 2));
    EXPECT_FALSE(load_restart_item(b, 2, 2));
  }
  EXPECT_EQ(counter("fault/io/recovered/bitflip"), flip + 1);
  EXPECT_EQ(counter("fault/io/recovered/torn"), torn + 1);
}

TEST(Checkpoint, BestEffortSaveSkipsOnNoSpaceAndKeepsOldGeneration) {
  TempDir dir("besteffort");
  const std::string kept = dir.path + "/eps-0-kept.bin";
  const std::string full = dir.path + "/eps-1-full.bin";
  save_restart_item(kept, sample_matrix(2, 2));

  IoFaultSpec spec;
  spec.seed = 21;
  spec.p_nospace = 1.0;  // the restart filesystem is full for this file
  spec.max_per_path = 100;
  spec.path_contains = "eps-1-full";
  IoFaultInjector inj(spec);
  const std::uint64_t skipped = counter("checkpoint/skipped");
  const std::uint64_t injected = counter("fault/io/injected/nospace");
  const std::uint64_t recovered = counter("fault/io/recovered/nospace");
  {
    io::ScopedIoHooks hooks(&inj);
    EXPECT_NO_THROW(save_restart_item(full, sample_matrix(2, 2)));
  }
  EXPECT_EQ(counter("checkpoint/skipped"), skipped + 1);
  EXPECT_EQ(counter("fault/io/injected/nospace") - injected,
            counter("fault/io/recovered/nospace") - recovered);
  EXPECT_FALSE(fs::exists(full));
  // Restart coverage degrades by one item; the items already written stay.
  EXPECT_TRUE(load_restart_item(kept, 2, 2).has_value());
}

TEST(Checkpoint, RemoveCleansAllGenerations) {
  // A completed loop removes every item file it owns, and only those.
  GwCalculation& gw = testutil::si_prim_gw();
  TempDir dir("remove");
  const std::string foreign = dir.path + "/notes.txt";
  std::ofstream(foreign) << "not a restart item\n";
  const std::vector<double> omegas = {0.0, 0.1, 0.2};
  const std::uint64_t writes = counter("checkpoint.writes");
  epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                        std::span<const double>(omegas), {}, dir.path);
  gw.sigma_diag({2, 3}, 3, 0.02, GppKernelVariant::kOptimized, nullptr,
                dir.path);
  EXPECT_EQ(counter("checkpoint.writes"), writes + 5);  // 3 freqs + 2 bands
  EXPECT_EQ(files_in(dir.path), std::vector<std::string>{"notes.txt"});
}

// --- resume acceptance: interrupted loops restart bitwise ----------------

/// Kills the epsilon sweep at frequency `kill_at` under `workers` workers,
/// then resumes it and checks the result and the files it loaded.
void epsilon_kill_and_resume(int workers, idx kill_at, const char* name) {
  GwCalculation& gw = testutil::si_prim_gw();
  const std::vector<double> omegas = {0.0, 0.08, 0.16, 0.24, 0.32};
  ChiOptions copt;
  copt.nv_block = 2;
  Workers w(workers);

  // Ground truth: the uninterrupted sweep without restart files.
  const std::vector<ZMatrix> ref =
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(omegas), copt);

  TempDir dir(name);
  {
    KillHook kill("eps-" + std::to_string(kill_at) + "-");
    io::ScopedIoHooks hooks(&kill);
    EXPECT_THROW(epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(),
                                       gw.coulomb(),
                                       std::span<const double>(omegas), copt,
                                       dir.path),
                 Error);
  }
  const std::size_t survived = files_in(dir.path).size();
  if (workers == 1) {
    EXPECT_EQ(survived, static_cast<std::size_t>(kill_at));
  }
  EXPECT_LT(survived, omegas.size());

  // Restarted run: loads every surviving frequency, computes the rest.
  const std::uint64_t loads = counter("checkpoint.loads");
  const std::vector<ZMatrix> resumed =
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(omegas), copt, dir.path);
  EXPECT_EQ(counter("checkpoint.loads") - loads, survived);
  expect_bitwise(resumed, ref);
  // Successful completion cleans up the restart files.
  EXPECT_TRUE(files_in(dir.path).empty());
}

TEST(CheckpointResume, EpsilonFrequencyLoopResumesBitwise) {
  epsilon_kill_and_resume(1, 2, "eps_resume");
}

// The same interrupted sweep with the frequencies running on four
// scheduler workers: whichever frequencies finished before the kill are
// resumed from, in any combination, and the result is still bitwise.
TEST(CheckpointResume, EpsilonFrequencyLoopResumesBitwiseAtFourWorkers) {
  epsilon_kill_and_resume(4, 2, "eps_resume_w4");
}

TEST(CheckpointResume, EpsilonResumesFromAnySubsetOfItemFiles) {
  GwCalculation& gw = testutil::si_prim_gw();
  const std::vector<double> omegas = {0.0, 0.08, 0.16, 0.24, 0.32};
  Workers w(1);
  const std::vector<ZMatrix> ref =
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(omegas));
  TempDir dir("eps_subset");
  {
    KillHook kill("eps-4-");
    io::ScopedIoHooks hooks(&kill);
    EXPECT_THROW(epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(),
                                       gw.coulomb(),
                                       std::span<const double>(omegas), {},
                                       dir.path),
                 Error);
  }
  std::vector<std::string> files = files_in(dir.path);
  ASSERT_EQ(files.size(), 4u);
  fs::remove(fs::path(dir.path) / files[0]);  // drop frequencies 0 and 2
  fs::remove(fs::path(dir.path) / files[2]);
  const std::uint64_t loads = counter("checkpoint.loads");
  expect_bitwise(
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(omegas), {}, dir.path),
      ref);
  EXPECT_EQ(counter("checkpoint.loads") - loads, 2u);
}

TEST(CheckpointResume, EpsilonConfigChangeStartsFresh) {
  GwCalculation& gw = testutil::si_prim_gw();
  ChiOptions copt;
  copt.nv_block = 2;
  TempDir dir("eps_cfg");
  const std::vector<double> grid_a = {0.0, 0.1, 0.2};
  {
    KillHook kill("eps-2-");
    io::ScopedIoHooks hooks(&kill);
    EXPECT_THROW(epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(),
                                       gw.coulomb(),
                                       std::span<const double>(grid_a), copt,
                                       dir.path),
                 Error);
  }

  // A different frequency grid must NOT splice in the stale items.
  const std::vector<double> grid_b = {0.05, 0.15, 0.2};
  const std::vector<ZMatrix> fresh =
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(grid_b), copt, dir.path);
  const std::vector<ZMatrix> ref =
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(grid_b), copt);
  expect_bitwise(fresh, ref);
}

// The restart identity covers the physics: a sweep killed at one
// broadening and resumed at another must equal a fresh run at the new one.
TEST(CheckpointResume, EpsilonResumeUnderChangedEtaMatchesFreshRun) {
  GwCalculation& gw = testutil::si_prim_gw();
  const std::vector<double> omegas = {0.0, 0.1, 0.2};
  ChiOptions before;
  before.eta = 1e-3;
  ChiOptions after = before;
  after.eta = 5e-2;
  Workers w(1);
  TempDir dir("eps_eta");
  {
    KillHook kill("eps-2-");
    io::ScopedIoHooks hooks(&kill);
    EXPECT_THROW(epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(),
                                       gw.coulomb(),
                                       std::span<const double>(omegas), before,
                                       dir.path),
                 Error);
  }
  ASSERT_EQ(files_in(dir.path).size(), 2u);

  const std::vector<ZMatrix> fresh =
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(omegas), after);
  const std::vector<ZMatrix> stale =
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(omegas), before);
  ASSERT_NE(fresh[0](0, 0), stale[0](0, 0));  // eta really moves the bits
  const std::uint64_t loads = counter("checkpoint.loads");
  expect_bitwise(
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(omegas), after, dir.path),
      fresh);
  EXPECT_EQ(counter("checkpoint.loads"), loads);
}

/// Kills the band loop at band `kill_band` under `workers` workers, then
/// resumes it and checks the result and the files it loaded.
void sigma_kill_and_resume(int workers, idx kill_band, const char* name) {
  GwCalculation& gw = testutil::si_prim_gw();
  const std::vector<idx> bands = {2, 3, 4, 5};
  Workers w(workers);
  const std::vector<QpResult> ref = gw.sigma_diag(bands, 3, 0.02);

  TempDir dir(name);
  {
    KillHook kill("sigma-" + std::to_string(kill_band) + "-");
    io::ScopedIoHooks hooks(&kill);
    EXPECT_THROW(gw.sigma_diag(bands, 3, 0.02, GppKernelVariant::kOptimized,
                               nullptr, dir.path),
                 Error);
  }
  const std::size_t survived = files_in(dir.path).size();
  if (workers == 1) {
    EXPECT_EQ(survived, 2u);  // bands 2 and 3
  }
  EXPECT_LT(survived, bands.size());

  const std::uint64_t loads = counter("checkpoint.loads");
  const std::vector<QpResult> resumed = gw.sigma_diag(
      bands, 3, 0.02, GppKernelVariant::kOptimized, nullptr, dir.path);
  EXPECT_EQ(counter("checkpoint.loads") - loads, survived);
  expect_bitwise(resumed, ref);
  EXPECT_TRUE(files_in(dir.path).empty());
}

TEST(CheckpointResume, SigmaBandLoopResumesBitwise) {
  sigma_kill_and_resume(1, 4, "sigma_resume");
}

TEST(CheckpointResume, SigmaBandLoopResumesBitwiseAtFourWorkers) {
  sigma_kill_and_resume(4, 4, "sigma_resume_w4");
}

TEST(CheckpointResume, SigmaLoopRecomputesOnlyTheCorruptedBand) {
  // One band file is damaged at rest: the resumed loop loads the others,
  // recomputes that band alone (publishing one recovered mark) and changes
  // no bits.
  GwCalculation& gw = testutil::si_prim_gw();
  const std::vector<idx> bands = {2, 3, 4, 5};
  Workers w(1);
  const std::vector<QpResult> ref = gw.sigma_diag(bands, 3, 0.02);

  TempDir dir("sigma_corrupt");
  {
    KillHook kill("sigma-5-");
    io::ScopedIoHooks hooks(&kill);
    EXPECT_THROW(gw.sigma_diag(bands, 3, 0.02, GppKernelVariant::kOptimized,
                               nullptr, dir.path),
                 Error);
  }
  const std::vector<std::string> files = files_in(dir.path);
  ASSERT_EQ(files.size(), 3u);
  corrupt_byte((fs::path(dir.path) / files[1]).string(), 40);

  const std::uint64_t flip = counter("fault/io/recovered/bitflip");
  const std::uint64_t loads = counter("checkpoint.loads");
  expect_bitwise(gw.sigma_diag(bands, 3, 0.02, GppKernelVariant::kOptimized,
                               nullptr, dir.path),
                 ref);
  EXPECT_EQ(counter("fault/io/recovered/bitflip"), flip + 1);
  EXPECT_EQ(counter("checkpoint.loads") - loads, 2u);
}

TEST(CheckpointResume, SigmaResumeUnderChangedEtaMatchesFreshRun) {
  GwParameters p;
  p.eps_cutoff = 0.9;
  p.eta = 1e-3;
  GwCalculation killed(EpmModel::silicon(1), p);
  p.eta = 5e-2;
  GwCalculation resumed(EpmModel::silicon(1), p);
  GwCalculation fresh(EpmModel::silicon(1), p);
  const std::vector<idx> bands = {2, 3, 4, 5};
  Workers w(1);

  TempDir dir("sigma_eta");
  {
    KillHook kill("sigma-4-");
    io::ScopedIoHooks hooks(&kill);
    EXPECT_THROW(killed.sigma_diag(bands, 3, 0.02,
                                   GppKernelVariant::kOptimized, nullptr,
                                   dir.path),
                 Error);
  }
  ASSERT_EQ(files_in(dir.path).size(), 2u);

  const std::vector<QpResult> ref = fresh.sigma_diag(bands, 3, 0.02);
  ASSERT_NE(ref[0].e_qp, killed.sigma_diag({2}, 3, 0.02)[0].e_qp);
  const std::uint64_t loads = counter("checkpoint.loads");
  expect_bitwise(resumed.sigma_diag(bands, 3, 0.02,
                                    GppKernelVariant::kOptimized, nullptr,
                                    dir.path),
                 ref);
  EXPECT_EQ(counter("checkpoint.loads"), loads);
}

// --- the fault ledger ------------------------------------------------------

/// Runs a killed-then-resumed epsilon sweep whose restart write of
/// frequency 1 is damaged by an injected `kind` fault; the resume must
/// recompute that frequency alone and balance the ledger.
void epsilon_damaged_item(int workers, IoFaultKind kind, const char* name) {
  GwCalculation& gw = testutil::si_prim_gw();
  const std::vector<double> omegas = {0.0, 0.08, 0.16, 0.24};
  Workers w(workers);
  const std::vector<ZMatrix> ref =
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(omegas));

  IoFaultSpec spec;
  spec.seed = 7;
  (kind == IoFaultKind::kTorn ? spec.p_torn : spec.p_bitflip) = 1.0;
  spec.max_per_path = 1;
  spec.path_contains = "eps-1-";
  IoFaultInjector inj(spec);
  const std::string injected_name =
      std::string("fault/io/injected/") + to_string(kind);
  const std::string recovered_name =
      std::string("fault/io/recovered/") +
      (kind == IoFaultKind::kTorn ? "torn" : "bitflip");
  const std::uint64_t injected = counter(injected_name.c_str());
  const std::uint64_t recovered = counter(recovered_name.c_str());

  TempDir dir(name);
  {
    KillHook kill("eps-3-", &inj);
    io::ScopedIoHooks hooks(&kill);
    EXPECT_THROW(epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(),
                                       gw.coulomb(),
                                       std::span<const double>(omegas), {},
                                       dir.path),
                 Error);
  }
  EXPECT_EQ(counter(injected_name.c_str()), injected + 1);

  const std::uint64_t loads = counter("checkpoint.loads");
  const std::size_t survived = files_in(dir.path).size();
  expect_bitwise(
      epsilon_inverse_multi(gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
                            std::span<const double>(omegas), {}, dir.path),
      ref);
  // Frequency 1 was recomputed; every other surviving file was loaded.
  EXPECT_EQ(counter("checkpoint.loads") - loads, survived - 1);
  EXPECT_EQ(counter(recovered_name.c_str()) - recovered,
            counter(injected_name.c_str()) - injected);
  EXPECT_TRUE(files_in(dir.path).empty());
}

TEST(CheckpointFaults, TornRestartFileIsRecomputedAlone) {
  epsilon_damaged_item(1, IoFaultKind::kTorn, "eps_torn");
}

TEST(CheckpointFaults, BitFlippedRestartFileIsRecomputedAloneAtFourWorkers) {
  epsilon_damaged_item(4, IoFaultKind::kBitFlip, "eps_flip_w4");
}

TEST(CheckpointFaults, NoSpaceSkipsOneBandFileAndTheLoopCompletes) {
  GwCalculation& gw = testutil::si_prim_gw();
  const std::vector<idx> bands = {2, 3, 4, 5};
  for (int workers : {1, 4}) {
    Workers w(workers);
    const std::vector<QpResult> ref = gw.sigma_diag(bands, 3, 0.02);
    IoFaultSpec spec;
    spec.seed = 3;
    spec.p_nospace = 1.0;
    spec.max_per_path = 100;
    spec.path_contains = "sigma-3-";
    IoFaultInjector inj(spec);
    const std::uint64_t injected = counter("fault/io/injected/nospace");
    const std::uint64_t recovered = counter("fault/io/recovered/nospace");
    const std::uint64_t skipped = counter("checkpoint/skipped");
    const std::uint64_t writes = counter("checkpoint.writes");
    TempDir dir("sigma_nospace");
    std::vector<QpResult> got;
    {
      io::ScopedIoHooks hooks(&inj);
      got = gw.sigma_diag(bands, 3, 0.02, GppKernelVariant::kOptimized,
                          nullptr, dir.path);
    }
    expect_bitwise(got, ref);
    EXPECT_EQ(counter("checkpoint/skipped"), skipped + 1) << workers;
    EXPECT_EQ(counter("checkpoint.writes"), writes + 3) << workers;
    EXPECT_EQ(counter("fault/io/injected/nospace") - injected, 1u);
    EXPECT_EQ(counter("fault/io/recovered/nospace") - recovered, 1u);
    EXPECT_TRUE(files_in(dir.path).empty());
  }
}

}  // namespace
}  // namespace xgw
