// Tests: the storage-fault chaos layer end to end. The headline claim:
// running the full out-of-core FF pipeline (epsilon screening build ->
// sigma band loop) under seeded I/O + compute fault schedules produces QP
// energies BITWISE identical to the fault-free run — EXPECT_EQ on doubles,
// not tolerance — with every injected fault accounted as recovered
// (fault/io/injected/* == fault/io/recovered/* deltas). Schedules are pure
// functions of the seed, so every one of these tests is deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <sstream>

#include <unistd.h>

#include "cli/driver.h"
#include "common/error.h"
#include "mf/epm.h"
#include "obs/metrics.h"
#include "runtime/chaos.h"
#include "serve/batch.h"

namespace xgw {
namespace {

// Deterministic spill directory: fault decisions hash the file PATH, so the
// path must be identical across invocations for a seed to reproduce the
// same schedule in every run of this binary.
std::string temp_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("xgw_chaos_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

const std::vector<idx> kBands{2, 3, 4};

FfOptions ff_options(const std::string& spill_dir) {
  FfOptions fo;
  fo.n_freq = 5;
  // Pin the valence blocking: the tiny budget forces the planner to
  // nv_block = 1 anyway, and NV-blocking is only roundoff-invariant.
  // Frequency chunking, the spill round trip, and single-frequency
  // re-materialization ARE bitwise — that is what these tests certify.
  fo.chi.nv_block = 1;
  fo.memory_budget_mb = 0.01;  // far below the working set: must spill
  fo.spill_dir = spill_dir;
  return fo;
}

/// Fault-free in-core reference for the pipeline above (computed once).
const std::vector<FfResult>& reference_results() {
  static const std::vector<FfResult> ref = [] {
    GwCalculation gw(EpmModel::silicon(1));
    FfOptions fo;
    fo.n_freq = 5;
    fo.chi.nv_block = 1;
    const FfScreening scr = build_ff_screening(gw, fo);
    return sigma_ff_diag(gw, scr, kBands);
  }();
  return ref;
}

void expect_bitwise_equal(const std::vector<FfResult>& got,
                          const char* label) {
  const std::vector<FfResult>& ref = reference_results();
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].sigma_x, got[i].sigma_x) << label << " band " << i;
    EXPECT_EQ(ref[i].sigma_c, got[i].sigma_c) << label << " band " << i;
    EXPECT_EQ(ref[i].e_qp, got[i].e_qp) << label << " band " << i;
    EXPECT_EQ(ref[i].z, got[i].z) << label << " band " << i;
  }
}

ChaosSpec mixed_spec(std::uint64_t seed, const std::string& dir) {
  ChaosSpec spec;
  spec.ff = ff_options(dir);
  spec.bands = kBands;
  spec.faults.io.seed = seed;
  spec.faults.io.p_transient = 0.05;
  spec.faults.io.p_torn = 0.03;
  spec.faults.io.p_bitflip = 0.03;
  spec.faults.io.p_stall = 0.02;
  // One fault per file keeps injected == recovered EXACT: coalescing (two
  // silent faults corrupting the same file, discovered as one failure)
  // cannot happen, and the retry budget (6) out-budgets the cap.
  spec.faults.io.max_per_path = 1;
  return spec;
}

ChaosReport run_chaos(const ChaosSpec& spec) {
  GwCalculation gw(EpmModel::silicon(1));
  return run_ff_chaos(gw, spec);
}

// --- the headline ---------------------------------------------------------

TEST(ChaosFf, TenSeededSchedulesAreBitwiseIdenticalWithExactRecovery) {
  std::uint64_t total_injected = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::string dir = temp_dir("seed" + std::to_string(seed));
    const ChaosReport rep = run_chaos(mixed_spec(seed, dir));
    EXPECT_TRUE(rep.spill_used) << "seed " << seed;
    EXPECT_EQ(rep.io_injected, rep.io_recovered) << "seed " << seed;
    EXPECT_EQ(rep.io_injected, rep.schedule.size()) << "seed " << seed;
    expect_bitwise_equal(rep.results,
                         ("seed " + std::to_string(seed)).c_str());
    total_injected += rep.io_injected;
    std::filesystem::remove_all(dir);
  }
  // The sweep as a whole must actually have exercised the fault paths.
  EXPECT_GT(total_injected, 10u);
}

TEST(ChaosFf, SameSeedReproducesTheSameSchedule) {
  const std::string dir = temp_dir("sched");
  const ChaosSpec spec = mixed_spec(7, dir);

  const ChaosReport a = run_chaos(spec);
  std::filesystem::remove_all(dir);  // identical paths for the second run
  const ChaosReport b = run_chaos(spec);
  std::filesystem::remove_all(dir);

  ASSERT_GT(a.schedule.size(), 0u);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].path, b.schedule[i].path) << i;
    EXPECT_EQ(a.schedule[i].op, b.schedule[i].op) << i;
    EXPECT_EQ(a.schedule[i].ordinal, b.schedule[i].ordinal) << i;
    EXPECT_EQ(a.schedule[i].kind, b.schedule[i].kind) << i;
  }

  // A different seed must produce a different schedule.
  ChaosSpec other = spec;
  other.faults.io.seed = 8;
  const ChaosReport c = run_chaos(other);
  std::filesystem::remove_all(dir);
  bool differs = c.schedule.size() != a.schedule.size();
  for (std::size_t i = 0; !differs && i < a.schedule.size(); ++i)
    differs = a.schedule[i].path != c.schedule[i].path ||
              a.schedule[i].op != c.schedule[i].op ||
              a.schedule[i].ordinal != c.schedule[i].ordinal ||
              a.schedule[i].kind != c.schedule[i].kind;
  EXPECT_TRUE(differs);
}

// --- targeted recovery paths ---------------------------------------------

TEST(ChaosFf, SilentCorruptionRecoveredByRematerialization) {
  // verify=off forces discovery at page-in (checksum / truncation), which
  // only the recompute path can neutralize.
  const std::string dir = temp_dir("remat");
  ChaosSpec spec = mixed_spec(3, dir);
  spec.faults.io.p_transient = 0.0;
  spec.faults.io.p_stall = 0.0;
  spec.faults.io.p_torn = 0.2;
  spec.faults.io.p_bitflip = 0.2;
  spec.spill_verify = mem::SpillVerify::kOff;
  const ChaosReport rep = run_chaos(spec);
  std::filesystem::remove_all(dir);

  EXPECT_GT(rep.io_injected, 0u);
  EXPECT_EQ(rep.io_injected, rep.io_recovered);
  EXPECT_GT(rep.rematerializations, 0u);
  EXPECT_EQ(rep.rewrites, 0u);  // verification was off
  expect_bitwise_equal(rep.results, "remat");
}

TEST(ChaosFf, SilentCorruptionCaughtByEvictionVerifyRewrites) {
  // checksum verification catches both torn and bit-flipped eviction
  // writes at the evict site, before the in-memory copy is dropped.
  const std::string dir = temp_dir("verify");
  ChaosSpec spec = mixed_spec(5, dir);
  spec.faults.io.p_transient = 0.0;
  spec.faults.io.p_stall = 0.0;
  spec.faults.io.p_torn = 0.2;
  spec.faults.io.p_bitflip = 0.2;
  spec.spill_verify = mem::SpillVerify::kChecksum;
  const ChaosReport rep = run_chaos(spec);
  std::filesystem::remove_all(dir);

  EXPECT_GT(rep.io_injected, 0u);
  EXPECT_EQ(rep.io_injected, rep.io_recovered);
  EXPECT_GT(rep.rewrites, 0u);
  EXPECT_EQ(rep.rematerializations, 0u);  // nothing survived to page-in
  expect_bitwise_equal(rep.results, "verify");
}

TEST(ChaosFf, EnospcDegradesToInCoreWithoutChangingResults) {
  const std::string dir = temp_dir("nospc");
  ChaosSpec spec = mixed_spec(1, dir);
  spec.faults.io.p_transient = 0.0;
  spec.faults.io.p_torn = 0.0;
  spec.faults.io.p_bitflip = 0.0;
  spec.faults.io.p_stall = 0.0;
  spec.faults.io.p_nospace = 1.0;  // the scratch filesystem is full
  const ChaosReport rep = run_chaos(spec);
  std::filesystem::remove_all(dir);

  EXPECT_TRUE(rep.spill_used);
  EXPECT_TRUE(rep.degraded);
  EXPECT_GT(rep.io_injected, 0u);
  EXPECT_EQ(rep.io_injected, rep.io_recovered);
  expect_bitwise_equal(rep.results, "nospc");
}

TEST(ChaosFf, StallsChargeVirtualTimeOnly) {
  const std::string dir = temp_dir("stall");
  ChaosSpec spec = mixed_spec(2, dir);
  spec.faults.io.p_transient = 0.0;
  spec.faults.io.p_torn = 0.0;
  spec.faults.io.p_bitflip = 0.0;
  spec.faults.io.p_stall = 0.5;
  spec.faults.io.max_per_path = 100;
  const ChaosReport rep = run_chaos(spec);
  std::filesystem::remove_all(dir);

  EXPECT_GT(rep.io_injected, 0u);
  EXPECT_EQ(rep.io_injected, rep.io_recovered);
  EXPECT_GT(rep.stalled_s, 0.0);
  expect_bitwise_equal(rep.results, "stall");
}

TEST(ChaosFf, ComputeFaultsRecoveredByStageRetry) {
  const std::string dir = temp_dir("compute");
  ChaosSpec spec = mixed_spec(4, dir);
  spec.faults.seed = 4;
  spec.faults.p_crash = 0.3;
  spec.faults.p_corrupt = 0.3;
  const ChaosReport rep = run_chaos(spec);
  std::filesystem::remove_all(dir);

  EXPECT_GT(rep.compute_faults, 0u);
  EXPECT_GT(rep.stage_retries, 0u);
  EXPECT_EQ(rep.io_injected, rep.io_recovered);
  expect_bitwise_equal(rep.results, "compute");
}

// --- serving-layer CAS under seeded fault schedules -----------------------
//
// Same contract as the FF pipeline above, now for the serve store: batches
// run under injected torn writes / bit flips / ENOSPC produce QP energies
// bitwise identical to a fault-free batch, every injected fault is
// accounted as recovered, and a corrupt committed entry surfaces at read
// as a checksum MISS that recomputes instead of serving bad bytes.
// path_contains targets `cas_` so only entry files (never the cas-index,
// whose name uses a hyphen) draw faults and accounting stays exact.

std::uint64_t cas_recovered_total() {
  std::uint64_t total = 0;
  for (const char* name : kIoFaultNames)
    total += obs::metrics().counter_value(std::string("fault/io/recovered/") +
                                          name);
  return total;
}

std::vector<serve::JobSpec> cas_chaos_jobs() {
  auto parse = [](const char* name, const char* text) {
    serve::JobSpec j;
    j.name = name;
    j.path = std::string(name) + ".inp";
    j.input = InputFile::parse(text, known_input_keys());
    return j;
  };
  return {parse("gap",
                "job sigma\nmaterial silicon\nsupercell 1\nsigma_bands 2 3\n"),
          parse("eps", "job epsilon\nmaterial silicon\nsupercell 1\nn_freq 2\n")};
}

/// Fault-free serve reference (clean store, no hooks), computed once.
const serve::BatchReport& serve_reference() {
  static const serve::BatchReport ref = [] {
    // Fault-free, so the path may vary: a store per process keeps
    // concurrently running ChaosServe tests from deleting each other's.
    serve::ServeOptions opt;
    opt.store_dir = temp_dir("serve_ref_" + std::to_string(::getpid()));
    std::ostringstream os;
    serve::BatchReport report = serve::run_batch(cas_chaos_jobs(), opt, os);
    std::filesystem::remove_all(opt.store_dir);
    return report;
  }();
  return ref;
}

void expect_serve_bitwise(const serve::BatchReport& got, const char* label) {
  const serve::BatchReport& ref = serve_reference();
  ASSERT_TRUE(got.all_ok()) << label;
  ASSERT_EQ(ref.jobs.size(), got.jobs.size()) << label;
  ASSERT_EQ(ref.jobs[0].qp.size(), got.jobs[0].qp.size()) << label;
  for (std::size_t i = 0; i < ref.jobs[0].qp.size(); ++i) {
    EXPECT_EQ(ref.jobs[0].qp[i].e_qp, got.jobs[0].qp[i].e_qp)
        << label << " band " << i;
    EXPECT_EQ(ref.jobs[0].qp[i].z, got.jobs[0].qp[i].z)
        << label << " band " << i;
  }
  ASSERT_EQ(ref.jobs[1].eps_heads.size(), got.jobs[1].eps_heads.size());
  for (std::size_t k = 0; k < ref.jobs[1].eps_heads.size(); ++k)
    EXPECT_EQ(ref.jobs[1].eps_heads[k], got.jobs[1].eps_heads[k])
        << label << " freq " << k;
}

TEST(ChaosServe, SeededTornAndFlipSchedulesCaughtAtCommit) {
  // verify=checksum: silent write corruption is caught by the commit
  // read-back and rewritten before the entry is ever visible — so the
  // second pass replays everything from the store untouched.
  std::uint64_t total_injected = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    IoFaultSpec fs;
    fs.seed = seed;
    fs.p_torn = 0.08;
    fs.p_bitflip = 0.08;
    fs.p_transient = 0.05;
    fs.max_per_path = 1;  // one fault per file: coalescing cannot happen
    fs.path_contains = "cas_";
    IoFaultInjector inj(fs);

    serve::ServeOptions opt;
    opt.store_dir = temp_dir("serve_torn_" + std::to_string(seed));
    opt.verify = mem::SpillVerify::kChecksum;
    const std::uint64_t recovered_before = cas_recovered_total();
    std::ostringstream os1, os2;
    serve::BatchReport cold, warm;
    {
      io::ScopedIoHooks hooks(&inj);
      cold = serve::run_batch(cas_chaos_jobs(), opt, os1);
    }
    expect_serve_bitwise(cold, "torn/flip cold");
    EXPECT_EQ(inj.injected(), cas_recovered_total() - recovered_before)
        << "seed " << seed;
    total_injected += inj.injected();

    warm = serve::run_batch(cas_chaos_jobs(), opt, os2);
    expect_serve_bitwise(warm, "torn/flip warm");
    EXPECT_EQ(warm.total_builds(), 0u) << "seed " << seed;
    EXPECT_EQ(warm.cas.misses, 0u) << "seed " << seed;
  }
  // The schedules must actually have exercised the recovery paths.
  EXPECT_GT(total_injected, 0u);
}

TEST(ChaosServe, SilentFlipSurfacesAtReadAsMissAndRecomputes) {
  // verify=size: a bit flip does not change the byte count, so the corrupt
  // entry COMMITS. The next read catches it via binio's checksum, drops
  // the entry, reports a miss, and the batch recomputes — bitwise.
  IoFaultSpec fs;
  fs.seed = 23;
  fs.p_bitflip = 1.0;
  fs.max_per_path = 1;
  fs.path_contains = "cas_";
  IoFaultInjector inj(fs);

  serve::ServeOptions opt;
  opt.store_dir = temp_dir("serve_flip");
  opt.verify = mem::SpillVerify::kSize;
  std::ostringstream os1, os2;
  serve::BatchReport cold;
  {
    io::ScopedIoHooks hooks(&inj);
    cold = serve::run_batch(cas_chaos_jobs(), opt, os1);
  }
  expect_serve_bitwise(cold, "flip cold");
  EXPECT_GT(inj.injected(), 0u);

  // Hooks removed: the warm pass reads the poisoned store fault-free.
  const serve::BatchReport warm =
      serve::run_batch(cas_chaos_jobs(), opt, os2);
  expect_serve_bitwise(warm, "flip warm");
  EXPECT_GT(warm.cas.corrupt, 0u);  // detected, dropped, recomputed
  EXPECT_GT(warm.total_builds(), 0u);

  // Third pass: the recommitted entries are clean — full replay.
  std::ostringstream os3;
  const serve::BatchReport third =
      serve::run_batch(cas_chaos_jobs(), opt, os3);
  expect_serve_bitwise(third, "flip third");
  EXPECT_EQ(third.total_builds(), 0u);
  EXPECT_EQ(third.cas.corrupt, 0u);
}

TEST(ChaosServe, EnospcDegradesToUncachedWithoutChangingResults) {
  // Every CAS write fails with ENOSPC: commits degrade to uncached, the
  // batch computes everything in-memory, results stay bitwise, and every
  // injected fault is recovered (none escapes the commit loop).
  IoFaultSpec fs;
  fs.seed = 7;
  fs.p_nospace = 1.0;
  fs.max_per_path = 1000;  // the disk stays full for the whole run
  fs.path_contains = "cas_";
  IoFaultInjector inj(fs);

  serve::ServeOptions opt;
  opt.store_dir = temp_dir("serve_nospace");
  const std::uint64_t recovered_before = cas_recovered_total();
  std::ostringstream os;
  serve::BatchReport rep;
  {
    io::ScopedIoHooks hooks(&inj);
    rep = serve::run_batch(cas_chaos_jobs(), opt, os);
  }
  expect_serve_bitwise(rep, "nospace");
  EXPECT_GT(inj.injected(), 0u);
  EXPECT_EQ(inj.injected(), cas_recovered_total() - recovered_before);
  EXPECT_GT(rep.cas.put_failures, 0u);
  EXPECT_EQ(rep.cas.puts, 0u);  // nothing committed
}

// --- injector unit behavior ----------------------------------------------

TEST(IoFaultInjector, RejectsInvalidSpecs) {
  IoFaultSpec bad;
  bad.p_transient = 0.8;
  bad.p_torn = 0.5;  // sums past 1
  EXPECT_THROW(IoFaultInjector{bad}, Error);
  IoFaultSpec neg;
  neg.p_stall = -0.1;
  EXPECT_THROW(IoFaultInjector{neg}, Error);
}

TEST(IoFaultInjector, MaxPerPathBoundsTotalFaults) {
  IoFaultSpec spec;
  spec.seed = 11;
  spec.p_transient = 1.0;  // every op wants to fail...
  spec.max_per_path = 3;   // ...but only 3 may
  IoFaultInjector inj(spec);
  int thrown = 0;
  for (int i = 0; i < 20; ++i) {
    try {
      inj.before("some/file.xgw", io::IoOp::kWrite, 0, 64);
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kIoTransient);
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 3);
  EXPECT_EQ(inj.injected(), 3u);
  EXPECT_EQ(inj.injected(IoFaultKind::kTransient), 3u);
}

TEST(IoFaultInjector, PathFilterTargetsInjection) {
  IoFaultSpec spec;
  spec.seed = 13;
  spec.p_transient = 1.0;
  spec.max_per_path = 100;
  spec.path_contains = "spill";
  IoFaultInjector inj(spec);
  EXPECT_NO_THROW(inj.before("ckpt/run.ckpt", io::IoOp::kWrite, 0, 8));
  EXPECT_THROW(inj.before("scratch/spill_3.xgw", io::IoOp::kWrite, 0, 8),
               Error);
}

TEST(IoFaultInjector, DecisionsAreOrderIndependent) {
  IoFaultSpec spec;
  spec.seed = 17;
  spec.p_transient = 0.3;
  spec.p_stall = 0.2;
  spec.max_per_path = 1000;
  // Drive two injectors over the same (path, op) multiset in different
  // interleavings; per-path ordinals make the schedules identical.
  IoFaultInjector a(spec), b(spec);
  auto drive = [](IoFaultInjector& inj, const std::string& path) {
    try {
      inj.before(path, io::IoOp::kRead, 0, 8);
    } catch (const Error&) {
    }
  };
  for (int i = 0; i < 10; ++i) {
    drive(a, "x");
    drive(a, "y");
  }
  for (int i = 0; i < 10; ++i) drive(b, "x");
  for (int i = 0; i < 10; ++i) drive(b, "y");
  EXPECT_GT(a.schedule().size(), 0u);
  ASSERT_EQ(a.injected(), b.injected());
  // Compare per-path (ordinal, kind) sets: interleaving must not matter.
  auto key_of = [](const IoFaultInjector::Event& e) {
    return e.path + "#" + std::to_string(e.ordinal) + "#" +
           std::to_string(static_cast<int>(e.kind));
  };
  std::vector<std::string> ka, kb;
  for (const auto& e : a.schedule()) ka.push_back(key_of(e));
  for (const auto& e : b.schedule()) kb.push_back(key_of(e));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  EXPECT_EQ(ka, kb);
}

}  // namespace
}  // namespace xgw
