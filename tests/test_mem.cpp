// Tests: memory subsystem — tracker accounting, budget planner corner
// cases plus agreement with the measured CHI footprint, the epsilon
// sweep's one-worker peak, and LRU spill pool bitwise round trips.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/chi.h"
#include "core/coulomb.h"
#include "core/epsilon.h"
#include "core/sigma_ff.h"
#include "la/gemm.h"
#include "mem/planner.h"
#include "mem/spill.h"
#include "mem/tracker.h"
#include "mf/hamiltonian.h"
#include "mf/solver.h"
#include "io/iohooks.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "runtime/fault.h"
#include "sched/executor.h"

namespace xgw {
namespace {

using mem::Tag;
using mem::tracker;

std::string temp_dir(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("xgw_mem_test_") + name))
      .string();
}

ZMatrix random_matrix(idx n, unsigned seed) {
  Rng rng(seed);
  ZMatrix m(n, n);
  for (idx i = 0; i < m.size(); ++i) m.data()[i] = rng.normal_cplx();
  return m;
}

// --- tracker --------------------------------------------------------------

TEST(MemTracker, CountsAllocAndFree) {
  const auto before = tracker().tag(Tag::kMatrix);
  {
    ZMatrix m(32, 32);
    const auto during = tracker().tag(Tag::kMatrix);
    EXPECT_GE(during.current_bytes,
              before.current_bytes + 32 * 32 * sizeof(cplx));
    EXPECT_GE(during.alloc_calls, before.alloc_calls + 1);
  }
  const auto after = tracker().tag(Tag::kMatrix);
  EXPECT_EQ(after.current_bytes, before.current_bytes);
  EXPECT_GE(after.free_calls, before.free_calls + 1);
}

TEST(MemTracker, PeakPersistsAndRearms) {
  tracker().reset_peak();
  const std::uint64_t base = tracker().peak_bytes();
  { ZMatrix m(64, 64); }
  EXPECT_GE(tracker().peak_bytes(), base + 64 * 64 * sizeof(cplx));
  tracker().reset_peak();
  EXPECT_EQ(tracker().peak_bytes(), tracker().current_bytes());
}

TEST(MemTracker, SummaryNamesTags) {
  { ZMatrix m(8, 8); }  // ensure la/matrix traffic exists
  const std::string s = tracker().summary();
  EXPECT_NE(s.find("la/matrix"), std::string::npos);
}

// --- planner --------------------------------------------------------------

mem::PlannerInput small_problem() {
  mem::PlannerInput in;
  in.nv = 16;
  in.nc = 48;
  in.ng = 200;
  in.ncols = 200;
  in.nfreq = 8;
  in.threads = 1;
  return in;
}

TEST(MemPlanner, NoBudgetIsUnblockedFastPath) {
  mem::PlannerInput in = small_problem();
  in.budget_bytes = 0;
  const mem::MemPlan p = mem::plan(in);
  EXPECT_TRUE(p.fits_in_core);
  EXPECT_FALSE(p.needs_spill);
  EXPECT_EQ(p.nv_block, in.nv);
  EXPECT_EQ(p.freq_batch, in.nfreq);
}

TEST(MemPlanner, BudgetAboveWholeProblemIsUnblockedFastPath) {
  mem::PlannerInput in = small_problem();
  in.budget_bytes = mem::mb(64 * 1024.0);  // 64 GB >> problem
  const mem::MemPlan p = mem::plan(in);
  EXPECT_TRUE(p.fits_in_core);
  EXPECT_EQ(p.nv_block, in.nv);
  EXPECT_EQ(p.freq_batch, in.nfreq);
  EXPECT_LE(p.planned_peak_bytes, in.budget_bytes);
}

TEST(MemPlanner, BudgetBelowOneBlockThrowsActionably) {
  mem::PlannerInput in;
  in.nv = 100;
  in.nc = 1000;
  in.ng = 1024;
  in.ncols = 1024;
  in.nfreq = 4;
  in.allow_spill = false;
  in.budget_bytes = mem::mb(1.0);  // < one (nv_block=1, freq_batch=1) pass
  try {
    mem::plan(in);
    FAIL() << "expected mem::plan to throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("memory budget"), std::string::npos) << msg;
    EXPECT_NE(msg.find("memory_budget_mb"), std::string::npos) << msg;
    EXPECT_NE(msg.find("spill"), std::string::npos) << msg;
  }
}

TEST(MemPlanner, BudgetBelowOneBlockSpillsWhenAllowed) {
  mem::PlannerInput in;
  in.nv = 100;
  in.nc = 1000;
  in.ng = 1024;
  in.ncols = 1024;
  in.nfreq = 4;
  in.allow_spill = true;
  in.budget_bytes = mem::mb(1.0);
  const mem::MemPlan p = mem::plan(in);
  EXPECT_TRUE(p.needs_spill);
  EXPECT_EQ(p.nv_block, 1);
  EXPECT_EQ(p.freq_batch, 1);
  EXPECT_GT(p.spill_resident_bytes, 0u);
}

TEST(MemPlanner, PlanRespectsIntermediateBudgets) {
  mem::PlannerInput in = small_problem();
  const std::size_t unblocked = chi_workspace_bytes(in, in.nv, in.nfreq);
  // A budget below the unblocked footprint but above the minimal pass.
  in.budget_bytes = unblocked / 2;
  const mem::MemPlan p = mem::plan(in);
  EXPECT_FALSE(p.fits_in_core);
  EXPECT_LE(p.planned_peak_bytes, in.budget_bytes);
  EXPECT_GE(p.nv_block, 1);
  EXPECT_GE(p.freq_batch, 1);
}

TEST(MemPlanner, MonotoneInBudget) {
  mem::PlannerInput in = small_problem();
  const std::size_t unblocked = chi_workspace_bytes(in, in.nv, in.nfreq);
  in.budget_bytes = unblocked / 4;
  const mem::MemPlan small = mem::plan(in);
  in.budget_bytes = unblocked / 2;
  const mem::MemPlan big = mem::plan(in);
  EXPECT_GE(big.freq_batch, small.freq_batch);
  if (big.freq_batch == small.freq_batch)
    EXPECT_GE(big.nv_block, small.nv_block);
}

TEST(MemPlanner, DescribeMentionsTheKnobs) {
  mem::PlannerInput in = small_problem();
  in.budget_bytes = 0;
  const std::string s = mem::plan(in).describe();
  EXPECT_NE(s.find("nv_block="), std::string::npos);
  EXPECT_NE(s.find("freq_batch="), std::string::npos);
}

// --- spill pool -----------------------------------------------------------

TEST(MemSpill, RoundTripIsBitwise) {
  const std::string dir = temp_dir("roundtrip");
  const idx n = 16;
  const std::size_t one = static_cast<std::size_t>(n) * n * sizeof(cplx);
  std::vector<ZMatrix> originals;
  for (unsigned s = 0; s < 4; ++s) originals.push_back(random_matrix(n, s));
  {
    mem::SpillPool pool(dir, 2 * one);
    for (unsigned s = 0; s < 4; ++s)
      pool.put(std::to_string(s), originals[s]);
    EXPECT_GE(pool.evictions(), 2u);
    EXPECT_GT(pool.bytes_written(), 0u);
    for (unsigned s = 0; s < 4; ++s) {
      const ZMatrix& back = pool.get(std::to_string(s));
      for (idx i = 0; i < back.size(); ++i)
        ASSERT_EQ(back.data()[i], originals[s].data()[i]) << "entry " << s;
    }
    EXPECT_GT(pool.page_ins(), 0u);
  }
  // The destructor removes its spill files.
  if (std::filesystem::exists(dir))
    EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(MemSpill, EvictsLeastRecentlyUsed) {
  const std::string dir = temp_dir("lru");
  const idx n = 8;
  const std::size_t one = static_cast<std::size_t>(n) * n * sizeof(cplx);
  {
    mem::SpillPool pool(dir, 2 * one);
    pool.put("a", random_matrix(n, 1));
    pool.put("b", random_matrix(n, 2));
    pool.get("a");                       // a becomes MRU, b is now LRU
    pool.put("c", random_matrix(n, 3));  // evicts b
    EXPECT_EQ(pool.evictions(), 1u);
    EXPECT_EQ(pool.page_ins(), 0u);
    pool.get("b");  // pages b back in, evicting the LRU resident (a)
    EXPECT_EQ(pool.page_ins(), 1u);
    EXPECT_EQ(pool.evictions(), 2u);
    pool.get("a");  // a was the one paged out
    EXPECT_EQ(pool.page_ins(), 2u);
  }
  std::filesystem::remove_all(dir);
}

TEST(MemSpill, SpilledBytesTrackedUnderTag) {
  const std::string dir = temp_dir("tag");
  const idx n = 12;
  const std::size_t one = static_cast<std::size_t>(n) * n * sizeof(cplx);
  const auto before = tracker().tag(Tag::kSpill).current_bytes;
  {
    mem::SpillPool pool(dir, one);
    pool.put("a", random_matrix(n, 1));
    pool.put("b", random_matrix(n, 2));  // evicts a to disk
    EXPECT_GE(tracker().tag(Tag::kSpill).current_bytes, before + one);
  }
  EXPECT_EQ(tracker().tag(Tag::kSpill).current_bytes, before);
  std::filesystem::remove_all(dir);
}

TEST(MemSpill, MatrixStoreSpillModeIsBitwise) {
  const std::string dir = temp_dir("store");
  const idx n = 10;
  const std::size_t one = static_cast<std::size_t>(n) * n * sizeof(cplx);
  std::vector<ZMatrix> originals;
  for (unsigned s = 0; s < 5; ++s) originals.push_back(random_matrix(n, s));

  mem::MatrixStore store;
  for (const ZMatrix& m : originals) store.push_back(m);
  EXPECT_FALSE(store.spilling());
  store.enable_spill(dir, 2 * one);
  EXPECT_TRUE(store.spilling());
  ASSERT_EQ(store.size(), 5);
  for (unsigned s = 0; s < 5; ++s) {
    const ZMatrix& back = store.get(static_cast<idx>(s));
    for (idx i = 0; i < back.size(); ++i)
      ASSERT_EQ(back.data()[i], originals[s].data()[i]) << "entry " << s;
  }
  std::filesystem::remove_all(dir);
}

// --- eviction safety under storage faults --------------------------------
// The eviction-ordering invariant: the in-memory copy is released ONLY
// after the disk copy is proven good. These drive the SpillPool directly
// beneath a seeded IoFaultInjector.

TEST(MemSpillFault, EvictionVerifyCatchesTornWriteBeforeMemoryRelease) {
  const std::string dir = temp_dir("tornverify");
  const idx n = 8;
  const std::size_t one = static_cast<std::size_t>(n) * n * sizeof(cplx);
  IoFaultSpec spec;
  spec.seed = 9;
  spec.p_torn = 1.0;  // the first write of each file is torn short
  spec.max_per_path = 1;
  spec.path_contains = "tornverify";
  IoFaultInjector inj(spec);
  {
    mem::SpillPool pool(dir, one);
    pool.set_verify(mem::SpillVerify::kSize);
    const ZMatrix a = random_matrix(n, 1);
    io::ScopedIoHooks hooks(&inj);
    pool.put("a", a);
    pool.put("b", random_matrix(n, 2));  // evicts a; torn write caught
    EXPECT_GE(pool.rewrites(), 1u);
    EXPECT_FALSE(pool.degraded());
    const ZMatrix& back = pool.get("a");
    for (idx i = 0; i < back.size(); ++i)
      ASSERT_EQ(back.data()[i], a.data()[i]);
  }
  EXPECT_GT(inj.injected(IoFaultKind::kTorn), 0u);
  std::filesystem::remove_all(dir);
}

TEST(MemSpillFault, ChecksumVerifyCatchesSilentBitFlips) {
  const std::string dir = temp_dir("flipverify");
  const idx n = 8;
  const std::size_t one = static_cast<std::size_t>(n) * n * sizeof(cplx);
  IoFaultSpec spec;
  spec.seed = 10;
  spec.p_bitflip = 1.0;  // one bit of the first write of each file flips
  spec.max_per_path = 1;
  spec.path_contains = "flipverify";
  IoFaultInjector inj(spec);
  {
    mem::SpillPool pool(dir, one);
    pool.set_verify(mem::SpillVerify::kChecksum);
    const ZMatrix a = random_matrix(n, 1);
    io::ScopedIoHooks hooks(&inj);
    pool.put("a", a);
    pool.put("b", random_matrix(n, 2));  // evicts a; flip caught, rewritten
    EXPECT_GE(pool.rewrites(), 1u);
    const ZMatrix& back = pool.get("a");
    for (idx i = 0; i < back.size(); ++i)
      ASSERT_EQ(back.data()[i], a.data()[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(MemSpillFault, PageInRematerializesWhenFileCorruptAtRest) {
  const std::string dir = temp_dir("remat");
  const idx n = 8;
  const std::size_t one = static_cast<std::size_t>(n) * n * sizeof(cplx);
  const ZMatrix a = random_matrix(n, 1);
  const std::uint64_t remat_before =
      obs::metrics().counter_value("spill/rematerializations");
  {
    mem::SpillPool pool(dir, one);
    pool.set_recompute([&](const std::string& key) {
      EXPECT_EQ(key, "a");
      return a;
    });
    pool.put("a", a);
    pool.put("b", random_matrix(n, 2));  // evicts a cleanly
    // Corrupt a's spill file at rest (one payload byte).
    const std::string file = dir + "/spill_a.xgw";
    {
      std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekp(48);
      char b = 0;
      f.read(&b, 1);
      f.seekp(48);
      b = static_cast<char>(b ^ 0x20);
      f.write(&b, 1);
    }
    const ZMatrix& back = pool.get("a");  // checksum fails -> recompute
    for (idx i = 0; i < back.size(); ++i)
      ASSERT_EQ(back.data()[i], a.data()[i]);
    EXPECT_EQ(pool.rematerializations(), 1u);
  }
  EXPECT_EQ(obs::metrics().counter_value("spill/rematerializations"),
            remat_before + 1);
  std::filesystem::remove_all(dir);
}

TEST(MemSpillFault, NoSpaceDegradesPoolToInCoreWithDataIntact) {
  const std::string dir = temp_dir("nospc");
  const idx n = 8;
  const std::size_t one = static_cast<std::size_t>(n) * n * sizeof(cplx);
  IoFaultSpec spec;
  spec.seed = 11;
  spec.p_nospace = 1.0;  // the scratch filesystem is full
  spec.max_per_path = 100;
  spec.path_contains = "nospc";
  IoFaultInjector inj(spec);
  {
    mem::SpillPool pool(dir, one);
    const ZMatrix a = random_matrix(n, 1);
    const ZMatrix b = random_matrix(n, 2);
    io::ScopedIoHooks hooks(&inj);
    pool.put("a", a);
    pool.put("b", b);  // eviction write hits ENOSPC -> degrade, keep a
    EXPECT_TRUE(pool.degraded());
    EXPECT_EQ(pool.evictions(), 0u);
    const ZMatrix& ra = pool.get("a");
    for (idx i = 0; i < ra.size(); ++i) ASSERT_EQ(ra.data()[i], a.data()[i]);
    const ZMatrix& rb = pool.get("b");
    for (idx i = 0; i < rb.size(); ++i) ASSERT_EQ(rb.data()[i], b.data()[i]);
  }
  // Exactly one fault fired (the first eviction's open); after degradation
  // the pool never touches storage again.
  EXPECT_EQ(inj.injected(), 1u);
  std::filesystem::remove_all(dir);
}

// --- end-to-end: planner vs tracker, epsilon sweep peak, out-of-core FF ----

struct MemChiFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    const EpmModel model = EpmModel::silicon(1);
    ham = new PwHamiltonian(model, 2.0);
    eps = new GSphere(model.crystal().lattice(), 0.9);
    wf = new Wavefunctions(solve_dense(*ham, 20));
    mtxel = new Mtxel(ham->sphere(), *eps, *wf);
    v = new CoulombPotential(model.crystal().lattice(), *eps);
  }
  static void TearDownTestSuite() {
    delete v; delete mtxel; delete wf; delete eps; delete ham;
  }
  static PwHamiltonian* ham;
  static GSphere* eps;
  static Wavefunctions* wf;
  static Mtxel* mtxel;
  static CoulombPotential* v;
};
PwHamiltonian* MemChiFixture::ham = nullptr;
GSphere* MemChiFixture::eps = nullptr;
Wavefunctions* MemChiFixture::wf = nullptr;
Mtxel* MemChiFixture::mtxel = nullptr;
CoulombPotential* MemChiFixture::v = nullptr;

TEST_F(MemChiFixture, PlannerTracksMeasuredChiPeakWithinTenPercent) {
  const std::vector<double> omegas{0.0, 0.2, 0.5, 0.9};
  ChiOptions opt;
  opt.nv_block = 4;

  mem::PlannerInput in;
  in.nv = wf->n_valence;
  in.nc = wf->n_conduction();
  in.ng = mtxel->n_g();
  in.ncols = mtxel->n_g();
  in.nfreq = static_cast<idx>(omegas.size());
  in.threads = xgw_num_threads();

  // Warm-up fills the MTXEL real-space cache and thread-local FFT
  // workspaces so the measured pass sees only the CHI working set.
  { const auto warm = chi_multi(*mtxel, *wf, omegas, opt); }

  in.fixed_bytes = tracker().current_bytes();
  tracker().reset_peak();
  const auto chis = chi_multi(*mtxel, *wf, omegas, opt);
  const std::uint64_t measured = tracker().peak_bytes();
  const std::uint64_t planned =
      in.fixed_bytes +
      mem::chi_workspace_bytes(in, opt.nv_block, in.nfreq);

  ASSERT_GT(measured, in.fixed_bytes);
  const double rel =
      std::abs(static_cast<double>(measured) - static_cast<double>(planned)) /
      static_cast<double>(measured);
  EXPECT_LE(rel, 0.10) << "measured=" << measured << " planned=" << planned;
  EXPECT_EQ(chis.size(), omegas.size());
}

// The epsilon sweep holds one frequency's chi + inversion temporaries per
// task, so one worker's tracked high-water mark must not exceed two
// workers': the budget planner and the run report's peak_bytes read it.
// nv_block well below N_v keeps each task's chi workspace small, so any
// buffer sized for the full valence block would show up here.
TEST_F(MemChiFixture, OneWorkerEpsilonPeakIsNoHigherThanTwoWorkers) {
  const std::vector<double> omegas{0.1, 0.6, 1.4, 2.2};
  ChiOptions copt;
  copt.nv_block = 1;
  copt.imaginary_axis = true;
  ASSERT_LT(copt.nv_block, wf->n_valence);

  auto sweep_peak = [&](int workers) {
    sched::Executor::set_default_workers(workers);
    tracker().reset_peak();
    const std::uint64_t base = tracker().current_bytes();
    const auto einv = epsilon_inverse_multi(*mtxel, *wf, *v, omegas, copt);
    EXPECT_EQ(einv.size(), omegas.size());
    return tracker().peak_bytes() - base;
  };
  // Warm-up fills the MTXEL real-space cache and the FFT workspaces.
  sweep_peak(1);
  const std::uint64_t one = sweep_peak(1);
  const std::uint64_t two = sweep_peak(2);
  sched::Executor::set_default_workers(0);
  EXPECT_LE(one, two) << "1 worker peak " << one << " B, 2 workers " << two
                      << " B";
}

TEST(MemSpillFf, OutOfCoreFfDiagIsBitwiseIdentical) {
  const std::string dir = temp_dir("ffspill");
  const std::vector<idx> bands{2, 3, 4};

  GwCalculation gw_ref(EpmModel::silicon(1));
  FfOptions fo;
  fo.n_freq = 5;
  // Pin the valence blocking: the tiny budget below forces the planner to
  // nv_block = 1, and NV-blocking is invariant only to roundoff (see
  // ChiFixture.NvBlockInvariance), not bitwise. Frequency chunking and the
  // spill round-trip ARE bitwise, which is what this test certifies.
  fo.chi.nv_block = 1;
  const FfScreening scr_ref = build_ff_screening(gw_ref, fo);
  EXPECT_FALSE(scr_ref.bv.spilling());
  const auto ref = sigma_ff_diag(gw_ref, scr_ref, bands);

  GwCalculation gw_ooc(EpmModel::silicon(1));
  FfOptions fo2 = fo;
  fo2.memory_budget_mb = 0.01;  // far below the working set: must spill
  fo2.spill_dir = dir;
  const FfScreening scr_ooc = build_ff_screening(gw_ooc, fo2);
  EXPECT_TRUE(scr_ooc.bv.spilling());
  EXPECT_GT(scr_ooc.bv.pool()->evictions(), 0u);
  const auto ooc = sigma_ff_diag(gw_ooc, scr_ooc, bands);

  ASSERT_EQ(ref.size(), ooc.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].sigma_x, ooc[i].sigma_x);
    EXPECT_EQ(ref[i].sigma_c, ooc[i].sigma_c);
    EXPECT_EQ(ref[i].e_qp, ooc[i].e_qp);
    EXPECT_EQ(ref[i].z, ooc[i].z);
  }
  std::filesystem::remove_all(dir);
}

TEST(MemObs, SpanSamplesPeakBytes) {
  obs::recorder().enable(obs::detail_level::kKernel);
  {
    obs::Span span("mem_peak_probe", "test");
    ZMatrix big(128, 128);
    big(0, 0) = cplx{1.0, 0.0};
  }
  obs::recorder().disable();
  const auto agg = obs::recorder().aggregate();
  bool found = false;
  for (const auto& [key, a] : agg) {
    if (key.find("mem_peak_probe") == std::string::npos) continue;
    found = true;
    EXPECT_GT(a.peak_bytes, 0u);
  }
  EXPECT_TRUE(found);
  obs::recorder().clear();
}

}  // namespace
}  // namespace xgw
