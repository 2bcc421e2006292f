// Integration tests: full-frequency Sigma and the static-subspace FF path.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/sigma_ff.h"
#include "mem/tracker.h"
#include "obs/trace.h"
#include "sched/executor.h"
#include "test_helpers.h"

namespace xgw {
namespace {

using testutil::si_prim_gw_big_eps;

TEST(SigmaFF, ExchangeMatchesIndependentSum) {
  GwCalculation& gw = si_prim_gw_big_eps();
  const Wavefunctions& wf = gw.wavefunctions();
  FfOptions opt;
  opt.n_freq = 8;
  const FfScreening scr = build_ff_screening(gw, opt);
  const idx l = gw.n_valence() - 1;
  const auto res = sigma_ff_diag(gw, scr, {l});

  // Independent bare-exchange evaluation.
  const ZMatrix m_ln = gw.m_matrix_left(l);
  double sx = 0.0;
  for (idx n = 0; n < wf.n_valence; ++n)
    for (idx g = 0; g < gw.n_g(); ++g)
      sx -= std::norm(m_ln(n, g)) * gw.coulomb()(g);
  EXPECT_NEAR(res[0].sigma_x.real(), sx, 1e-10);
  EXPECT_NEAR(res[0].sigma_x.imag(), 0.0, 1e-10);
}

TEST(SigmaFF, CorrelationNegativeForValence) {
  // The Coulomb-hole-like correlation lowers occupied states.
  GwCalculation& gw = si_prim_gw_big_eps();
  FfOptions opt;
  opt.n_freq = 24;
  const FfScreening scr = build_ff_screening(gw, opt);
  const auto res = sigma_ff_diag(gw, scr, {idx{0}});
  EXPECT_LT(res[0].sigma_c.real() + res[0].sigma_x.real(), 0.0);
}

TEST(SigmaFF, QualitativeAgreementWithGpp) {
  // The plasmon-pole model approximates the FF result; QP energies should
  // agree to within ~1.5 eV on this small system (model error, not a bug
  // bound — tightened agreement appears as n_freq grows).
  GwCalculation& gw = si_prim_gw_big_eps();
  const idx v = gw.n_valence() - 1, c = gw.n_valence();
  const auto gpp = gw.sigma_diag({v, c}, 3, 0.02);
  FfOptions opt;
  opt.n_freq = 32;
  const FfScreening scr = build_ff_screening(gw, opt);
  const auto ff = sigma_ff_diag(gw, scr, {v, c});
  for (int i = 0; i < 2; ++i)
    EXPECT_NEAR(ff[static_cast<std::size_t>(i)].e_qp,
                gpp[static_cast<std::size_t>(i)].e_qp, 1.5 * kEvToHartree);
}

TEST(SigmaFF, SubspaceConvergesToFullPw) {
  GwCalculation& gw = si_prim_gw_big_eps();
  const idx l = gw.n_valence();
  FfOptions full_opt;
  full_opt.n_freq = 10;
  const FfScreening full = build_ff_screening(gw, full_opt);
  const auto ref = sigma_ff_diag(gw, full, {l});

  double prev_err = 1e300;
  for (double frac : {0.3, 0.7, 1.0}) {
    FfOptions o = full_opt;
    o.subspace_fraction = frac;
    const FfScreening scr = build_ff_screening(gw, o);
    const auto res = sigma_ff_diag(gw, scr, {l});
    const double err = std::abs(res[0].sigma_c - ref[0].sigma_c);
    EXPECT_LT(err, prev_err + 1e-9) << "fraction " << frac;
    prev_err = err;
  }
  // Full-fraction subspace reproduces the full-PW correlation closely.
  EXPECT_LT(prev_err, 0.05 * std::abs(ref[0].sigma_c) + 1e-6);
}

TEST(SigmaFF, SubspaceUsesRequestedRank) {
  GwCalculation& gw = si_prim_gw_big_eps();
  FfOptions o;
  o.n_freq = 4;
  o.n_eig = 7;
  const FfScreening scr = build_ff_screening(gw, o);
  EXPECT_EQ(scr.n_eig_used, 7);
  FfOptions o2;
  o2.n_freq = 4;
  o2.subspace_fraction = 0.25;
  const FfScreening scr2 = build_ff_screening(gw, o2);
  EXPECT_EQ(scr2.n_eig_used,
            std::max<idx>(1, static_cast<idx>(0.25 * gw.n_g())));
}

TEST(SigmaFF, FrequencyGridTrapezoidWeights) {
  GwCalculation& gw = si_prim_gw_big_eps();
  FfOptions o;
  o.n_freq = 5;
  o.omega_max = 2.0;
  const FfScreening scr = build_ff_screening(gw, o);
  ASSERT_EQ(scr.omegas.size(), 5u);
  EXPECT_DOUBLE_EQ(scr.omegas.front(), 0.0);
  EXPECT_DOUBLE_EQ(scr.omegas.back(), 2.0);
  double total = 0.0;
  for (double w : scr.weights) total += w;
  EXPECT_NEAR(total, 2.0, 1e-12);  // integrates 1 over [0, omega_max]
}

// Bands write disjoint result slots and every per-band reduction runs in a
// fixed order, so the diagonal must be bitwise independent of the worker
// count feeding the scheduler.
TEST(SigmaFF, DiagIsBitwiseInvariantAcrossWorkers) {
  GwCalculation& gw = si_prim_gw_big_eps();
  FfOptions opt;
  opt.n_freq = 8;
  const FfScreening scr = build_ff_screening(gw, opt);
  const std::vector<idx> bands = {0, gw.n_valence() - 1, gw.n_valence()};

  sched::Executor::set_default_workers(1);
  const auto ref = sigma_ff_diag(gw, scr, bands);
  for (int workers : {2, 4}) {
    sched::Executor::set_default_workers(workers);
    const auto got = sigma_ff_diag(gw, scr, bands);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].band, ref[i].band) << workers << " workers";
      EXPECT_EQ(got[i].e_mf, ref[i].e_mf) << workers << " workers";
      EXPECT_EQ(got[i].sigma_x, ref[i].sigma_x) << workers << " workers";
      EXPECT_EQ(got[i].sigma_c, ref[i].sigma_c) << workers << " workers";
      EXPECT_EQ(got[i].e_qp, ref[i].e_qp) << workers << " workers";
      EXPECT_EQ(got[i].z, ref[i].z) << workers << " workers";
    }
  }
  sched::Executor::set_default_workers(0);
}

bool same_bits(const ZMatrix& a, const ZMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(cplx)) == 0;
}

// Each frequency's eps^{-1} and B^k v run as one scheduler task writing its
// own slot, so every B^k v must be bitwise independent of the worker count,
// on the full plane-wave path and on the subspace path.
TEST(SigmaFF, ScreeningBuildBitwiseInvariantAcrossWorkers) {
  GwCalculation& gw = si_prim_gw_big_eps();
  for (double fraction : {0.0, 0.3}) {
    FfOptions opt;
    opt.n_freq = 8;
    opt.subspace_fraction = fraction;
    sched::Executor::set_default_workers(1);
    const FfScreening ref = build_ff_screening(gw, opt);
    for (int workers : {2, 4}) {
      sched::Executor::set_default_workers(workers);
      const FfScreening got = build_ff_screening(gw, opt);
      ASSERT_EQ(got.bv.size(), ref.bv.size());
      for (idx k = 0; k < static_cast<idx>(ref.bv.size()); ++k)
        EXPECT_TRUE(same_bits(got.bv.get(k), ref.bv.get(k)))
            << workers << " workers, subspace fraction " << fraction
            << ", frequency " << k;
    }
  }
  sched::Executor::set_default_workers(0);
}

// The epsilon stage turns each chi slot into its B^k v in place: it holds
// one batch of N_G x N_G slots plus at most one N_G x N_G LU scratch
// matrix per worker, never chi and B^k v side by side. nv_block = 1 and six
// bands keep the chi stage's pair workspace ((2 + T) N_c N_G entries for a
// T-thread chi team, T = 1 here unless XGW_NUM_THREADS overrides it) below
// one slot, so the epsilon stage sets the build's tracked high-water mark
// and its span's peak_bytes is exact rather than a lower bound.
TEST(SigmaFF, EpsilonStageHoldsOneBatchPlusOneScratchPerWorker) {
  GwParameters p;
  p.eps_cutoff = 2.0;
  p.n_bands = 6;
  GwCalculation gw(EpmModel::silicon(1), p);
  FfOptions opt;
  opt.n_freq = 8;
  opt.chi.nv_block = 1;
  const int workers = 4;
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  sched::Executor::set_default_workers(workers);
  (void)build_ff_screening(gw, opt);  // warm the MTXEL and FFT caches
  auto& rec = obs::recorder();
  rec.enable(obs::detail_level::kKernel);
  mem::tracker().reset_peak();
  const std::uint64_t base = mem::tracker().current_bytes();
  { const FfScreening scr = build_ff_screening(gw, opt); }
  const std::uint64_t build_peak = mem::tracker().peak_bytes();
  rec.disable();
  const auto agg = rec.aggregate();
  rec.clear();
  sched::Executor::set_default_workers(0);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  ASSERT_TRUE(agg.count("kernel/ff_eps_inverse"));
  const std::uint64_t eps_peak = agg.at("kernel/ff_eps_inverse").peak_bytes;
  ASSERT_EQ(eps_peak, build_peak)
      << "the chi stage set the high-water mark; the epsilon span's peak is "
         "only a lower bound (N_G = "
      << gw.n_g() << ", N_c = " << gw.wavefunctions().n_conduction() << ")";
  const std::uint64_t slot =
      static_cast<std::uint64_t>(gw.n_g() * gw.n_g()) * sizeof(cplx);
  EXPECT_LE(eps_peak - base, (opt.n_freq + workers) * slot)
      << "epsilon stage peak " << (eps_peak - base) / slot << " slots of "
      << slot << " B";
}

}  // namespace
}  // namespace xgw
