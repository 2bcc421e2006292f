// Integration tests: Sigma driver, QP solution, full Dyson solve.

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "sched/executor.h"
#include "test_helpers.h"

namespace xgw {
namespace {

using testutil::si_prim_gw;

TEST(QpSolver, LinearFitExact) {
  // Sigma(E) = 0.3 - 0.2 (E - e0): E_qp = e0 + Z a with Z = 1/1.2.
  const double e0 = 1.0;
  const std::vector<double> es{0.9, 1.0, 1.1};
  std::vector<cplx> sig;
  for (double e : es) sig.emplace_back(0.3 - 0.2 * (e - e0), 0.0);
  const QpSolve qp = solve_qp_linear(e0, es, sig);
  EXPECT_NEAR(qp.dsigma_de, -0.2, 1e-10);
  EXPECT_NEAR(qp.z, 1.0 / 1.2, 1e-10);
  EXPECT_NEAR(qp.e_qp, e0 + 0.3 / 1.2, 1e-10);
}

TEST(QpSolver, SinglePointFallsBackToRigidShift) {
  const std::vector<double> es{2.0};
  const std::vector<cplx> sig{cplx{-0.5, 0.0}};
  const QpSolve qp = solve_qp_linear(2.0, es, sig);
  EXPECT_NEAR(qp.e_qp, 1.5, 1e-12);
  EXPECT_DOUBLE_EQ(qp.z, 1.0);
}

TEST(QpSolver, UnphysicalSlopeClamped) {
  // dSigma/dE > 1 gives negative Z -> clamped into [0, 2].
  const std::vector<double> es{0.0, 1.0};
  const std::vector<cplx> sig{cplx{0.0, 0.0}, cplx{3.0, 0.0}};
  const QpSolve qp = solve_qp_linear(0.5, es, sig);
  EXPECT_GE(qp.z, 0.0);
  EXPECT_LE(qp.z, 2.0);
}

TEST(SigmaDiag, DeterministicAcrossCalls) {
  GwCalculation& gw = si_prim_gw();
  const std::vector<idx> bands{gw.n_valence() - 1};
  const auto r1 = gw.sigma_diag(bands);
  const auto r2 = gw.sigma_diag(bands);
  EXPECT_DOUBLE_EQ(r1[0].e_qp, r2[0].e_qp);
}

TEST(SigmaDiag, PhysicalRenormalization) {
  GwCalculation& gw = si_prim_gw();
  const std::vector<idx> bands{gw.n_valence() - 1, gw.n_valence()};
  for (const QpResult& r : gw.sigma_diag(bands, 5, 0.02)) {
    EXPECT_GT(r.z, 0.3);
    EXPECT_LE(r.z, 1.2);
    // Self-energy magnitudes are eV-scale, not pathological.
    EXPECT_LT(std::abs(r.sigma.total()) * kHartreeToEv, 60.0);
  }
}

TEST(SigmaDiag, GwOpensTheGap) {
  // The hallmark GW result: quasiparticle gap exceeds the mean-field gap
  // (our mean field has no exchange, so Sigma widens the gap).
  GwCalculation& gw = si_prim_gw();
  const idx v = gw.n_valence() - 1, c = gw.n_valence();
  const auto qp = gw.sigma_diag({v, c}, 3, 0.02);
  const double gap_mf = qp[1].e_mf - qp[0].e_mf;
  const double gap_qp = qp[1].e_qp - qp[0].e_qp;
  EXPECT_GT(gap_qp, gap_mf);
  EXPECT_LT(gap_qp, gap_mf + 10.0 * kEvToHartree);  // not absurd either
}

TEST(SigmaDiag, ExchangeMoreNegativeForOccupied) {
  // Occupied states feel the full exchange hole; empty states only the
  // screened part. SX(valence) << SX(conduction).
  GwCalculation& gw = si_prim_gw();
  const auto qp = gw.sigma_diag({gw.n_valence() - 1, gw.n_valence()});
  EXPECT_LT(qp[0].sigma.sx.real(), qp[1].sigma.sx.real());
}

TEST(SigmaOffdiag, GridSpansExternalWindow) {
  GwCalculation& gw = si_prim_gw();
  const Wavefunctions& wf = gw.wavefunctions();
  const std::vector<idx> bands{2, 3, 4, 5};
  std::vector<double> e_grid;
  const auto sigma = gw.sigma_offdiag(bands, 6, e_grid);
  EXPECT_EQ(sigma.size(), 6u);
  EXPECT_EQ(e_grid.size(), 6u);
  EXPECT_LT(e_grid.front(), wf.energy[2]);
  EXPECT_GT(e_grid.back(), wf.energy[5]);
  for (const ZMatrix& s : sigma) {
    EXPECT_EQ(s.rows(), 4);
    EXPECT_EQ(s.cols(), 4);
  }
}

TEST(SigmaOffdiag, NearDiagonalDominance) {
  // Off-diagonal Sigma elements between well-separated bands are small
  // relative to diagonal ones (perturbative regime).
  GwCalculation& gw = si_prim_gw();
  const std::vector<idx> bands{0, gw.n_valence() - 1};
  std::vector<double> e_grid;
  const auto sigma = gw.sigma_offdiag(bands, 3, e_grid);
  for (const ZMatrix& s : sigma) {
    const double offd = std::abs(s(0, 1));
    const double diag = std::min(std::abs(s(0, 0)), std::abs(s(1, 1)));
    EXPECT_LT(offd, diag);
  }
}

TEST(DysonFull, CloseToLinearizedQpForSeparatedBands) {
  GwCalculation& gw = si_prim_gw();
  const std::vector<idx> bands{gw.n_valence() - 1, gw.n_valence()};
  const auto qp_lin = gw.sigma_diag(bands, 5, 0.02);
  const auto qp_full = gw.dyson_full_solve(bands, 24);
  ASSERT_EQ(qp_full.size(), 2u);
  // Both solve the same Dyson equation but differ by linearization vs grid
  // interpolation and by off-diagonal mixing; agreement within ~2.5 eV on
  // this small cell, with the ORDERING and the gap direction preserved.
  std::vector<double> lin{qp_lin[0].e_qp, qp_lin[1].e_qp};
  std::sort(lin.begin(), lin.end());
  std::vector<double> full = qp_full;
  std::sort(full.begin(), full.end());
  for (int i = 0; i < 2; ++i)
    EXPECT_NEAR(full[static_cast<std::size_t>(i)],
                lin[static_cast<std::size_t>(i)], 2.5 * kEvToHartree);
  EXPECT_GT(full[1] - full[0],
            0.5 * (qp_lin[1].e_mf - qp_lin[0].e_mf));
}

TEST(Sigma, BandOutOfRangeThrows) {
  GwCalculation& gw = si_prim_gw();
  EXPECT_THROW(gw.sigma_diag({gw.n_bands()}), Error);
}

TEST(Sigma, RejectedBandSetIsNotCached) {
  // Si has 4 occupied bands: n_bands 4 leaves no empty band. Every call
  // must reject it, and nothing may be cached for a second call to reuse.
  GwParameters p;
  p.n_bands = 4;
  GwCalculation gw(EpmModel::silicon(1), p);
  EXPECT_THROW(gw.wavefunctions(), Error);
  EXPECT_FALSE(gw.has_wavefunctions());
  EXPECT_THROW(gw.wavefunctions(), Error);
  EXPECT_FALSE(gw.has_wavefunctions());
}

TEST(Sigma, TimersRecordKernels) {
  GwCalculation& gw = si_prim_gw();
  gw.sigma_diag({gw.n_valence()});
  EXPECT_GT(gw.timers().calls("gpp_diag_kernel"), 0);
  EXPECT_GT(gw.timers().calls("sigma_mtxel"), 0);
}

TEST(Sigma, StageTimerRowsAreExclusive) {
  // Each lazy stage resolves its inputs before opening its own region, so
  // the four setup rows add up to at most the wall time of the call that
  // triggered them (nested regions would count chi three times).
  GwParameters p;
  p.eps_cutoff = 0.9;
  GwCalculation gw(EpmModel::silicon(1), p);
  const Stopwatch sw;
  gw.gpp();
  const double wall = sw.elapsed();
  double rows = 0.0;
  for (const char* name : {"parabands(dense)", "chi_sum(static)",
                           "epsilon_inverse(0)", "gpp_model"}) {
    EXPECT_EQ(gw.timers().calls(name), 1) << name;
    rows += gw.timers().seconds(name);
  }
  EXPECT_LE(rows, wall);
}

TEST(Sigma, PseudobandSwapInvalidatesCache) {
  GwParameters p;
  p.eps_cutoff = 0.9;
  GwCalculation gw(EpmModel::silicon(1), p);
  const double head_before = gw.epsinv0()(0, 0).real();
  Wavefunctions wf = gw.wavefunctions();
  wf = wf.truncated(wf.n_valence + 4);
  gw.set_wavefunctions(std::move(wf));
  const double head_after = gw.epsinv0()(0, 0).real();
  // Severely truncating the conduction space weakens screening: head rises.
  EXPECT_GT(head_after, head_before);
}

// An Inf delivered through the M_ln cache hook is rejected where it enters
// the GPP kernel, not in the final QP energies (common/validate.h).
TEST(Sigma, DiagRejectsNonFiniteMatrixElements) {
  GwCalculation& gw = si_prim_gw();
  gw.set_mtxel_cache(
      [&gw](idx band) -> std::optional<ZMatrix> {
        ZMatrix m = gw.m_matrix_left(band);
        m(1, 2) = cplx{std::numeric_limits<double>::infinity(), 0.0};
        return m;
      },
      {});
  try {
    gw.sigma_diag({gw.n_valence()});
    ADD_FAILURE() << "expected a validation throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kValidation);
  }
  gw.set_mtxel_cache({}, {});
}

// GPP diag bands run as scheduler tasks when a worker team is requested
// (and the FLOP counter is not attached); results must be bitwise identical
// to the serial loop at any worker count.
TEST(Sigma, DiagIsBitwiseInvariantAcrossWorkers) {
  GwCalculation& gw = si_prim_gw();
  const std::vector<idx> bands = {0, gw.n_valence() - 1, gw.n_valence(),
                                  gw.n_valence() + 1};

  // Counting FLOPs must not change how the band loop runs or what it
  // counts: the counter is passed at every worker count.
  const auto kOpt = GppKernelVariant::kOptimized;
  sched::Executor::set_default_workers(1);
  FlopCounter ref_flops;
  const auto ref = gw.sigma_diag(bands, 5, 0.02, kOpt, &ref_flops);
  EXPECT_GT(ref_flops.total(), 0u);
  for (int workers : {2, 4}) {
    sched::Executor::set_default_workers(workers);
    FlopCounter flops;
    const auto got = gw.sigma_diag(bands, 5, 0.02, kOpt, &flops);
    EXPECT_EQ(flops.total(), ref_flops.total()) << workers << " workers";
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].band, ref[i].band) << workers << " workers";
      EXPECT_EQ(got[i].e_mf, ref[i].e_mf) << workers << " workers";
      EXPECT_EQ(got[i].sigma.sx, ref[i].sigma.sx) << workers << " workers";
      EXPECT_EQ(got[i].sigma.ch, ref[i].sigma.ch) << workers << " workers";
      EXPECT_EQ(got[i].dsigma_de, ref[i].dsigma_de) << workers << " workers";
      EXPECT_EQ(got[i].z, ref[i].z) << workers << " workers";
      EXPECT_EQ(got[i].e_qp, ref[i].e_qp) << workers << " workers";
    }
  }
  sched::Executor::set_default_workers(0);
}

}  // namespace
}  // namespace xgw
