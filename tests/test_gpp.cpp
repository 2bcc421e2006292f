// Unit tests: HL-GPP model and the diag / off-diag Sigma kernels.
//
// The load-bearing checks: the optimized diag kernel must equal the
// reference kernel; and the ZGEMM-recast off-diag kernel restricted to its
// diagonal must reproduce the diag kernel (the Sec. 5.6 reformulation is
// exact, only faster).

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.h"
#include "test_helpers.h"

namespace xgw {
namespace {

using testutil::si_prim_gw;

TEST(GppModel, HeadIsPlasmaFrequency) {
  GwCalculation& gw = si_prim_gw();
  const GppModel& m = gw.gpp();
  const double omega_cell =
      gw.hamiltonian().model().crystal().lattice().cell_volume();
  const double n_el = 2.0 * static_cast<double>(gw.n_valence());
  const double wp2 = 4.0 * kPi * n_el / omega_cell;
  EXPECT_NEAR(m.omega2(0, 0).real(), wp2, 1e-9 * wp2);
}

TEST(GppModel, WingsVanish) {
  const GppModel& m = si_prim_gw().gpp();
  for (idx g = 1; g < m.n_g(); ++g) {
    EXPECT_EQ(m.omega2(0, g), cplx{});
    EXPECT_EQ(m.omega2(g, 0), cplx{});
  }
}

TEST(GppModel, WtildeSquaredPositiveRealPart) {
  const GppModel& m = si_prim_gw().gpp();
  for (idx g = 0; g < m.n_g(); ++g)
    for (idx gp = 0; gp < m.n_g(); ++gp)
      EXPECT_GT(m.wtilde2(g, gp).real(), 0.0);
}

TEST(GppModel, WtildeIsPrincipalSqrt) {
  const GppModel& m = si_prim_gw().gpp();
  for (idx g = 0; g < m.n_g(); ++g)
    for (idx gp = 0; gp < m.n_g(); ++gp) {
      const cplx w = m.wtilde(g, gp);
      EXPECT_GE(w.real(), 0.0);
      EXPECT_LT(std::abs(w * w - m.wtilde2(g, gp)),
                1e-9 * std::abs(m.wtilde2(g, gp)));
    }
}

TEST(GppModel, DiagonalModeAboveScreenedPlasmaFrequency) {
  // wtilde^2_GG = Omega^2_GG / (1 - epsinv_GG) >= Omega^2_GG since
  // 0 < 1 - epsinv_GG < 1 on the diagonal of a physical eps.
  const GppModel& m = si_prim_gw().gpp();
  for (idx g = 0; g < m.n_g(); ++g)
    if (m.omega2(g, g).real() > 0.0) {
      EXPECT_GT(m.wtilde2(g, g).real(), m.omega2(g, g).real() * (1.0 - 1e-9));
    }
}

TEST(GppKernel, OptimizedMatchesReference) {
  GwCalculation& gw = si_prim_gw();
  const Wavefunctions& wf = gw.wavefunctions();
  const GppDiagKernel kernel(gw.gpp(), gw.coulomb());

  for (idx l : {gw.n_valence() - 1, gw.n_valence()}) {
    const ZMatrix m_ln = gw.m_matrix_left(l);
    const double e0 = wf.energy[static_cast<std::size_t>(l)];
    const std::vector<double> evals{e0 - 0.05, e0, e0 + 0.05};

    std::vector<SigmaParts> ref, opt;
    kernel.compute(m_ln, wf.energy, wf.n_valence, evals, ref,
                   GppKernelVariant::kReference);
    kernel.compute(m_ln, wf.energy, wf.n_valence, evals, opt,
                   GppKernelVariant::kOptimized);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_LT(std::abs(ref[i].sx - opt[i].sx), 1e-10) << "E index " << i;
      EXPECT_LT(std::abs(ref[i].ch - opt[i].ch), 1e-10) << "E index " << i;
    }
  }
}

#ifdef _OPENMP
TEST(GppKernel, OptimizedIsBitwiseInvariantAcrossThreadCounts) {
  // The two-stage reduction partitions G' into a fixed chunk grid and
  // reduces partials in chunk-index order, so the self-energy must be
  // bitwise identical for any thread count.
  GwCalculation& gw = si_prim_gw();
  const Wavefunctions& wf = gw.wavefunctions();
  const GppDiagKernel kernel(gw.gpp(), gw.coulomb());
  const idx l = gw.n_valence();
  const ZMatrix m_ln = gw.m_matrix_left(l);
  const double e0 = wf.energy[static_cast<std::size_t>(l)];
  const std::vector<double> evals{e0 - 0.1, e0, e0 + 0.1};

  const int prev = omp_get_max_threads();
  std::vector<std::vector<SigmaParts>> runs;
  for (int nt : {1, 2, 4}) {
    omp_set_num_threads(nt);
    std::vector<SigmaParts> out;
    kernel.compute(m_ln, wf.energy, wf.n_valence, evals, out,
                   GppKernelVariant::kOptimized);
    runs.push_back(std::move(out));
  }
  omp_set_num_threads(prev);

  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].sx.real(), runs[0][i].sx.real()) << "E " << i;
      EXPECT_EQ(runs[r][i].sx.imag(), runs[0][i].sx.imag()) << "E " << i;
      EXPECT_EQ(runs[r][i].ch.real(), runs[0][i].ch.real()) << "E " << i;
      EXPECT_EQ(runs[r][i].ch.imag(), runs[0][i].ch.imag()) << "E " << i;
    }
  }
}
#endif

TEST(GppKernel, GprimeSliceDecomposition) {
  // Summing rank-slices of the G' loop (the Nbar_G' distribution of
  // Sec. 5.5) must reproduce the full-range result exactly.
  GwCalculation& gw = si_prim_gw();
  const Wavefunctions& wf = gw.wavefunctions();
  const GppDiagKernel kernel(gw.gpp(), gw.coulomb());
  const idx l = gw.n_valence();
  const ZMatrix m_ln = gw.m_matrix_left(l);
  const std::vector<double> evals{wf.energy[static_cast<std::size_t>(l)]};

  std::vector<SigmaParts> full;
  kernel.compute(m_ln, wf.energy, wf.n_valence, evals, full,
                 GppKernelVariant::kReference);

  const idx ng = gw.n_g();
  cplx sx{}, ch{};
  const idx n_ranks = 3;
  for (idx r = 0; r < n_ranks; ++r) {
    const idx lo = r * ng / n_ranks;
    const idx hi = (r + 1) * ng / n_ranks;
    std::vector<SigmaParts> part;
    kernel.compute(m_ln, wf.energy, wf.n_valence, evals, part,
                   GppKernelVariant::kReference, nullptr, lo, hi);
    sx += part[0].sx;
    ch += part[0].ch;
  }
  EXPECT_LT(std::abs(sx - full[0].sx), 1e-11);
  EXPECT_LT(std::abs(ch - full[0].ch), 1e-11);
}

TEST(GppKernel, OffdiagDiagonalMatchesDiagKernel) {
  GwCalculation& gw = si_prim_gw();
  const Wavefunctions& wf = gw.wavefunctions();
  const std::vector<idx> bands{gw.n_valence() - 2, gw.n_valence() - 1,
                               gw.n_valence()};

  // Common fixed energy grid.
  const std::vector<double> e_grid{wf.energy[static_cast<std::size_t>(bands[0])],
                                   wf.energy[static_cast<std::size_t>(bands[2])] +
                                       0.05};

  // Off-diag kernel.
  std::vector<ZMatrix> m_all(static_cast<std::size_t>(wf.n_bands()));
  for (idx n = 0; n < wf.n_bands(); ++n)
    m_all[static_cast<std::size_t>(n)] = gw.m_matrix_right(bands, n);
  const GppOffdiagKernel off(gw.gpp(), gw.coulomb());
  const auto sigma = off.compute(m_all, wf.energy, wf.n_valence, e_grid);

  // Diag kernel at the same grid energies.
  const GppDiagKernel diag(gw.gpp(), gw.coulomb());
  for (std::size_t ib = 0; ib < bands.size(); ++ib) {
    const ZMatrix m_ln = gw.m_matrix_left(bands[ib]);
    std::vector<SigmaParts> parts;
    diag.compute(m_ln, wf.energy, wf.n_valence, e_grid, parts,
                 GppKernelVariant::kReference);
    for (std::size_t ie = 0; ie < e_grid.size(); ++ie) {
      const cplx from_off = sigma[ie](static_cast<idx>(ib), static_cast<idx>(ib));
      const cplx from_diag = parts[ie].total();
      EXPECT_LT(std::abs(from_off - from_diag), 1e-9)
          << "band " << bands[ib] << " E index " << ie;
    }
  }
}

TEST(GppKernel, Eq8FlopAccounting) {
  GwCalculation& gw = si_prim_gw();
  const Wavefunctions& wf = gw.wavefunctions();
  const std::vector<idx> bands{0, 1};
  std::vector<ZMatrix> m_all(static_cast<std::size_t>(wf.n_bands()));
  for (idx n = 0; n < wf.n_bands(); ++n)
    m_all[static_cast<std::size_t>(n)] = gw.m_matrix_right(bands, n);

  const std::vector<double> e_grid{0.0, 0.2, 0.4};
  FlopCounter fc;
  const GppOffdiagKernel off(gw.gpp(), gw.coulomb());
  off.compute(m_all, wf.energy, wf.n_valence, e_grid, &fc);

  // The fused kernel executes ONE (T = conj(M) P; Sigma += T M^T) chain per
  // (n, E): standard-counted GEMM FLOPs are N_b N_E 8(N_S N_G^2 + N_G N_S^2)
  // — exactly half of the paper's Eq. 8, whose leading 2 counts the two
  // chained ZGEMMs at the combined cost (documented in EXPERIMENTS.md).
  const double expect = 0.5 * flop_model::gpp_offdiag_zgemm(
      2, wf.n_bands(), gw.n_g(), static_cast<idx>(e_grid.size()));
  EXPECT_NEAR(static_cast<double>(fc.total()), expect, 1e-6 * expect);
}

TEST(GppKernel, PerturbedZeroDmIsZero) {
  GwCalculation& gw = si_prim_gw();
  const Wavefunctions& wf = gw.wavefunctions();
  const std::vector<idx> bands{3, 4};
  std::vector<ZMatrix> m_all(static_cast<std::size_t>(wf.n_bands()));
  std::vector<ZMatrix> dm_all(static_cast<std::size_t>(wf.n_bands()));
  for (idx n = 0; n < wf.n_bands(); ++n) {
    m_all[static_cast<std::size_t>(n)] = gw.m_matrix_right(bands, n);
    dm_all[static_cast<std::size_t>(n)] = ZMatrix(2, gw.n_g());
  }
  const GppOffdiagKernel off(gw.gpp(), gw.coulomb());
  const std::vector<double> e_grid{0.1};
  const auto ds = off.compute_perturbed(m_all, dm_all, wf.energy,
                                        wf.n_valence, e_grid);
  EXPECT_LT(frobenius_norm(ds[0]), 1e-14);
}

TEST(GppKernel, PerturbedLinearInDm) {
  GwCalculation& gw = si_prim_gw();
  const Wavefunctions& wf = gw.wavefunctions();
  const std::vector<idx> bands{3, 4};
  std::vector<ZMatrix> m_all(static_cast<std::size_t>(wf.n_bands()));
  std::vector<ZMatrix> dm1(static_cast<std::size_t>(wf.n_bands()));
  std::vector<ZMatrix> dm2(static_cast<std::size_t>(wf.n_bands()));
  Rng rng(5);
  for (idx n = 0; n < wf.n_bands(); ++n) {
    m_all[static_cast<std::size_t>(n)] = gw.m_matrix_right(bands, n);
    ZMatrix d(2, gw.n_g());
    for (idx i = 0; i < d.size(); ++i) d.data()[i] = 0.01 * rng.normal_cplx();
    dm1[static_cast<std::size_t>(n)] = d;
    for (idx i = 0; i < d.size(); ++i) d.data()[i] *= 2.0;
    dm2[static_cast<std::size_t>(n)] = d;
  }
  const GppOffdiagKernel off(gw.gpp(), gw.coulomb());
  const std::vector<double> e_grid{0.1};
  const auto d1 = off.compute_perturbed(m_all, dm1, wf.energy, wf.n_valence,
                                        e_grid);
  const auto d2 = off.compute_perturbed(m_all, dm2, wf.energy, wf.n_valence,
                                        e_grid);
  ZMatrix twice = d1[0];
  for (idx i = 0; i < twice.size(); ++i) twice.data()[i] *= 2.0;
  EXPECT_LT(max_abs_diff(twice, d2[0]), 1e-10 * (1.0 + frobenius_norm(d2[0])));
}

TEST(GppKernel, MeasuredFlopsScaleWithParameters) {
  GwCalculation& gw = si_prim_gw();
  const Wavefunctions& wf = gw.wavefunctions();
  const GppDiagKernel kernel(gw.gpp(), gw.coulomb());
  const ZMatrix m_ln = gw.m_matrix_left(4);

  FlopCounter f1, f3;
  std::vector<SigmaParts> out;
  const std::vector<double> e1{0.1};
  const std::vector<double> e3{0.1, 0.2, 0.3};
  kernel.compute(m_ln, wf.energy, wf.n_valence, e1, out,
                 GppKernelVariant::kReference, &f1);
  kernel.compute(m_ln, wf.energy, wf.n_valence, e3, out,
                 GppKernelVariant::kReference, &f3);
  // Measured FLOPs are linear in N_E (Eq. 7 structure).
  EXPECT_NEAR(static_cast<double>(f3.total()),
              3.0 * static_cast<double>(f1.total()),
              0.02 * static_cast<double>(f3.total()));
}

}  // namespace
}  // namespace xgw
