// Tests: multi-frequency CHI staging (chi_multi) — consistency with the
// single-frequency API, imaginary-axis analytic structure, per-frequency
// head installation.

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/chi.h"
#include "core/coulomb.h"
#include "mf/hamiltonian.h"
#include "mf/solver.h"

namespace xgw {
namespace {

struct ChiMultiFixture : public ::testing::Test {
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
PwHamiltonian* ChiMultiFixture::ham = nullptr;
GSphere* ChiMultiFixture::eps = nullptr;
Wavefunctions* ChiMultiFixture::wf = nullptr;
Mtxel* ChiMultiFixture::mtxel = nullptr;
CoulombPotential* ChiMultiFixture::v = nullptr;

TEST_F(ChiMultiFixture, MatchesSingleFrequencyCalls) {
  const std::vector<double> omegas{0.0, 0.2, 0.5};
  const auto multi = chi_multi(*mtxel, *wf, omegas);
  for (std::size_t k = 0; k < omegas.size(); ++k) {
    const ZMatrix single = chi_pw(*mtxel, *wf, omegas[k]);
    EXPECT_LT(max_abs_diff(multi[k], single), 1e-12) << "freq " << k;
  }
}

TEST_F(ChiMultiFixture, SubspaceMultiMatchesSingle) {
  const ZMatrix chi0 = chi_static(*mtxel, *wf);
  const Subspace sub = build_subspace(chi0, *v, 6);
  const std::vector<double> omegas{0.1, 0.4};
  const auto multi = chi_multi(*mtxel, *wf, omegas, {}, &sub);
  for (std::size_t k = 0; k < omegas.size(); ++k) {
    const ZMatrix single = chi_subspace(*mtxel, *wf, sub, omegas[k]);
    EXPECT_LT(max_abs_diff(multi[k], single), 1e-12);
  }
}

TEST_F(ChiMultiFixture, ImaginaryAxisHermitianNegative) {
  ChiOptions opt;
  opt.imaginary_axis = true;
  const std::vector<double> omegas{0.0, 0.3, 1.0, 5.0};
  const auto chis = chi_multi(*mtxel, *wf, omegas, opt);
  for (const ZMatrix& c : chis) {
    EXPECT_LT(hermiticity_error(c), 1e-10);
    for (idx g = 1; g < c.rows(); ++g) EXPECT_LT(c(g, g).real(), 0.0);
  }
  // Screening weakens monotonically along the imaginary axis.
  for (std::size_t k = 1; k < chis.size(); ++k)
    EXPECT_LT(std::abs(chis[k](1, 1)), std::abs(chis[k - 1](1, 1)) + 1e-15);
}

TEST_F(ChiMultiFixture, ImaginaryAxisZeroEqualsStatic) {
  ChiOptions im;
  im.imaginary_axis = true;
  ChiOptions st;
  st.eta = 0.0;
  const std::vector<double> zero{0.0};
  const auto a = chi_multi(*mtxel, *wf, zero, im);
  const auto b = chi_multi(*mtxel, *wf, zero, st);
  EXPECT_LT(max_abs_diff(a[0], b[0]), 1e-12);
}

#ifdef _OPENMP
TEST_F(ChiMultiFixture, BitwiseInvariantAcrossThreadCounts) {
  // Each frequency is owned by exactly one thread and accumulates its
  // valence blocks in the same serial order regardless of team size, so
  // the result must not move at all with OMP_NUM_THREADS.
  ChiOptions opt;
  opt.imaginary_axis = true;
  const std::vector<double> omegas{0.0, 0.2, 0.7, 1.5, 3.0};

  const int prev = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto serial = chi_multi(*mtxel, *wf, omegas, opt);
  omp_set_num_threads(4);
  const auto parallel = chi_multi(*mtxel, *wf, omegas, opt);
  omp_set_num_threads(prev);

  for (std::size_t k = 0; k < omegas.size(); ++k)
    EXPECT_EQ(max_abs_diff(serial[k], parallel[k]), 0.0) << "freq " << k;
}
#endif

TEST_F(ChiMultiFixture, PerFrequencyHeads) {
  const std::vector<double> omegas{0.0, 0.2};
  const std::vector<cplx> heads{cplx{-3.0, 0.0}, cplx{-1.0, 0.0}};
  const auto chis = chi_multi(*mtxel, *wf, omegas, {}, nullptr, heads);
  EXPECT_NEAR(chis[0](0, 0).real(), -3.0, 1e-12);
  EXPECT_NEAR(chis[1](0, 0).real(), -1.0, 1e-12);
}

TEST_F(ChiMultiFixture, RejectsBadArguments) {
  EXPECT_THROW(chi_multi(*mtxel, *wf, {}), Error);
  const std::vector<double> omegas{0.0, 0.1};
  const std::vector<cplx> one_head{cplx{1.0, 0.0}};
  EXPECT_THROW(chi_multi(*mtxel, *wf, omegas, {}, nullptr, one_head), Error);
}

}  // namespace
}  // namespace xgw
