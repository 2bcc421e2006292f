// Unit tests: dielectric matrix, dense inversion, Woodbury subspace inverse.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/epsilon.h"
#include "la/gemm.h"
#include "mf/hamiltonian.h"
#include "mf/solver.h"
#include "sched/executor.h"

namespace xgw {
namespace {

struct EpsFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    const EpmModel model = EpmModel::silicon(1);
    ham = new PwHamiltonian(model, 2.0);
    eps_sphere = new GSphere(model.crystal().lattice(), 0.9);
    wf = new Wavefunctions(solve_dense(*ham, 24));
    mtxel = new Mtxel(ham->sphere(), *eps_sphere, *wf);
    v = new CoulombPotential(model.crystal().lattice(), *eps_sphere,
                             CoulombScheme::kSphericalAverage);
    // Head-corrected static chi.
    ChiOptions opt;
    const cplx chi_bar = chi_head_reduced(
        *wf, ham->sphere(), ham->model().crystal().lattice(), 0.0, 1e-3);
    opt.head_value =
        chi_head_value(chi_bar, *v, ham->model().crystal().lattice());
    chi0 = new ZMatrix(chi_static(*mtxel, *wf, opt));
  }
  static void TearDownTestSuite() {
    delete chi0; delete v; delete mtxel; delete wf; delete eps_sphere;
    delete ham;
  }

  static PwHamiltonian* ham;
  static GSphere* eps_sphere;
  static Wavefunctions* wf;
  static Mtxel* mtxel;
  static CoulombPotential* v;
  static ZMatrix* chi0;
};

PwHamiltonian* EpsFixture::ham = nullptr;
GSphere* EpsFixture::eps_sphere = nullptr;
Wavefunctions* EpsFixture::wf = nullptr;
Mtxel* EpsFixture::mtxel = nullptr;
CoulombPotential* EpsFixture::v = nullptr;
ZMatrix* EpsFixture::chi0 = nullptr;

TEST_F(EpsFixture, InverseTimesEpsilonIsIdentity) {
  const ZMatrix e = epsilon_matrix(*chi0, *v);
  const ZMatrix einv = epsilon_inverse(*chi0, *v);
  ZMatrix prod(e.rows(), e.cols());
  zgemm(Op::kNone, Op::kNone, cplx{1, 0}, einv, e, cplx{}, prod);
  EXPECT_LT(max_abs_diff(prod, ZMatrix::identity(e.rows())), 1e-10);
}

TEST_F(EpsFixture, SemiconductorHeadPhysical) {
  const ZMatrix einv = epsilon_inverse(*chi0, *v);
  const double head = epsinv_head(einv);
  EXPECT_GT(head, 0.0);
  EXPECT_LT(head, 1.0);
}

TEST_F(EpsFixture, EpsilonDiagonalAboveOne) {
  // eps_GG = 1 - v chi_GG with chi_GG < 0: diagonal exceeds 1.
  const ZMatrix e = epsilon_matrix(*chi0, *v);
  for (idx g = 0; g < e.rows(); ++g) EXPECT_GT(e(g, g).real(), 1.0 - 1e-12);
}

TEST_F(EpsFixture, WoodburyFullRankMatchesDenseInverse) {
  // With N_Eig = N_G the subspace is complete: the Woodbury inverse must
  // reproduce the dense inverse of the rank-projected chi exactly — and
  // the projection at full rank is chi itself.
  const idx ng = eps_sphere->size();
  const Subspace sub = build_subspace(*chi0, *v, ng);
  // chi_B = C^H chi C.
  ZMatrix tmp(ng, ng), chi_b(ng, ng);
  zgemm(Op::kConjTrans, Op::kNone, cplx{1, 0}, sub.basis, *chi0, cplx{}, tmp);
  zgemm(Op::kNone, Op::kNone, cplx{1, 0}, tmp, sub.basis, cplx{}, chi_b);

  const LowRankEpsInv lr = epsilon_inverse_subspace(sub, chi_b, *v);
  const ZMatrix dense_inv = epsilon_inverse(*chi0, *v);
  EXPECT_LT(max_abs_diff(lr.dense(), dense_inv), 1e-8);
}

TEST_F(EpsFixture, WoodburyApplyMatchesDense) {
  const Subspace sub = build_subspace(*chi0, *v, 5);
  ZMatrix tmp(eps_sphere->size(), 5), chi_b(5, 5);
  zgemm(Op::kNone, Op::kNone, cplx{1, 0}, *chi0, sub.basis, cplx{}, tmp);
  zgemm(Op::kConjTrans, Op::kNone, cplx{1, 0}, sub.basis, tmp, cplx{}, chi_b);
  const LowRankEpsInv lr = epsilon_inverse_subspace(sub, chi_b, *v);
  const ZMatrix d = lr.dense();

  Rng rng(3);
  std::vector<cplx> x(static_cast<std::size_t>(eps_sphere->size()));
  for (auto& c : x) c = rng.normal_cplx();
  std::vector<cplx> y(x.size());
  lr.apply(x.data(), y.data());
  for (idx g = 0; g < eps_sphere->size(); ++g) {
    cplx acc{};
    for (idx gp = 0; gp < eps_sphere->size(); ++gp)
      acc += d(g, gp) * x[static_cast<std::size_t>(gp)];
    EXPECT_LT(std::abs(acc - y[static_cast<std::size_t>(g)]), 1e-10);
  }
}

TEST_F(EpsFixture, SubspaceErrorDecreasesWithRank) {
  const ZMatrix dense_inv = epsilon_inverse(*chi0, *v);
  double prev_err = 1e300;
  for (idx n_eig : {idx{2}, idx{5}, idx{10}, eps_sphere->size()}) {
    const Subspace sub = build_subspace(*chi0, *v, n_eig);
    ZMatrix tmp(eps_sphere->size(), n_eig), chi_b(n_eig, n_eig);
    zgemm(Op::kNone, Op::kNone, cplx{1, 0}, *chi0, sub.basis, cplx{}, tmp);
    zgemm(Op::kConjTrans, Op::kNone, cplx{1, 0}, sub.basis, tmp, cplx{},
          chi_b);
    const double err =
        max_abs_diff(epsilon_inverse_subspace(sub, chi_b, *v).dense(),
                     dense_inv);
    EXPECT_LT(err, prev_err + 1e-9);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-8);  // full rank exact
}

TEST_F(EpsFixture, ShapeChecks) {
  ZMatrix bad(3, 4);
  EXPECT_THROW(epsilon_matrix(bad, *v), Error);
}

// The frequency loop runs one scheduler task per frequency, each writing
// its own result slot: every eps^{-1}(omega_k) must be bitwise independent
// of the worker count.
TEST_F(EpsFixture, InverseMultiIsBitwiseInvariantAcrossWorkers) {
  const std::vector<double> omegas = {0.0, 0.07, 0.14, 0.21, 0.28, 0.35};
  ChiOptions copt;
  copt.nv_block = 2;

  sched::Executor::set_default_workers(1);
  const std::vector<ZMatrix> ref = epsilon_inverse_multi(
      *mtxel, *wf, *v, std::span<const double>(omegas), copt);

  for (int workers : {2, 4}) {
    sched::Executor::set_default_workers(workers);
    const std::vector<ZMatrix> got = epsilon_inverse_multi(
        *mtxel, *wf, *v, std::span<const double>(omegas), copt);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      ASSERT_EQ(got[k].rows(), ref[k].rows());
      for (idx i = 0; i < ref[k].size(); ++i)
        ASSERT_EQ(got[k].data()[i], ref[k].data()[i])
            << workers << " workers, omega index " << k << ", element " << i;
    }
  }
  sched::Executor::set_default_workers(0);
}

}  // namespace
}  // namespace xgw
