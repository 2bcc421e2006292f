// Unit tests: LU factorization, solves and inversion.
//
// Golden hashes pin the output bits of invert and of both solve_in_place
// overloads, at any thread count and on worker teams.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.h"
#include "core/epsilon.h"
#include "la/gemm.h"
#include "la/lu.h"
#include "obs/report.h"
#include "sched/run_items.h"
#include "test_helpers.h"

namespace xgw {
namespace {

ZMatrix random_matrix(idx n, Rng& rng) {
  ZMatrix m(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) m(i, j) = rng.normal_cplx();
  return m;
}

// FNV-1a over the bits of a run of complex values (real then imaginary
// part of each entry; matrices row-major).
std::uint64_t bits_of(const cplx* data, idx count) {
  return obs::fnv1a({reinterpret_cast<const char*>(data),
                     static_cast<std::size_t>(count) * sizeof(cplx)});
}

std::uint64_t matrix_bits(const ZMatrix& m) {
  return bits_of(m.data(), m.size());
}

// Seeded golden inputs. Random entries make partial pivoting swap rows.
// kBanded zeroes every entry more than three below the diagonal, so most
// multipliers l_ik are exactly zero and their row updates are skipped. The
// zeros carry alternating signs, and scattered off-diagonal entries get a
// -0.0 real or imaginary part, so the skip test and the subtractions both
// see signed zeros.
enum class Shape { kDense, kBanded };

ZMatrix golden_matrix(idx n, Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  ZMatrix a(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) {
      cplx z = rng.normal_cplx();
      if (i != j && (i * 7 + j * 3) % 11 == 0) z = cplx{-0.0, z.imag()};
      if (i != j && (i * 5 + j) % 13 == 0) z = cplx{z.real(), -0.0};
      if (shape == Shape::kBanded && i > j + 3)
        z = (i + j) % 2 == 0 ? cplx{-0.0, 0.0} : cplx{0.0, -0.0};
      a(i, j) = z;
    }
  return a;
}

ZMatrix golden_rhs(idx n, idx m, std::uint64_t seed) {
  Rng rng(seed);
  ZMatrix b(n, m);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < m; ++j)
      b(i, j) = (i + 2 * j) % 9 == 0 ? cplx{-0.0, 0.0} : rng.normal_cplx();
  return b;
}

// Golden output bits of invert and of both solve_in_place overloads. They
// were generated once from the build of the column-at-a-time solve that
// the row-oriented one replaced (GCC 12, -O3 -march=native, FMA
// contraction on), before lu.cpp was touched. lu.cpp pins its rounding
// with explicit std::fma, so every build reproduces them at any thread
// count (n = 130 and 283 take the threaded path). eps^{-1} feeds every
// Sigma route, so changing any of them is a numerics change that moves the
// QP energies and the serve CAS entries, never a routine re-pin.
struct GoldenLu {
  idx n;
  Shape shape;
  std::uint64_t bits;
};

// invert(golden_matrix(n, shape, 2000 + n)).
constexpr GoldenLu kGoldenInvert[] = {
    {1, Shape::kDense, 0x61a6a4016c68c427ULL},
    {2, Shape::kDense, 0x84c860075191d8e2ULL},
    {16, Shape::kDense, 0x06a1adc25bd08d42ULL},
    {40, Shape::kDense, 0x4276e4bc72f33f2cULL},
    {130, Shape::kDense, 0x34e7e48fe071f0f5ULL},
    {283, Shape::kDense, 0xfb08006d1163963bULL},
    {16, Shape::kBanded, 0x26a87fc7f8a55db5ULL},
    {40, Shape::kBanded, 0x4b30ef91e70fd9daULL},
    {130, Shape::kBanded, 0xddc7f7cf8229b328ULL},
    {283, Shape::kBanded, 0x75637943c4147b05ULL},
};

TEST(LuGolden, InvertOutputBits) {
  for (const GoldenLu& g : kGoldenInvert) {
    const ZMatrix a =
        golden_matrix(g.n, g.shape, 2000 + static_cast<std::uint64_t>(g.n));
    const std::uint64_t got = matrix_bits(invert(a));
    EXPECT_EQ(got, g.bits) << "n=" << g.n << " banded="
                           << (g.shape == Shape::kBanded) << std::hex
                           << " got 0x" << got;
  }
}

// LuFactorization(golden_matrix(n, shape, 3000 + n)) solving
// golden_rhs(n, m, 4000 + n + m) as a ZMatrix, and that right-hand side's
// first column as a std::vector.
constexpr struct {
  idx n, m;
  Shape shape;
  std::uint64_t matrix_rhs, vector_rhs;
} kGoldenSolve[] = {
    {1, 3, Shape::kDense, 0x81f5687eba62d3b5ULL, 0x881f9fb960fe8ae5ULL},
    {2, 5, Shape::kDense, 0xe48a8ff102199290ULL, 0x8758448a107edbcfULL},
    {16, 7, Shape::kBanded, 0xff5d9488aa0bf74eULL, 0x497d159215c31eceULL},
    {40, 40, Shape::kDense, 0x509c260244ce592aULL, 0x06712bf1af0cc008ULL},
    {130, 150, Shape::kBanded, 0xfc00298b8a8a6cacULL, 0x2994c9d8ac5bad5bULL},
    {283, 9, Shape::kDense, 0x7ae4fb446c87e01aULL, 0x7d6817a703da77edULL},
    {283, 283, Shape::kBanded, 0x8cd5841c050b3cc2ULL, 0xc800196479c3af45ULL},
};

TEST(LuGolden, SolveOutputBits) {
  for (const auto& g : kGoldenSolve) {
    const LuFactorization lu(
        golden_matrix(g.n, g.shape, 3000 + static_cast<std::uint64_t>(g.n)));
    ZMatrix b =
        golden_rhs(g.n, g.m, 4000 + static_cast<std::uint64_t>(g.n + g.m));
    std::vector<cplx> col(static_cast<std::size_t>(g.n));
    for (idx i = 0; i < g.n; ++i) col[static_cast<std::size_t>(i)] = b(i, 0);
    lu.solve_in_place(b);
    lu.solve_in_place(col);
    const std::uint64_t got_m = matrix_bits(b);
    const std::uint64_t got_v = bits_of(col.data(), g.n);
    EXPECT_EQ(got_m, g.matrix_rhs) << "n=" << g.n << " m=" << g.m << std::hex
                                   << " got 0x" << got_m;
    EXPECT_EQ(got_v, g.vector_rhs) << "n=" << g.n << std::hex << " got 0x"
                                   << got_v;
  }
}

// eps = I - v chi0 of the Si primitive cell. chi0 comes from the GEMM
// engine, whose tiles fix its summation order per ISA, so the output
// golden applies where the input bits match the golden build's; the
// seeded goldens above check the LU in every build.
TEST(LuGolden, SiliconEpsilonOutputBits) {
  GwCalculation& gw = testutil::si_prim_gw();
  const ZMatrix eps = epsilon_matrix(gw.chi0(), gw.coulomb());
  constexpr std::uint64_t kSiInput = 0x8a07ff5cf8c7892eULL;
  constexpr std::uint64_t kSiOutput = 0xc646e8b66e89df77ULL;
  if (matrix_bits(eps) != kSiInput)
    GTEST_SKIP() << "this build rounds the Si primitive eps differently "
                    "from the golden build"
                 << std::hex << " (0x" << matrix_bits(eps) << ")";
  const std::uint64_t got = matrix_bits(invert(eps));
  EXPECT_EQ(got, kSiOutput) << std::hex << "got 0x" << got;
  EXPECT_EQ(matrix_bits(epsilon_inverse(gw.chi0(), gw.coulomb())), kSiOutput);
}

class LuSizes : public ::testing::TestWithParam<idx> {};

TEST_P(LuSizes, SolveRecoversKnownSolution) {
  const idx n = GetParam();
  Rng rng(40 + static_cast<std::uint64_t>(n));
  const ZMatrix a = random_matrix(n, rng);
  std::vector<cplx> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.normal_cplx();

  std::vector<cplx> b(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    cplx acc{};
    for (idx j = 0; j < n; ++j) acc += a(i, j) * x_true[static_cast<std::size_t>(j)];
    b[static_cast<std::size_t>(i)] = acc;
  }

  LuFactorization lu(a);
  lu.solve_in_place(b);
  for (idx i = 0; i < n; ++i)
    EXPECT_LT(std::abs(b[static_cast<std::size_t>(i)] -
                       x_true[static_cast<std::size_t>(i)]),
              1e-9 * static_cast<double>(n));
}

TEST_P(LuSizes, InverseTimesMatrixIsIdentity) {
  const idx n = GetParam();
  Rng rng(50 + static_cast<std::uint64_t>(n));
  const ZMatrix a = random_matrix(n, rng);
  const ZMatrix ainv = invert(a);
  ZMatrix prod(n, n);
  zgemm(Op::kNone, Op::kNone, cplx{1, 0}, ainv, a, cplx{}, prod);
  EXPECT_LT(max_abs_diff(prod, ZMatrix::identity(n)),
            1e-9 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizes, ::testing::Values<idx>(1, 2, 5, 16, 40));

TEST(Lu, SingularMatrixThrows) {
  ZMatrix a(3, 3);  // rank 1
  for (idx i = 0; i < 3; ++i)
    for (idx j = 0; j < 3; ++j) a(i, j) = static_cast<double>((i + 1) * (j + 1));
  EXPECT_THROW(LuFactorization{a}, Error);
}

TEST(Lu, MultiRhsSolve) {
  Rng rng(60);
  const idx n = 12;
  const ZMatrix a = random_matrix(n, rng);
  const ZMatrix x_true = random_matrix(n, rng);
  ZMatrix x(n, n);
  zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, x_true, cplx{}, x);
  LuFactorization(a).solve_in_place(x);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-8);
}

// Non-finite input is rejected on entry as a validation error wherever it
// sits: a NaN on the pivot diagonal must not pass for a singular matrix,
// and an Inf below the diagonal must not factorize into a finite, wrong
// inverse.
TEST(Lu, RejectsNonFiniteInput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    idx i, j;
    cplx z;
  } cases[] = {{0, 0, cplx{0.5, nan}}, {5, 0, cplx{inf, 0.0}}};
  for (const auto& c : cases) {
    Rng rng(62);
    ZMatrix a = random_matrix(8, rng);
    a(c.i, c.j) = c.z;
    for (int path = 0; path < 2; ++path) {
      try {
        if (path == 0) {
          LuFactorization{a};
        } else {
          ZMatrix b = a;
          invert_in_place(b);
        }
        ADD_FAILURE() << c.z << " at (" << c.i << ", " << c.j << ") accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kValidation)
            << c.z << " at (" << c.i << ", " << c.j << "): " << e.what();
      }
    }
  }
}

// The solve splits its right-hand-side columns over OpenMP threads from
// n = 128 on and runs on one thread inside an active OpenMP region or on a
// scheduler worker team; the bits are the same in every case, and
// invert_in_place gives invert's bits.
TEST(Lu, InverseIsBitwiseInvariantAcrossThreads) {
  const ZMatrix a = golden_matrix(200, Shape::kDense, 4242);
  const std::uint64_t ref = matrix_bits(invert(a));
  ZMatrix in_place = a;
  invert_in_place(in_place);
  EXPECT_EQ(matrix_bits(in_place), ref) << "invert_in_place";
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (int t : {1, 2, 4}) {
    omp_set_num_threads(t);
    EXPECT_EQ(matrix_bits(invert(a)), ref) << t << " OpenMP threads";
  }
  omp_set_num_threads(saved);
  std::vector<std::uint64_t> in_region(2);
  int team = 0;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    team = omp_get_num_threads();
    in_region[static_cast<std::size_t>(omp_get_thread_num())] =
        matrix_bits(invert(a));
  }
  for (int t = 0; t < team; ++t)
    EXPECT_EQ(in_region[static_cast<std::size_t>(t)], ref)
        << "thread " << t << " of a " << team << "-thread parallel region";
#endif
  std::vector<std::uint64_t> on_workers(4);
  sched::run_items(
      4,
      [&](idx i) {
        on_workers[static_cast<std::size_t>(i)] = matrix_bits(invert(a));
      },
      4, "lu");
  for (std::uint64_t bits : on_workers)
    EXPECT_EQ(bits, ref) << "on a 4-worker task team";
}

}  // namespace
}  // namespace xgw
