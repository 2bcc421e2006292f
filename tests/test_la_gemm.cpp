// Unit + property tests: ZGEMM variants and ZGEMV.
//
// The cache-blocked engine (serial kSimd, team-parallel kParallel, and the
// zgemm_batch driver they share) must agree with the reference triple loop
// for every op combination and for shapes that exercise tile remainders —
// these are the exact code paths the GPP off-diag kernel (Sec. 5.6) relies
// on for its throughput.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.h"
#include "la/autotune.h"
#include "la/gemm.h"
#include "la/simd.h"

namespace xgw {
namespace {

ZMatrix random_matrix(idx r, idx c, Rng& rng) {
  ZMatrix m(r, c);
  for (idx i = 0; i < r; ++i)
    for (idx j = 0; j < c; ++j) m(i, j) = rng.normal_cplx();
  return m;
}

// (m, n, k) shapes: tiny, odd remainders, larger-than-one-tile.
using Shape = std::tuple<idx, idx, idx>;

class GemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapes, BlockedMatchesReferenceAllOps) {
  const auto [m, n, k] = GetParam();
  Rng rng(17 + static_cast<std::uint64_t>(m * 1000 + n * 10 + k));

  for (Op opa : {Op::kNone, Op::kTrans, Op::kConjTrans}) {
    for (Op opb : {Op::kNone, Op::kTrans, Op::kConjTrans}) {
      const ZMatrix a = (opa == Op::kNone) ? random_matrix(m, k, rng)
                                           : random_matrix(k, m, rng);
      const ZMatrix b = (opb == Op::kNone) ? random_matrix(k, n, rng)
                                           : random_matrix(n, k, rng);
      ZMatrix c0 = random_matrix(m, n, rng);
      ZMatrix c1 = c0, c2 = c0, c3 = c0;

      const cplx alpha{1.3, -0.4}, beta{0.2, 0.7};
      zgemm(opa, opb, alpha, a, b, beta, c0, GemmVariant::kReference);
      zgemm(opa, opb, alpha, a, b, beta, c1, GemmVariant::kSimd);
      zgemm(opa, opb, alpha, a, b, beta, c2, GemmVariant::kParallel);
      zgemm(opa, opb, alpha, a, b, beta, c3, GemmVariant::kAuto);

      const double tol = 1e-11 * static_cast<double>(k + 1);
      EXPECT_LT(max_abs_diff(c0, c1), tol)
          << "simd mismatch at opa=" << static_cast<int>(opa)
          << " opb=" << static_cast<int>(opb);
      EXPECT_LT(max_abs_diff(c0, c2), tol) << "parallel mismatch";
      EXPECT_LT(max_abs_diff(c0, c3), tol) << "auto mismatch";
      // Both run the engine with a fixed k-block accumulation order per C
      // tile, so the serial (kSimd) and team-parallel (kParallel) drivers
      // must agree bitwise.
      EXPECT_EQ(max_abs_diff(c1, c2), 0.0)
          << "engine serial/parallel not bitwise-equal";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(Shape{1, 1, 1}, Shape{2, 3, 4}, Shape{7, 5, 9},
                      Shape{16, 16, 16}, Shape{65, 33, 129},
                      Shape{70, 260, 140}, Shape{128, 1, 64},
                      Shape{1, 300, 5},
                      // K-block remainder tails and prime dims for the
                      // strip-packing paths.
                      Shape{130, 70, 257}, Shape{31, 67, 131},
                      Shape{64, 256, 128}));

bool all_finite(const ZMatrix& c) {
  for (idx i = 0; i < c.size(); ++i)
    if (!std::isfinite(c.data()[i].real()) ||
        !std::isfinite(c.data()[i].imag()))
      return false;
  return true;
}

TEST(Gemm, BetaZeroOverwritesNanFreeEvenFromGarbage) {
  // beta = 0 must not propagate pre-existing NaN/Inf in C — on every
  // variant (8^3 is below the kAuto cutoff, so kAuto takes the reference
  // loop) and on both zgemm_batch paths.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const idx n : {8, 40}) {
    Rng rng(3);
    const ZMatrix a = random_matrix(n, n, rng);
    const ZMatrix b = random_matrix(n, n, rng);
    for (const GemmVariant v :
         {GemmVariant::kReference, GemmVariant::kSimd, GemmVariant::kParallel,
          GemmVariant::kAuto}) {
      ZMatrix c(n, n, cplx{nan, nan});
      zgemm(Op::kNone, Op::kNone, cplx{1.0, 0.0}, a, b, cplx{}, c, v);
      EXPECT_TRUE(all_finite(c)) << "variant " << static_cast<int>(v)
                                 << " n=" << n;
    }
    // n = 8 is a tiny batch (reference loop per item), n = 40 the engine;
    // the garbage rows outside the window must stay untouched.
    ZMatrix tall(n + 2, n, cplx{nan, nan});
    const std::vector<GemmBatchItem> items{{&a, &tall, 1}};
    zgemm_batch(Op::kNone, Op::kNone, cplx{1.0, 0.0}, items, b, cplx{});
    for (idx i = 0; i < n + 2; ++i)
      for (idx j = 0; j < n; ++j)
        EXPECT_EQ(std::isfinite(tall(i, j).real()), i >= 1 && i <= n)
            << "batch n=" << n << " at (" << i << "," << j << ")";
  }
}

TEST(Gemm, ShapeMismatchThrows) {
  ZMatrix a(3, 4), b(5, 6), c(3, 6);
  EXPECT_THROW(
      zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c), Error);
  ZMatrix b2(4, 6), cbad(2, 6);
  EXPECT_THROW(
      zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b2, cplx{}, cbad), Error);
}

TEST(Gemm, ConjTransEqualsManualAdjoint) {
  Rng rng(5);
  const ZMatrix a = random_matrix(6, 9, rng);
  const ZMatrix b = random_matrix(6, 7, rng);
  ZMatrix c(9, 7), cref(9, 7);
  zgemm(Op::kConjTrans, Op::kNone, cplx{1, 0}, a, b, cplx{}, c,
        GemmVariant::kSimd);
  const ZMatrix ah = adjoint(a);
  zgemm(Op::kNone, Op::kNone, cplx{1, 0}, ah, b, cplx{}, cref,
        GemmVariant::kReference);
  EXPECT_LT(max_abs_diff(c, cref), 1e-12);
}

TEST(Gemm, FlopCounterAccumulatesCanonicalCount) {
  Rng rng(9);
  const ZMatrix a = random_matrix(10, 20, rng);
  const ZMatrix b = random_matrix(20, 30, rng);
  ZMatrix c(10, 30);
  FlopCounter fc;
  zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c,
        GemmVariant::kParallel, &fc);
  EXPECT_EQ(fc.total(), static_cast<std::uint64_t>(8 * 10 * 20 * 30));
}

class ZherkShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(ZherkShapes, MatchesZgemmAndIsHermitian) {
  // C += A^H B with B = diag(w) A, w real => the update is Hermitian.
  const auto [p, n, unused] = GetParam();
  (void)unused;
  Rng rng(41 + static_cast<std::uint64_t>(p * 100 + n));
  const ZMatrix a = random_matrix(p, n, rng);
  ZMatrix b(p, n);
  for (idx i = 0; i < p; ++i) {
    const double w = 0.1 + static_cast<double>(i % 7);
    for (idx j = 0; j < n; ++j) b(i, j) = w * a(i, j);
  }

  // Start from a Hermitian C so the result stays Hermitian.
  ZMatrix c0(n, n);
  for (idx i = 0; i < n; ++i) {
    c0(i, i) = cplx{static_cast<double>(i), 0.0};
    for (idx j = i + 1; j < n; ++j) {
      c0(i, j) = rng.normal_cplx();
      c0(j, i) = std::conj(c0(i, j));
    }
  }
  ZMatrix c1 = c0, c2 = c0, c3 = c0, c4 = c0;
  zgemm(Op::kConjTrans, Op::kNone, cplx{1, 0}, a, b, cplx{1, 0}, c0,
        GemmVariant::kReference);
  zherk_update(a, b, c1, GemmVariant::kReference);
  zherk_update(a, b, c2, GemmVariant::kAuto);
  zherk_update(a, b, c3, GemmVariant::kSimd);
  zherk_update(a, b, c4, GemmVariant::kParallel);

  const double tol = 1e-11 * static_cast<double>(p + 1);
  EXPECT_LT(max_abs_diff(c0, c1), tol) << "zherk(reference) vs zgemm";
  EXPECT_LT(max_abs_diff(c0, c2), tol) << "zherk(auto) vs zgemm";
  EXPECT_LT(max_abs_diff(c0, c3), tol) << "zherk(simd) vs zgemm";
  EXPECT_EQ(max_abs_diff(c3, c4), 0.0)
      << "zherk engine serial/parallel not bitwise-equal";
  for (const ZMatrix* c : {&c1, &c3}) {
    for (idx i = 0; i < n; ++i) {
      EXPECT_EQ((*c)(i, i).imag(), 0.0) << "diagonal must be exactly real";
      for (idx j = i + 1; j < n; ++j)
        EXPECT_EQ((*c)(j, i), std::conj((*c)(i, j)))
            << "mirror must be exact at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZherkShapes,
    ::testing::Values(Shape{1, 1, 0}, Shape{5, 3, 0}, Shape{33, 65, 0},
                      Shape{129, 64, 0}, Shape{70, 131, 0},
                      Shape{257, 90, 0}));

TEST(Zherk, FlopCounterUsesHermitianModel) {
  Rng rng(43);
  const ZMatrix a = random_matrix(12, 10, rng);
  const ZMatrix b = a;
  ZMatrix c(10, 10);
  FlopCounter fc;
  zherk_update(a, b, c, GemmVariant::kSimd, &fc);
  EXPECT_EQ(fc.total(),
            static_cast<std::uint64_t>(flop_model::zherk(10, 12)));
}

TEST(Zherk, ShapeMismatchThrows) {
  ZMatrix a(5, 4), b(6, 4), c(4, 4);
  EXPECT_THROW(zherk_update(a, b, c), Error);
  ZMatrix b2(5, 4), cbad(4, 5);
  EXPECT_THROW(zherk_update(a, b2, cbad), Error);
}

#ifdef _OPENMP
TEST(Gemm, NestedCallInsideParallelRegionStaysCorrect) {
  // Each thread issues its own kParallel/kAuto GEMM; in_parallel_region()
  // must degrade them to the serial engine, not oversubscribe or race.
  Rng rng(59);
  const idx m = 40, n = 36, k = 70;
  const ZMatrix a = random_matrix(m, k, rng);
  const ZMatrix b = random_matrix(k, n, rng);
  ZMatrix cref(m, n);
  zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, cref,
        GemmVariant::kReference);

  std::vector<ZMatrix> cs(4, ZMatrix(m, n));
#pragma omp parallel for num_threads(4)
  for (int t = 0; t < 4; ++t)
    zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, cs[static_cast<std::size_t>(t)],
          t % 2 == 0 ? GemmVariant::kParallel : GemmVariant::kAuto);

  for (const ZMatrix& c : cs)
    EXPECT_LT(max_abs_diff(c, cref), 1e-11 * static_cast<double>(k + 1));
}
#endif

// ---------------------------------------------------------------------------
// The engine: dispatch policy, micro-kernel parity, batched API.

// Every ISA level the host can actually execute, scalar first.
std::vector<la::SimdIsa> reachable_isas() {
  std::vector<la::SimdIsa> v{la::SimdIsa::kScalar};
  if (la::detected_simd_isa() >= la::SimdIsa::kAvx2)
    v.push_back(la::SimdIsa::kAvx2);
  if (la::detected_simd_isa() >= la::SimdIsa::kAvx512)
    v.push_back(la::SimdIsa::kAvx512);
  return v;
}

TEST(GemmDispatch, AutoNeverPicksParallelInsideParallelRegion) {
  // Large enough that kAuto picks kParallel when a team is available.
  const idx big = 128;
  // Tiny / mid shapes for the crossover half of the regression.
  const idx mid = 48;

  EXPECT_EQ(resolved_gemm_variant(GemmVariant::kAuto, 2, 2, 2),
            GemmVariant::kReference);
  EXPECT_EQ(resolved_gemm_variant(GemmVariant::kAuto, mid, mid, mid),
            GemmVariant::kSimd);

#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
  if (xgw_num_threads() > 1) {
    EXPECT_EQ(resolved_gemm_variant(GemmVariant::kAuto, big, big, big),
              GemmVariant::kParallel);
    EXPECT_EQ(resolved_gemm_variant(GemmVariant::kParallel, big, big, big),
              GemmVariant::kParallel);

    // Inside an active region the SAME shapes must cross over to the serial
    // engine at the dispatch point — including an EXPLICIT kParallel
    // request — so traces attribute the variant that actually ran.
#pragma omp parallel num_threads(2)
    {
#pragma omp single
      {
        EXPECT_EQ(resolved_gemm_variant(GemmVariant::kAuto, big, big, big),
                  GemmVariant::kSimd);
        EXPECT_EQ(
            resolved_gemm_variant(GemmVariant::kParallel, big, big, big),
            GemmVariant::kSimd);
        EXPECT_EQ(resolved_gemm_variant(GemmVariant::kAuto, 2, 2, 2),
                  GemmVariant::kReference);
      }
    }
  }
  omp_set_num_threads(saved);
#endif

  // Explicit serial variants are never rewritten.
  EXPECT_EQ(resolved_gemm_variant(GemmVariant::kReference, big, big, big),
            GemmVariant::kReference);
  EXPECT_EQ(resolved_gemm_variant(GemmVariant::kSimd, 2, 2, 2),
            GemmVariant::kSimd);
}

#ifdef _OPENMP
TEST(GemmDispatch, NestedAutoAtShapeCrossoverMatchesReference) {
  // Regression for the nested-call shape crossover: shapes straddling the
  // parallel cutoff, issued from inside a parallel region, must all run
  // correctly through the degraded (serial engine) path.
  Rng rng(61);
  const std::vector<Shape> shapes = {Shape{16, 16, 16}, Shape{48, 48, 48},
                                     Shape{64, 64, 65}, Shape{80, 90, 100}};
  for (const auto& [m, n, k] : shapes) {
    const ZMatrix a = random_matrix(m, k, rng);
    const ZMatrix b = random_matrix(k, n, rng);
    ZMatrix cref(m, n);
    zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, cref,
          GemmVariant::kReference);

    std::vector<ZMatrix> cs(4, ZMatrix(m, n));
#pragma omp parallel for num_threads(4)
    for (int t = 0; t < 4; ++t)
      zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{},
            cs[static_cast<std::size_t>(t)],
            t % 2 == 0 ? GemmVariant::kParallel : GemmVariant::kAuto);

    for (const ZMatrix& c : cs)
      EXPECT_LT(max_abs_diff(c, cref), 1e-11 * static_cast<double>(k + 1))
          << "shape " << m << "x" << n << "x" << k;
  }
}
#endif

/// The engine's one configuration for `isa`: its micro-kernel at the one
/// cache tiling.
GemmV3Config isa_config(la::SimdIsa isa) {
  const la::AutotuneResult d = la::default_autotune(isa);
  return {d.isa, d.mr, d.nr, d.mc, d.kc, d.nc};
}

// The parity suite's shapes: every ISA's kernel against kReference.
constexpr idx kParityDims[] = {1, 7, 31, 33, 97, 128};
const std::vector<Shape> kParityOpShapes = {Shape{31, 33, 97},
                                            Shape{33, 97, 31}};
constexpr Op kOps[] = {Op::kNone, Op::kTrans, Op::kConjTrans};

TEST(GemmEngine, ActiveConfigIsTheIsaDefault) {
  // Nothing but the ISA chooses the engine's kernel and tiling: no input
  // key, environment variable or autotune cache content.
  const GemmV3Config& a = gemm_v3_active_config();
  const la::AutotuneResult d = la::default_autotune(la::detected_simd_isa());
  EXPECT_EQ(a.isa, d.isa);
  EXPECT_EQ(a.mr, d.mr);
  EXPECT_EQ(a.nr, d.nr);
  EXPECT_EQ(a.mc, d.mc);
  EXPECT_EQ(a.kc, d.kc);
  EXPECT_EQ(a.nc, d.nc);
  const GemmTiling t = gemm_tiling();
  EXPECT_EQ(t.mc, d.mc);
  EXPECT_EQ(t.kc, d.kc);
  EXPECT_EQ(t.nc, d.nc);
}

TEST(SimdMicroKernels, ParitySweepPrimeAndRemainderShapesAllReachableIsas) {
  // Each ISA's micro-kernel reachable on THIS host must match kReference
  // across prime/remainder shapes.
  const cplx alpha{1.1, -0.3}, beta{0.4, 0.2};

  for (const idx m : kParityDims) {
    for (const idx n : kParityDims) {
      for (const idx k : kParityDims) {
        Rng rng(101 + static_cast<std::uint64_t>(m * 10000 + n * 100 + k));
        const ZMatrix a = random_matrix(m, k, rng);
        const ZMatrix b = random_matrix(k, n, rng);
        ZMatrix cref = random_matrix(m, n, rng);
        const ZMatrix cinit = cref;
        zgemm(Op::kNone, Op::kNone, alpha, a, b, beta, cref,
              GemmVariant::kReference);
        const double tol = 1e-11 * static_cast<double>(k + 1);

        for (const la::SimdIsa isa : reachable_isas()) {
          const GemmV3Config cfg = isa_config(isa);
          ZMatrix c = cinit;
          zgemm_v3_explicit(cfg, Op::kNone, Op::kNone, alpha, a, b, beta, c,
                            /*parallel=*/false);
          EXPECT_LT(max_abs_diff(cref, c), tol)
              << "isa=" << la::simd_isa_name(isa) << " shape " << m << "x"
              << n << "x" << k;
        }
      }
    }
  }
}

TEST(SimdMicroKernels, ParityAllOpsAndOddCacheTilesOnRemainderShapes) {
  // All nine op combinations plus deliberately awkward KC/NC (remainder in
  // every cache loop) on a couple of prime shapes, per reachable ISA.
  const cplx alpha{0.8, 0.5}, beta{-0.2, 0.9};

  for (const auto& [m, n, k] : kParityOpShapes) {
    for (Op opa : kOps) {
      for (Op opb : kOps) {
        Rng rng(211 + static_cast<std::uint64_t>(m + n + k) +
                static_cast<std::uint64_t>(opa) * 7 +
                static_cast<std::uint64_t>(opb) * 3);
        const ZMatrix a = (opa == Op::kNone) ? random_matrix(m, k, rng)
                                             : random_matrix(k, m, rng);
        const ZMatrix b = (opb == Op::kNone) ? random_matrix(k, n, rng)
                                             : random_matrix(n, k, rng);
        ZMatrix cref = random_matrix(m, n, rng);
        const ZMatrix cinit = cref;
        zgemm(opa, opb, alpha, a, b, beta, cref, GemmVariant::kReference);
        const double tol = 1e-11 * static_cast<double>(k + 1);

        for (const la::SimdIsa isa : reachable_isas()) {
          GemmV3Config cfg = isa_config(isa);
          cfg.mc = 32;
          cfg.kc = 48;
          cfg.nc = 80;
          ZMatrix c = cinit;
          zgemm_v3_explicit(cfg, opa, opb, alpha, a, b, beta, c,
                            /*parallel=*/false);
          EXPECT_LT(max_abs_diff(cref, c), tol)
              << "isa=" << la::simd_isa_name(isa)
              << " opa=" << static_cast<int>(opa)
              << " opb=" << static_cast<int>(opb);
        }
      }
    }
  }
}

// AVX2 (2x8) and AVX-512 (4x16) run the same fmadd/fnmadd sequence per C
// element, and the engine around them does not depend on the tile, so at the
// one cache tiling the two engines agree bit for bit.
TEST(SimdMicroKernels, Avx2AndAvx512AreBitwiseEqualAtTheOneTiling) {
  if (la::detected_simd_isa() < la::SimdIsa::kAvx512)
    GTEST_SKIP() << "AVX-512 is not reachable on this host";
  const GemmV3Config avx2 = isa_config(la::SimdIsa::kAvx2);
  const GemmV3Config avx512 = isa_config(la::SimdIsa::kAvx512);
  const cplx alpha{1.1, -0.3}, beta{0.4, 0.2};

  auto check = [&](Op opa, Op opb, idx m, idx n, idx k) {
    Rng rng(401 + static_cast<std::uint64_t>(m * 10000 + n * 100 + k) +
            static_cast<std::uint64_t>(opa) * 7 +
            static_cast<std::uint64_t>(opb) * 3);
    const ZMatrix a = (opa == Op::kNone) ? random_matrix(m, k, rng)
                                         : random_matrix(k, m, rng);
    const ZMatrix b = (opb == Op::kNone) ? random_matrix(k, n, rng)
                                         : random_matrix(n, k, rng);
    ZMatrix c2 = random_matrix(m, n, rng);
    ZMatrix c5 = c2;
    zgemm_v3_explicit(avx2, opa, opb, alpha, a, b, beta, c2,
                      /*parallel=*/false);
    zgemm_v3_explicit(avx512, opa, opb, alpha, a, b, beta, c5,
                      /*parallel=*/false);
    EXPECT_EQ(std::memcmp(c2.data(), c5.data(),
                          sizeof(cplx) * static_cast<std::size_t>(c2.size())),
              0)
        << "opa=" << static_cast<int>(opa) << " opb=" << static_cast<int>(opb)
        << " shape " << m << "x" << n << "x" << k;
  };
  for (const idx m : kParityDims)
    for (const idx n : kParityDims)
      for (const idx k : kParityDims) check(Op::kNone, Op::kNone, m, n, k);
  for (const auto& [m, n, k] : kParityOpShapes)
    for (Op opa : kOps)
      for (Op opb : kOps) check(opa, opb, m, n, k);
  // Past one KC and one NC block, so the k-blocks are summed in C.
  check(Op::kNone, Op::kNone, 65, 300, 300);
}

TEST(ZgemmBatch, MatchesPerCallReferenceWithHeterogeneousRowCounts) {
  Rng rng(307);
  const idx n = 64, k = 96;
  const std::vector<idx> ms = {5, 64, 33, 128, 1, 97};
  const ZMatrix b = random_matrix(k, n, rng);
  const cplx alpha{1.2, 0.1}, beta{0.3, -0.4};

  std::vector<ZMatrix> as, cs, crefs;
  for (const idx m : ms) {
    as.push_back(random_matrix(m, k, rng));
    cs.push_back(random_matrix(m, n, rng));
    crefs.push_back(cs.back());
  }
  std::vector<GemmBatchItem> items;
  for (std::size_t i = 0; i < ms.size(); ++i)
    items.push_back({&as[i], &cs[i]});

  FlopCounter fc;
  zgemm_batch(Op::kNone, Op::kNone, alpha, items, b, beta, &fc);

  std::uint64_t want_flops = 0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    zgemm(Op::kNone, Op::kNone, alpha, as[i], b, beta, crefs[i],
          GemmVariant::kReference);
    EXPECT_LT(max_abs_diff(cs[i], crefs[i]),
              1e-11 * static_cast<double>(k + 1))
        << "batch item " << i;
    want_flops += static_cast<std::uint64_t>(
        flop_model::zgemm(ms[i], n, k));
  }
  EXPECT_EQ(fc.total(), want_flops)
      << "batch must count the canonical sum of per-item FLOPs";
}

TEST(ZgemmBatch, TransposedSharedOperandAndEmptyBatch) {
  Rng rng(311);
  const idx m = 40, n = 48, k = 56;
  const ZMatrix a = random_matrix(k, m, rng);   // op(A) = A^H
  const ZMatrix b = random_matrix(n, k, rng);   // op(B) = B^T
  ZMatrix c = random_matrix(m, n, rng);
  ZMatrix cref = c;

  std::vector<GemmBatchItem> items{{&a, &c}};
  zgemm_batch(Op::kConjTrans, Op::kTrans, cplx{0.9, -0.7}, items, b,
              cplx{0.1, 0.2});
  zgemm(Op::kConjTrans, Op::kTrans, cplx{0.9, -0.7}, a, b, cplx{0.1, 0.2},
        cref, GemmVariant::kReference);
  EXPECT_LT(max_abs_diff(c, cref), 1e-11 * static_cast<double>(k + 1));

  const std::vector<GemmBatchItem> none;
  zgemm_batch(Op::kNone, Op::kNone, cplx{1, 0}, none, b, cplx{});  // no-op

  // Wrong column count and an out-of-bounds row window both reject.
  ZMatrix badcols(m, n + 1);
  std::vector<GemmBatchItem> baditems{{&a, &badcols}};
  EXPECT_THROW(zgemm_batch(Op::kConjTrans, Op::kTrans, cplx{1, 0}, baditems,
                           b, cplx{}),
               Error);
  ZMatrix tall(m + 3, n);
  std::vector<GemmBatchItem> oob{{&a, &tall, 4}};
  EXPECT_THROW(zgemm_batch(Op::kConjTrans, Op::kTrans, cplx{1, 0}, oob, b,
                           cplx{}),
               Error);
}

TEST(ZgemmBatch, RowWindowsIntoSharedTallCMatchTightC) {
  // chi's Transf shape: every item writes its own row window of ONE tall C.
  Rng rng(317);
  const idx n = 48, k = 64, mi = 16;
  const int nitems = 4;
  const ZMatrix b = random_matrix(k, n, rng);

  std::vector<ZMatrix> as, tight;
  for (int i = 0; i < nitems; ++i) {
    as.push_back(random_matrix(mi, k, rng));
    tight.push_back(ZMatrix(mi, n));
  }
  ZMatrix tall(nitems * mi, n);
  tall.fill(cplx{7.0, -7.0});  // beta = 0 must overwrite this

  std::vector<GemmBatchItem> witems, titems;
  for (int i = 0; i < nitems; ++i) {
    witems.push_back({&as[static_cast<std::size_t>(i)], &tall, i * mi});
    titems.push_back({&as[static_cast<std::size_t>(i)],
                      &tight[static_cast<std::size_t>(i)]});
  }
  zgemm_batch(Op::kNone, Op::kNone, cplx{1.1, 0.4}, witems, b, cplx{});
  zgemm_batch(Op::kNone, Op::kNone, cplx{1.1, 0.4}, titems, b, cplx{});

  for (int i = 0; i < nitems; ++i)
    for (idx r = 0; r < mi; ++r)
      for (idx j = 0; j < n; ++j)
        EXPECT_EQ(tall(i * mi + r, j),
                  tight[static_cast<std::size_t>(i)](r, j))
            << "window " << i << " row " << r;
}

bool bitwise_equal(const ZMatrix& x, const ZMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.size()) * sizeof(cplx)) == 0;
}

TEST(ZgemmBatch, TinyPathMatchesPerItemReferenceBitwise) {
  // Average item work far below the kAuto cutoff: the batch runs the
  // reference loop per item, writing row windows of one tall C with gap
  // rows between them that must stay untouched.
  const idx n = 6, k = 5;
  const std::vector<idx> ms = {3, 7, 1, 4};
  const cplx alpha{0.9, -0.3};
  for (Op opa : {Op::kNone, Op::kTrans, Op::kConjTrans}) {
    for (Op opb : {Op::kNone, Op::kTrans, Op::kConjTrans}) {
      for (const cplx beta : {cplx{}, cplx{1.0, 0.0}, cplx{0.4, -0.8}}) {
        Rng rng(401 + static_cast<std::uint64_t>(opa) * 3 +
                static_cast<std::uint64_t>(opb));
        const ZMatrix b = (opb == Op::kNone) ? random_matrix(k, n, rng)
                                             : random_matrix(n, k, rng);
        std::vector<ZMatrix> as;
        std::vector<idx> row0;
        idx rows = 1;  // gap row 0
        for (const idx m : ms) {
          as.push_back((opa == Op::kNone) ? random_matrix(m, k, rng)
                                          : random_matrix(k, m, rng));
          row0.push_back(rows);
          rows += m + 1;  // one gap row after every window
        }
        const ZMatrix init = random_matrix(rows, n, rng);
        ZMatrix tall = init;
        std::vector<GemmBatchItem> items;
        for (std::size_t i = 0; i < ms.size(); ++i)
          items.push_back({&as[i], &tall, row0[i]});
        zgemm_batch(opa, opb, alpha, items, b, beta);

        ZMatrix want = init;
        for (std::size_t i = 0; i < ms.size(); ++i) {
          ZMatrix c(ms[i], n);
          for (idx r = 0; r < ms[i]; ++r)
            for (idx j = 0; j < n; ++j) c(r, j) = init(row0[i] + r, j);
          zgemm(opa, opb, alpha, as[i], b, beta, c, GemmVariant::kReference);
          for (idx r = 0; r < ms[i]; ++r)
            for (idx j = 0; j < n; ++j) want(row0[i] + r, j) = c(r, j);
        }
        EXPECT_TRUE(bitwise_equal(tall, want))
            << "opa=" << static_cast<int>(opa)
            << " opb=" << static_cast<int>(opb) << " beta=" << beta;
      }
    }
  }
}

TEST(ZgemmBatch, OneItemEqualsZgemmEngineBitwiseForEveryBeta) {
  // zgemm on the engine IS the one-item batch, so the two must agree to
  // the bit — including the beta pre-scaling of C.
  const idx m = 40, n = 48, k = 56;
  const cplx alpha{1.1, 0.4};
  for (Op opa : {Op::kNone, Op::kTrans, Op::kConjTrans}) {
    for (Op opb : {Op::kNone, Op::kTrans, Op::kConjTrans}) {
      Rng rng(409 + static_cast<std::uint64_t>(opa) * 3 +
              static_cast<std::uint64_t>(opb));
      const ZMatrix a = (opa == Op::kNone) ? random_matrix(m, k, rng)
                                           : random_matrix(k, m, rng);
      const ZMatrix b = (opb == Op::kNone) ? random_matrix(k, n, rng)
                                           : random_matrix(n, k, rng);
      const ZMatrix init = random_matrix(m, n, rng);
      for (const cplx beta : {cplx{}, cplx{1.0, 0.0}, cplx{0.2, 0.7}}) {
        ZMatrix cb = init, cs = init, cp = init;
        const std::vector<GemmBatchItem> one{{&a, &cb}};
        zgemm_batch(opa, opb, alpha, one, b, beta);
        zgemm(opa, opb, alpha, a, b, beta, cs, GemmVariant::kSimd);
        zgemm(opa, opb, alpha, a, b, beta, cp, GemmVariant::kParallel);
        EXPECT_TRUE(bitwise_equal(cb, cs))
            << "batch vs simd, opa=" << static_cast<int>(opa)
            << " opb=" << static_cast<int>(opb) << " beta=" << beta;
        EXPECT_TRUE(bitwise_equal(cb, cp))
            << "batch vs parallel, opa=" << static_cast<int>(opa)
            << " opb=" << static_cast<int>(opb) << " beta=" << beta;
      }
    }
  }
}

#ifdef _OPENMP
TEST(ZgemmBatch, BitwiseDeterministicAcross1And2And4Threads) {
  // Satellite: the batch API's results must not depend on team size — each
  // C tile accumulates its k-blocks in the fixed serial l0 order no matter
  // which thread owns the (item, panel) pair.
  Rng rng(313);
  const idx n = 64, k = 128;
  const std::vector<idx> ms = {64, 33, 128, 97, 64, 5, 64, 64};
  const ZMatrix b = random_matrix(k, n, rng);

  std::vector<ZMatrix> as, cinit;
  for (const idx m : ms) {
    as.push_back(random_matrix(m, k, rng));
    cinit.push_back(random_matrix(m, n, rng));
  }

  const int saved = omp_get_max_threads();
  std::vector<std::vector<ZMatrix>> results;
  for (const int nt : {1, 2, 4}) {
    omp_set_num_threads(nt);
    std::vector<ZMatrix> cs = cinit;
    std::vector<GemmBatchItem> items;
    for (std::size_t i = 0; i < ms.size(); ++i)
      items.push_back({&as[i], &cs[i]});
    zgemm_batch(Op::kNone, Op::kNone, cplx{1.3, -0.4}, items, b,
                cplx{0.2, 0.7});
    results.push_back(std::move(cs));
  }
  omp_set_num_threads(saved);

  for (std::size_t t = 1; t < results.size(); ++t)
    for (std::size_t i = 0; i < ms.size(); ++i)
      EXPECT_EQ(max_abs_diff(results[0][i], results[t][i]), 0.0)
          << "thread-count " << (t == 1 ? 2 : 4) << " diverges at item "
          << i;
}
#endif

TEST(Gemv, MatchesGemmColumn) {
  Rng rng(21);
  const ZMatrix a = random_matrix(12, 9, rng);
  std::vector<cplx> x(9);
  for (auto& v : x) v = rng.normal_cplx();

  for (Op op : {Op::kNone, Op::kTrans, Op::kConjTrans}) {
    const auto [m, k] = op_shape(op, a);
    std::vector<cplx> xx(static_cast<std::size_t>(k));
    for (idx i = 0; i < k; ++i) xx[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i % 9)];
    std::vector<cplx> y(static_cast<std::size_t>(m), cplx{0.5, 0.5});

    // Reference via zgemm with X as a 1-column matrix.
    ZMatrix xm(k, 1);
    for (idx i = 0; i < k; ++i) xm(i, 0) = xx[static_cast<std::size_t>(i)];
    ZMatrix ym(m, 1, cplx{0.5, 0.5});
    const cplx alpha{0.7, -0.1}, beta{1.1, 0.3};
    zgemm(op, Op::kNone, alpha, a, xm, beta, ym, GemmVariant::kReference);

    zgemv(op, alpha, a, xx, beta, y);
    for (idx i = 0; i < m; ++i)
      EXPECT_LT(std::abs(y[static_cast<std::size_t>(i)] - ym(i, 0)), 1e-12);
  }
}

TEST(Gemv, SizeMismatchThrows) {
  ZMatrix a(3, 4);
  std::vector<cplx> x(3), y(3);
  EXPECT_THROW(zgemv(Op::kNone, cplx{1, 0}, a, x, cplx{}, y), Error);
}

TEST(Gemv, FlopCounterUsesGemvModel) {
  Rng rng(23);
  const ZMatrix a = random_matrix(14, 11, rng);
  std::vector<cplx> x(11), y(14);
  for (auto& v : x) v = rng.normal_cplx();
  FlopCounter fc;
  zgemv(Op::kNone, cplx{1, 0}, a, x, cplx{}, y, &fc);
  EXPECT_EQ(fc.total(), static_cast<std::uint64_t>(flop_model::zgemv(14, 11)));
}

TEST(Gemv, LargeOpNoneTakesRowParallelPathAndMatchesReference) {
  // m*k above the parallel threshold: exercises the omp-for row loop.
  Rng rng(29);
  const idx m = 700, k = 64;
  const ZMatrix a = random_matrix(m, k, rng);
  std::vector<cplx> x(static_cast<std::size_t>(k));
  for (auto& v : x) v = rng.normal_cplx();
  std::vector<cplx> y(static_cast<std::size_t>(m), cplx{1.0, -1.0});

  ZMatrix xm(k, 1);
  for (idx i = 0; i < k; ++i) xm(i, 0) = x[static_cast<std::size_t>(i)];
  ZMatrix ym(m, 1, cplx{1.0, -1.0});
  const cplx alpha{0.9, 0.2}, beta{0.4, -0.6};
  zgemm(Op::kNone, Op::kNone, alpha, a, xm, beta, ym, GemmVariant::kReference);

  zgemv(Op::kNone, alpha, a, x, beta, y);
  double dmax = 0.0;
  for (idx i = 0; i < m; ++i)
    dmax = std::max(dmax, std::abs(y[static_cast<std::size_t>(i)] - ym(i, 0)));
  EXPECT_LT(dmax, 1e-11);
}

}  // namespace
}  // namespace xgw
