// Unit + property tests: 1-D mixed-radix and 3-D FFTs, plus the bitwise
// contract (golden output bits, thread sharing, allocation-free steady
// state).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "fft/fft.h"

namespace xgw {
namespace {

std::vector<cplx> random_signal(idx n, Rng& rng) {
  std::vector<cplx> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.normal_cplx();
  return x;
}

// O(n^2) reference DFT.
std::vector<cplx> dft_reference(const std::vector<cplx>& x, bool forward) {
  const idx n = static_cast<idx>(x.size());
  std::vector<cplx> out(x.size());
  const double sign = forward ? -1.0 : 1.0;
  for (idx k = 0; k < n; ++k) {
    cplx acc{};
    for (idx j = 0; j < n; ++j) {
      const double ang = sign * kTwoPi * static_cast<double>(j * k % n) /
                         static_cast<double>(n);
      acc += x[static_cast<std::size_t>(j)] * cplx{std::cos(ang), std::sin(ang)};
    }
    out[static_cast<std::size_t>(k)] = acc;
  }
  return out;
}

// Reference 3-D DFT: dft_reference along axis 3, then 2, then 1.
std::vector<cplx> dft3_reference(std::vector<cplx> x, const FftBox& box,
                                 bool forward) {
  const idx strides[3] = {box.n2 * box.n3, box.n3, 1};
  const idx dims[3] = {box.n1, box.n2, box.n3};
  for (int axis = 2; axis >= 0; --axis) {
    const idx n = dims[axis], stride = strides[axis];
    for (idx start = 0; start < box.size(); ++start) {
      if (start / stride % n != 0) continue;  // not the first point of a line
      std::vector<cplx> line(static_cast<std::size_t>(n));
      for (idx j = 0; j < n; ++j)
        line[static_cast<std::size_t>(j)] =
            x[static_cast<std::size_t>(start + j * stride)];
      line = dft_reference(line, forward);
      for (idx j = 0; j < n; ++j)
        x[static_cast<std::size_t>(start + j * stride)] =
            line[static_cast<std::size_t>(j)];
    }
  }
  return x;
}

// Inputs built only from exactly representable values, so they are the
// same bits under any compiler. About one point in eight is +0 or -0, like
// the zero-padded sphere boxes MTXEL transforms.
std::vector<cplx> exact_signal(idx n, std::uint64_t seed) {
  std::uint64_t s = seed;
  auto next = [&s] {  // splitmix64
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  auto real = [&next] {  // k * 2^-52 for an integer |k| <= 2^52: exact
    return static_cast<double>(static_cast<std::int64_t>(next() >> 11) -
                               (std::int64_t{1} << 52)) *
           0x1p-52;
  };
  std::vector<cplx> x(static_cast<std::size_t>(n));
  for (cplx& v : x) {
    if (next() % 8 == 0) {
      const std::uint64_t signs = next();
      v = cplx{(signs & 1) ? -0.0 : 0.0, (signs & 2) ? -0.0 : 0.0};
    } else {
      const double re = real();
      v = cplx{re, real()};
    }
  }
  return x;
}

// FNV-1a over the output bits, real then imaginary part of each point.
std::uint64_t fnv1a_bits(const std::vector<cplx>& x) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const cplx& v : x)
    for (const double d : {v.real(), v.imag()}) {
      std::uint64_t bits;
      std::memcpy(&bits, &d, sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffU;
        h *= 1099511628211ULL;
      }
    }
  return h;
}

// Golden output bits: {forward, backward} hashes of exact_signal(n, n),
// resp. exact_signal(size, size) for a box. They were generated once from
// the build of the recursive engine that the iterative one replaced
// (GCC 12, -O3 -march=native) and the iterative engine reproduces them
// bit for bit under any compiler. The GPP mode filter branches on the sign
// of FFT round-off, so changing any of these is a numerics change that
// moves pinned physics counters, never a routine re-pin.
const std::map<idx, std::pair<std::uint64_t, std::uint64_t>>& golden_1d() {
  static const std::map<idx, std::pair<std::uint64_t, std::uint64_t>> g = {
      {1, {0x5cfbd68af98ce7f9ULL, 0x5cfbd68af98ce7f9ULL}},
      {2, {0x6e6c8dbe9f160c73ULL, 0x9cb6831bf03236b9ULL}},
      {3, {0xfda77ba915f98459ULL, 0xd26dff52d1368ad1ULL}},
      {4, {0x9ac57a65e5d7a02dULL, 0xff1cd0d787eb8b56ULL}},
      {5, {0x2aa94820b81f156cULL, 0x83581631ac4dedafULL}},
      {6, {0x304c859cc7853c92ULL, 0x183da80cd739778fULL}},
      {7, {0x73c31e902daca4c0ULL, 0xbaf1d79dea7f514fULL}},
      {8, {0xdf84f21682f642faULL, 0xe7adc0045b7ae5b0ULL}},
      {9, {0xc6f6e091638e3d62ULL, 0x1ee0350c6ed5de61ULL}},
      {10, {0x785972462c657f62ULL, 0xa11ca8ca9a3c79ccULL}},
      {11, {0xef8df41b1bc2bc18ULL, 0x393b2d5cae045650ULL}},
      {12, {0x2d39a8e3f48708ecULL, 0x14d8318e3e2de4e8ULL}},
      {13, {0xc0c3bac42d7f0bdeULL, 0x2b0fa30fd69da10dULL}},
      {14, {0xe64a9b813280a0bcULL, 0xa5d3f888182c8746ULL}},
      {15, {0xe4fc85216c568e3aULL, 0x746eba3722c06d77ULL}},
      {16, {0xd11ad23454113b84ULL, 0x5e18f960bf569720ULL}},
      {20, {0x37a9ae832aced1aaULL, 0xd7b62e044b501c33ULL}},
      {21, {0x9c513798fe3a84a4ULL, 0x4a0aa7f4c9edb8abULL}},
      {22, {0x0efc2a91a159882aULL, 0x25890286db7105dbULL}},
      {24, {0xb911b44ac66886c6ULL, 0x8b0d21615bdfaf14ULL}},
      {25, {0x17bbc352dfc837abULL, 0x2ae7e22480c884d9ULL}},
      {27, {0xd00ce6e4858e548eULL, 0xfa1d8108ffe4af10ULL}},
      {30, {0xdde09665d47d2f00ULL, 0x637d42d3dec0e2bcULL}},
      {32, {0xcca2f648dc3c004aULL, 0x38895192542cd84fULL}},
      {36, {0x949cdc664b9b6b94ULL, 0xec185f71dd707cdfULL}},
      {45, {0x3af73eea7c8df376ULL, 0xc1c55ad786ee63e7ULL}},
      {48, {0x12f3392473edb4b3ULL, 0xba46ec66c7939739ULL}},
      {60, {0xf48d48b111895103ULL, 0x9276edcb236c4730ULL}},
      {64, {0x2c2ab68c1b62c0c4ULL, 0x2ecc4814237235c3ULL}},
      {77, {0xbd7b3b925a89179eULL, 0x11d12a6c7f2587fdULL}},
      {100, {0x5d4ee2cb2524d139ULL, 0x26978c4efed8764dULL}},
      {128, {0x477500ea65ba543fULL, 0x216515086ef2a9d5ULL}},
      {243, {0x41e6a4ba8faca2d5ULL, 0xdf5d19655daca818ULL}},
  };
  return g;
}

class FftLengths : public ::testing::TestWithParam<idx> {};

TEST_P(FftLengths, GoldenOutputBits) {
  const idx n = GetParam();
  const auto golden = golden_1d().find(n);
  ASSERT_NE(golden, golden_1d().end()) << "no golden hashes for n=" << n;
  std::vector<cplx> fwd = exact_signal(n, static_cast<std::uint64_t>(n));
  std::vector<cplx> bwd = fwd;
  Fft1dPlan plan(n);
  plan.transform(fwd.data(), FftDirection::kForward);
  plan.transform(bwd.data(), FftDirection::kBackward);
  EXPECT_EQ(fnv1a_bits(fwd), golden->second.first) << "n=" << n;
  EXPECT_EQ(fnv1a_bits(bwd), golden->second.second) << "n=" << n;
}

TEST_P(FftLengths, MatchesReferenceDft) {
  const idx n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) + 1);
  const std::vector<cplx> x = random_signal(n, rng);

  std::vector<cplx> y = x;
  Fft1dPlan plan(n);
  plan.transform(y.data(), FftDirection::kForward);
  const std::vector<cplx> ref = dft_reference(x, true);
  for (idx i = 0; i < n; ++i)
    EXPECT_LT(std::abs(y[static_cast<std::size_t>(i)] -
                       ref[static_cast<std::size_t>(i)]),
              1e-10 * static_cast<double>(n))
        << "n=" << n << " i=" << i;
}

TEST_P(FftLengths, RoundTripIdentity) {
  const idx n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) + 2);
  const std::vector<cplx> x = random_signal(n, rng);
  std::vector<cplx> y = x;
  Fft1dPlan plan(n);
  plan.transform(y.data(), FftDirection::kForward);
  plan.transform(y.data(), FftDirection::kBackward);
  for (idx i = 0; i < n; ++i)
    EXPECT_LT(std::abs(y[static_cast<std::size_t>(i)] / static_cast<double>(n) -
                       x[static_cast<std::size_t>(i)]),
              1e-11 * static_cast<double>(n));
}

// Mixed radix (2,3,5), primes (7, 11, 13), and composites with prime factors.
INSTANTIATE_TEST_SUITE_P(Lengths, FftLengths,
                         ::testing::Values<idx>(1, 2, 3, 4, 5, 6, 8, 9, 10, 12,
                                                15, 16, 20, 24, 25, 27, 30, 32,
                                                36, 45, 48, 60, 64, 7, 11, 13,
                                                14, 21, 22, 77, 100, 128, 243));

TEST(Fft, DeltaTransformsToConstant) {
  const idx n = 24;
  std::vector<cplx> x(static_cast<std::size_t>(n), cplx{});
  x[0] = 1.0;
  Fft1dPlan plan(n);
  plan.transform(x.data(), FftDirection::kForward);
  for (const cplx& v : x) EXPECT_LT(std::abs(v - cplx{1.0, 0.0}), 1e-12);
}

TEST(Fft, SingleModeLandsInSingleBin) {
  const idx n = 30, k0 = 7;
  std::vector<cplx> x(static_cast<std::size_t>(n));
  for (idx j = 0; j < n; ++j) {
    const double ang = kTwoPi * static_cast<double>(k0 * j) / static_cast<double>(n);
    x[static_cast<std::size_t>(j)] = cplx{std::cos(ang), std::sin(ang)};
  }
  Fft1dPlan plan(n);
  plan.transform(x.data(), FftDirection::kForward);
  for (idx k = 0; k < n; ++k) {
    const double expect = (k == k0) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[static_cast<std::size_t>(k)]), expect, 1e-9);
  }
}

TEST(Fft, LinearityProperty) {
  const idx n = 40;
  Rng rng(99);
  const auto x = random_signal(n, rng);
  const auto y = random_signal(n, rng);
  const cplx a{1.5, -2.0}, b{-0.5, 0.25};

  std::vector<cplx> combo(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i)
    combo[static_cast<std::size_t>(i)] = a * x[static_cast<std::size_t>(i)] +
                                         b * y[static_cast<std::size_t>(i)];
  Fft1dPlan plan(n);
  auto fx = x, fy = y;
  plan.transform(fx.data(), FftDirection::kForward);
  plan.transform(fy.data(), FftDirection::kForward);
  plan.transform(combo.data(), FftDirection::kForward);
  for (idx i = 0; i < n; ++i)
    EXPECT_LT(std::abs(combo[static_cast<std::size_t>(i)] -
                       (a * fx[static_cast<std::size_t>(i)] +
                        b * fy[static_cast<std::size_t>(i)])),
              1e-10);
}

TEST(Fft, ParsevalHolds) {
  const idx n = 36;
  Rng rng(123);
  const auto x = random_signal(n, rng);
  auto fx = x;
  Fft1dPlan plan(n);
  plan.transform(fx.data(), FftDirection::kForward);
  double ex = 0.0, ef = 0.0;
  for (idx i = 0; i < n; ++i) {
    ex += std::norm(x[static_cast<std::size_t>(i)]);
    ef += std::norm(fx[static_cast<std::size_t>(i)]);
  }
  EXPECT_NEAR(ef, ex * static_cast<double>(n), 1e-9 * ex * n);
}

TEST(Fft3d, RoundTripOnBox) {
  const FftBox box{6, 5, 8};
  Rng rng(7);
  std::vector<cplx> x(static_cast<std::size_t>(box.size()));
  for (auto& v : x) v = rng.normal_cplx();
  auto y = x;
  Fft3d fft(box);
  fft.forward(y.data());
  fft.backward_normalized(y.data());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_LT(std::abs(y[i] - x[i]), 1e-11);
}

TEST(Fft3d, PlaneWaveSingleBin) {
  const FftBox box{4, 4, 4};
  // e^{i G.r} with G = (1, 2, 3) lands in bin (1, 2, 3) scaled by box size.
  std::vector<cplx> x(static_cast<std::size_t>(box.size()));
  for (idx i1 = 0; i1 < 4; ++i1)
    for (idx i2 = 0; i2 < 4; ++i2)
      for (idx i3 = 0; i3 < 4; ++i3) {
        const double ang = kTwoPi * (1.0 * i1 / 4 + 2.0 * i2 / 4 + 3.0 * i3 / 4);
        x[static_cast<std::size_t>((i1 * 4 + i2) * 4 + i3)] =
            cplx{std::cos(ang), std::sin(ang)};
      }
  Fft3d fft(box);
  fft.forward(x.data());
  for (idx i1 = 0; i1 < 4; ++i1)
    for (idx i2 = 0; i2 < 4; ++i2)
      for (idx i3 = 0; i3 < 4; ++i3) {
        const double expect =
            (i1 == 1 && i2 == 2 && i3 == 3) ? 64.0 : 0.0;
        EXPECT_NEAR(
            std::abs(x[static_cast<std::size_t>((i1 * 4 + i2) * 4 + i3)]),
            expect, 1e-9);
      }
}

class Fft3dBoxes : public ::testing::TestWithParam<FftBox> {};

TEST_P(Fft3dBoxes, MatchesReferenceDft) {
  const FftBox box = GetParam();
  Rng rng(static_cast<std::uint64_t>(box.size()));
  std::vector<cplx> x(static_cast<std::size_t>(box.size()));
  for (auto& v : x) v = rng.normal_cplx();
  const Fft3d fft(box);
  for (const bool forward : {true, false}) {
    std::vector<cplx> y = x;
    fft.transform(y.data(),
                  forward ? FftDirection::kForward : FftDirection::kBackward);
    const std::vector<cplx> ref = dft3_reference(x, box, forward);
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_LT(std::abs(y[i] - ref[i]),
                1e-11 * static_cast<double>(box.size()))
          << "forward=" << forward << " i=" << i;
  }
}

// Mixed radix, the Si16 MTXEL box, all-prime axes and degenerate axes.
INSTANTIATE_TEST_SUITE_P(
    Boxes, Fft3dBoxes,
    ::testing::Values(FftBox{4, 4, 4}, FftBox{6, 5, 8}, FftBox{15, 15, 15},
                      FftBox{15, 18, 20}, FftBox{7, 11, 13}, FftBox{1, 4, 9},
                      FftBox{9, 1, 1}),
    [](const ::testing::TestParamInfo<FftBox>& info) {
      return std::to_string(info.param.n1) + "x" +
             std::to_string(info.param.n2) + "x" +
             std::to_string(info.param.n3);
    });

TEST(Fft3d, GoldenOutputBits) {
  // Same provenance as golden_1d().
  const struct {
    FftBox box;
    std::uint64_t fwd, bwd;
  } golden[] = {
      {{15, 15, 15}, 0xf544ee77ee8a104cULL, 0x558d8ea65c8c6775ULL},
      {{6, 5, 8}, 0x7f899808e81f54b9ULL, 0x97a9c7a7c118b851ULL},
      {{7, 11, 13}, 0x1e19d1a25d4d91a5ULL, 0x63f7fb5ed313ca34ULL},
      {{1, 4, 9}, 0x9f105df265082ec9ULL, 0xeb0c8f053c55f351ULL},
  };
  for (const auto& g : golden) {
    const Fft3d fft(g.box);
    std::vector<cplx> fwd =
        exact_signal(g.box.size(), static_cast<std::uint64_t>(g.box.size()));
    std::vector<cplx> bwd = fwd;
    fft.forward(fwd.data());
    fft.backward(bwd.data());
    EXPECT_EQ(fnv1a_bits(fwd), g.fwd) << g.box.n1 << "x" << g.box.n2 << "x"
                                      << g.box.n3;
    EXPECT_EQ(fnv1a_bits(bwd), g.bwd) << g.box.n1 << "x" << g.box.n2 << "x"
                                      << g.box.n3;
  }
}

TEST(Fft3d, SharedAcrossThreadsIsBitwiseSerial) {
  const FftBox box{15, 18, 20};
  const Fft3d fft(box);
  constexpr int kThreads = 4;
  constexpr int kReps = 6;
  std::vector<std::vector<cplx>> inputs, serial;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(
        exact_signal(box.size(), 100 + static_cast<std::uint64_t>(t)));
    std::vector<cplx> y = inputs.back();
    fft.forward(y.data());
    fft.backward(y.data());
    serial.push_back(std::move(y));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      const auto u = static_cast<std::size_t>(t);
      for (int rep = 0; rep < kReps; ++rep) {
        std::vector<cplx> y = inputs[u];
        fft.forward(y.data());
        fft.backward(y.data());
        if (std::memcmp(y.data(), serial[u].data(), y.size() * sizeof(cplx)))
          ++mismatches[u];
      }
    });
  for (std::thread& th : pool) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
}

TEST(Fft3d, SteadyStateTransformAllocatesNothing) {
  const FftBox box{15, 15, 15};
  const Fft3d fft(box);
  std::vector<cplx> x = exact_signal(box.size(), 5);
  fft.forward(x.data());  // warm-up: grows the thread-local workspace
  const std::uint64_t allocs0 = mem::tracker().alloc_calls();
  for (int rep = 0; rep < 4; ++rep) {
    fft.forward(x.data());
    fft.backward_normalized(x.data());
  }
  EXPECT_EQ(mem::tracker().alloc_calls() - allocs0, 0u);
}

TEST(Fft, ZeroLengthThrowsInsteadOfExhaustingMemory) {
  EXPECT_THROW(Fft1dPlan plan(0), Error);
  EXPECT_THROW(Fft1dPlan plan(-4), Error);
  EXPECT_THROW(get_fft_plan(0), Error);
  EXPECT_THROW(Fft3d fft(FftBox{0, 4, 4}), Error);
  EXPECT_THROW(Fft3d fft(FftBox{4, 4, 0}), Error);
}

TEST(Fft, PlanCacheReturnsSharedPlan) {
  auto p1 = get_fft_plan(48);
  auto p2 = get_fft_plan(48);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(p1->size(), 48);
}

TEST(Fft, NextFastSize) {
  EXPECT_EQ(next_fast_size(1), 1);
  EXPECT_EQ(next_fast_size(7), 8);
  EXPECT_EQ(next_fast_size(11), 12);
  EXPECT_EQ(next_fast_size(17), 18);
  EXPECT_EQ(next_fast_size(31), 32);
  EXPECT_EQ(next_fast_size(121), 125);
  EXPECT_EQ(next_fast_size(16), 16);
}

}  // namespace
}  // namespace xgw
