// Micro-benchmarks (google-benchmark): ZGEMM variants, MTXEL, GPP diag
// reference vs optimized, off-diag ZGEMM chain, the dense eigensolver and
// the LU inverse — the kernel-level numbers behind the table/figure
// reproductions (FFT boxes: bench_fft).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_util.h"
#include "common/flops.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/sigma.h"
#include "la/autotune.h"
#include "la/eig.h"
#include "la/gemm.h"
#include "la/lu.h"
#include "la/simd.h"
#include "mf/epm.h"
#include "mf/hamiltonian.h"
#include "mf/solver.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "perf/progmodel.h"

namespace xgw {
namespace {

ZMatrix random_matrix(idx r, idx c, std::uint64_t seed) {
  Rng rng(seed);
  ZMatrix m(r, c);
  for (idx i = 0; i < m.size(); ++i) m.data()[i] = rng.normal_cplx();
  return m;
}

ZMatrix random_hermitian(idx n, std::uint64_t seed) {
  const ZMatrix m = random_matrix(n, n, seed);
  ZMatrix h(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) h(i, j) = 0.5 * (m(i, j) + std::conj(m(j, i)));
  return h;
}

// Low 32 bits of the FNV-1a hash of the output bits (eigenvalues, then
// eigenvectors): exact as a double, so the counter gate catches any
// rounding drift.
double heev_bits_lo32(const EigResult& r) {
  std::string bytes(reinterpret_cast<const char*>(r.values.data()),
                    r.values.size() * sizeof(double));
  bytes.append(reinterpret_cast<const char*>(r.vectors.data()),
               static_cast<std::size_t>(r.vectors.size()) * sizeof(cplx));
  return static_cast<double>(obs::fnv1a(bytes) & 0xffffffffULL);
}

// Low 32 bits of the FNV-1a hash of a matrix's bits.
double matrix_bits_lo32(const ZMatrix& m) {
  const std::string bytes(reinterpret_cast<const char*>(m.data()),
                          static_cast<std::size_t>(m.size()) * sizeof(cplx));
  return static_cast<double>(obs::fnv1a(bytes) & 0xffffffffULL);
}

// Seeded synthetic GPP diag-kernel inputs shaped like a real model: zero
// wings, one bad mode in ten (Omega^2 = 0, wtilde^2 = 1e12), the first
// quarter of the bands occupied. Built from Rng::uniform() by sums,
// differences and power-of-two scalings only, so their bits are the same
// in every build.
struct GppSynthetic {
  GppModel model;
  CoulombPotential v;
  ZMatrix m_ln;
  std::vector<double> band_energy;
  idx n_valence;
};

GppSynthetic gpp_synthetic(idx ng, idx nb, std::uint64_t seed) {
  Rng rng(seed);
  const auto centred = [&rng] { return rng.uniform() - 0.5; };
  GppModel m;
  m.omega2 = ZMatrix(ng, ng);
  m.wtilde2 = ZMatrix(ng, ng);
  m.wtilde = ZMatrix(ng, ng);
  for (idx g = 0; g < ng; ++g)
    for (idx gp = 0; gp < ng; ++gp) {
      const bool bad = rng.below(10) == 0;
      const bool wing = (g == 0) != (gp == 0);
      m.omega2(g, gp) =
          bad || wing ? cplx{} : cplx{rng.uniform() + 0.25, centred()};
      m.wtilde2(g, gp) = bad ? cplx{1e12, 0.0}
                             : cplx{rng.uniform() + 0.1, 0.5 * centred()};
      m.wtilde(g, gp) = bad ? cplx{1e6, 0.0}
                            : cplx{rng.uniform() + 0.3, 0.25 * centred()};
    }
  std::vector<double> v(static_cast<std::size_t>(ng));
  for (double& x : v) x = rng.uniform() + 0.01;
  ZMatrix m_ln(nb, ng);
  for (idx i = 0; i < m_ln.size(); ++i)
    m_ln.data()[i] = cplx{centred(), centred()};
  std::vector<double> band_energy(static_cast<std::size_t>(nb));
  for (double& e : band_energy) e = 2.0 * centred();
  return {std::move(m), CoulombPotential(std::move(v)), std::move(m_ln),
          std::move(band_energy), nb / 4};
}

// Low 32 bits of the FNV-1a hash of the diag kernel's output bits.
double gpp_bits_lo32(const std::vector<SigmaParts>& out) {
  const std::string bytes(reinterpret_cast<const char*>(out.data()),
                          out.size() * sizeof(SigmaParts));
  return static_cast<double>(obs::fnv1a(bytes) & 0xffffffffULL);
}

void BM_ZgemmReference(benchmark::State& state) {
  const idx n = state.range(0);
  const ZMatrix a = random_matrix(n, n, 1);
  const ZMatrix b = random_matrix(n, n, 2);
  ZMatrix c(n, n);
  for (auto _ : state)
    zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c,
          GemmVariant::kReference);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * n * n * n));
}
BENCHMARK(BM_ZgemmReference)->Arg(64)->Arg(128)->Arg(256);

void BM_ZgemmAuto(benchmark::State& state) {
  const idx n = state.range(0);
  const ZMatrix a = random_matrix(n, n, 1);
  const ZMatrix b = random_matrix(n, n, 2);
  ZMatrix c(n, n);
  for (auto _ : state)
    zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c,
          GemmVariant::kAuto);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * n * n * n));
}
BENCHMARK(BM_ZgemmAuto)->Arg(16)->Arg(64)->Arg(256)->Arg(512);

void BM_ZgemmSimd(benchmark::State& state) {
  const idx n = state.range(0);
  const ZMatrix a = random_matrix(n, n, 1);
  const ZMatrix b = random_matrix(n, n, 2);
  ZMatrix c(n, n);
  for (auto _ : state)
    zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c,
          GemmVariant::kSimd);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * n * n * n));
}
BENCHMARK(BM_ZgemmSimd)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_ZgemmBatch64(benchmark::State& state) {
  const idx n = state.range(0);
  constexpr int kBatch = 64;
  const ZMatrix b = random_matrix(n, n, 99);
  std::vector<ZMatrix> as, cs;
  for (int i = 0; i < kBatch; ++i) {
    as.push_back(random_matrix(n, n, 100 + static_cast<std::uint64_t>(i)));
    cs.push_back(ZMatrix(n, n));
  }
  std::vector<GemmBatchItem> items;
  for (int i = 0; i < kBatch; ++i)
    items.push_back({&as[static_cast<std::size_t>(i)],
                     &cs[static_cast<std::size_t>(i)]});
  for (auto _ : state)
    zgemm_batch(Op::kNone, Op::kNone, cplx{1, 0}, items, b, cplx{});
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch * 8 * n * n * n));
}
BENCHMARK(BM_ZgemmBatch64)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

void BM_ZherkUpdate(benchmark::State& state) {
  const idx n = state.range(0);
  const ZMatrix a = random_matrix(n, n, 1);
  const ZMatrix b = random_matrix(n, n, 2);
  ZMatrix c(n, n);
  for (auto _ : state) {
    c.fill(cplx{});
    zherk_update(a, b, c, GemmVariant::kSimd);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(4 * n * (n + 1) * n));
}
BENCHMARK(BM_ZherkUpdate)->Arg(128)->Arg(256)->Arg(512);

void BM_ZgemmParallel(benchmark::State& state) {
  const idx n = state.range(0);
  const ZMatrix a = random_matrix(n, n, 1);
  const ZMatrix b = random_matrix(n, n, 2);
  ZMatrix c(n, n);
  for (auto _ : state)
    zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c,
          GemmVariant::kParallel);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * n * n * n));
}
BENCHMARK(BM_ZgemmParallel)->Arg(128)->Arg(256)->Arg(512);

// Overhead of a disabled obs::Span: one relaxed atomic load + branch. The
// acceptance bar is <1% on a real kernel — compare BM_ZgemmSimd/128
// against BM_ZgemmSimdSpanned/128 (identical work, span per call).
void BM_SpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::Span span("bench_disabled", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_ZgemmSimdSpanned(benchmark::State& state) {
  const idx n = state.range(0);
  const ZMatrix a = random_matrix(n, n, 1);
  const ZMatrix b = random_matrix(n, n, 2);
  ZMatrix c(n, n);
  for (auto _ : state) {
    obs::Span span("bench_zgemm", "bench");
    zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c,
          GemmVariant::kSimd);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * n * n * n));
}
BENCHMARK(BM_ZgemmSimdSpanned)->Arg(128);

// Shared GW state for the kernel benchmarks (built once).
struct GwState {
  GwState() : gw(EpmModel::silicon(2), params()) {
    m_ln = gw.m_matrix_left(gw.n_valence());
    evals = {gw.wavefunctions().energy[static_cast<std::size_t>(
        gw.n_valence())]};
  }
  static GwParameters params() {
    GwParameters p;
    p.eps_cutoff = 1.2;
    return p;
  }
  GwCalculation gw;
  ZMatrix m_ln;
  std::vector<double> evals;
};

GwState& gw_state() {
  static GwState s;
  return s;
}

void BM_GppDiagReference(benchmark::State& state) {
  GwState& s = gw_state();
  const GppDiagKernel kernel(s.gw.gpp(), s.gw.coulomb());
  std::vector<SigmaParts> out;
  for (auto _ : state)
    kernel.compute(s.m_ln, s.gw.wavefunctions().energy,
                   s.gw.n_valence(), s.evals, out,
                   GppKernelVariant::kReference);
}
BENCHMARK(BM_GppDiagReference);

void BM_GppDiagOptimized(benchmark::State& state) {
  GwState& s = gw_state();
  const GppDiagKernel kernel(s.gw.gpp(), s.gw.coulomb());
  std::vector<SigmaParts> out;
  for (auto _ : state)
    kernel.compute(s.m_ln, s.gw.wavefunctions().energy,
                   s.gw.n_valence(), s.evals, out,
                   GppKernelVariant::kOptimized);
}
BENCHMARK(BM_GppDiagOptimized);

void BM_GppOffdiagPrep(benchmark::State& state) {
  GwState& s = gw_state();
  const GppOffdiagKernel kernel(s.gw.gpp(), s.gw.coulomb());
  ZMatrix p;
  for (auto _ : state) kernel.build_p_matrix(0.2, true, p);
}
BENCHMARK(BM_GppOffdiagPrep);

void BM_MtxelPair(benchmark::State& state) {
  GwState& s = gw_state();
  std::vector<cplx> out(static_cast<std::size_t>(s.gw.n_g()));
  idx n = 0;
  for (auto _ : state) {
    s.gw.mtxel().compute_pair(0, 1 + (n % 16), out.data());
    ++n;
  }
}
BENCHMARK(BM_MtxelPair);

void BM_ChiStaticNvBlock(benchmark::State& state) {
  GwState& s = gw_state();
  ChiOptions opt;
  opt.nv_block = state.range(0);
  for (auto _ : state) {
    const ZMatrix chi =
        chi_static(s.gw.mtxel(), s.gw.wavefunctions(), opt);
    benchmark::DoNotOptimize(chi.data());
  }
}
BENCHMARK(BM_ChiStaticNvBlock)->Arg(1)->Arg(4)->Arg(32);

// GFLOP/s sweep over the GEMM variants, emitted as BENCH_kernels.json
// (unified xgw-bench-result-v1 schema) so the perf gate can diff kernel
// throughput mechanically. Per-call FLOP counts go into exact-compare
// counters; wall time is a run_timed() median/MAD/CI summary.
void emit_kernel_json() {
  struct VariantRow {
    GemmVariant v;
    const char* name;
    idx max_n;  // reference is O(n^3) scalar code; cap its sweep
  };
  const VariantRow variants[] = {
      {GemmVariant::kReference, "reference", 128},
      {GemmVariant::kSimd, "simd", 512},
      {GemmVariant::kParallel, "parallel", 512},
      {GemmVariant::kAuto, "auto", 512},
  };

  bench::Suite suite("kernels");
  bench::Table table({"kernel", "variant", "n", "GFLOP/s", "reps"});

  // Disabled-recorder span overhead on a real kernel (acceptance: <1%).
  // Measured before the recorder is enabled below, so the span body takes
  // its cheap path: one relaxed atomic load + branch.
  {
    const idx n = 128;
    const ZMatrix a = random_matrix(n, n, 1);
    const ZMatrix b = random_matrix(n, n, 2);
    ZMatrix c(n, n);
    const bench::TimingStats bare = bench::run_timed([&] {
      zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c,
            GemmVariant::kSimd);
    });
    const bench::TimingStats spanned = bench::run_timed([&] {
      obs::Span span("bench_zgemm", "bench");
      zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c,
            GemmVariant::kSimd);
    });
    const double overhead_pct =
        (spanned.median_s - bare.median_s) / bare.median_s * 100.0;
    suite.series("span_overhead/zgemm_simd/n=128")
        .value("bare_s", bare.median_s)
        .value("spanned_s", spanned.median_s)
        .value("overhead_pct", overhead_pct);
    std::printf("disabled-span overhead on zgemm(%lld): %.3f%%\n",
                static_cast<long long>(n), overhead_pct);
  }

  // The GFLOP/s sweep runs with the recorder on at kernel detail: one span
  // per (variant, n) point, so BENCH_kernels_report.json carries per-point
  // seconds + attributed FLOPs.
  obs::recorder().enable(obs::detail_level::kKernel);

  // Best-variant tracking per n: which concrete engine (dispatchers like
  // kAuto excluded) won on THIS machine, labeled with the dispatched ISA.
  std::map<idx, std::pair<std::string, double>> best;

  for (const VariantRow& vr : variants) {
    for (idx n : {128, 256, 512}) {
      if (n > vr.max_n) continue;
      const ZMatrix a = random_matrix(n, n, 1);
      const ZMatrix b = random_matrix(n, n, 2);
      ZMatrix c(n, n);
      const std::string point =
          std::string("zgemm:") + vr.name + ":" + std::to_string(n);
      obs::Span span(point.c_str(), "bench");
      const bench::TimingStats t = bench::run_timed([&] {
        zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c, vr.v);
      });
      const double flops = flop_model::zgemm(n, n, n);
      const double gflops = flops / t.median_s / 1e9;
      suite.series("zgemm/" + std::string(vr.name) + "/n=" +
                   std::to_string(n))
          .counter("flops_per_call", flops)
          .counter("n", static_cast<double>(n))
          .value("gflops", gflops)
          .info("variant", vr.name)
          .time(t);
      table.row({"zgemm", vr.name, bench::fmt_int(n), bench::fmt(gflops),
                 bench::fmt_int(static_cast<long long>(t.samples.size()))});
      if (vr.v != GemmVariant::kAuto && gflops > best[n].second)
        best[n] = {vr.name, gflops};
    }
  }

  const la::AutotuneResult& tuned = la::autotune_result();
  for (const auto& [n, winner] : best) {
    suite.series("zgemm/best/n=" + std::to_string(n))
        .info("variant", winner.first)
        .info("isa", la::simd_isa_name(tuned.isa))
        .value("gflops", winner.second);
    table.row({"zgemm", "best=" + winner.first, bench::fmt_int(n),
               bench::fmt(winner.second), "-"});
  }

  // Batched small-GEMM (the MTXEL->chi Transf shape): 64 independent n x n
  // products sharing one B, vs the same work issued per call through the
  // serial engine (zgemm kSimd). Both sides carry full CI bounds so the
  // gate can demand non-overlap, and the batch series records the median
  // speedup.
  for (idx n : {32, 64, 96, 128}) {
    constexpr int kBatch = 64;
    const ZMatrix b = random_matrix(n, n, 99);
    std::vector<ZMatrix> as, cs;
    for (int i = 0; i < kBatch; ++i) {
      as.push_back(random_matrix(n, n, 100 + static_cast<std::uint64_t>(i)));
      cs.push_back(ZMatrix(n, n));
    }
    std::vector<GemmBatchItem> items;
    for (int i = 0; i < kBatch; ++i)
      items.push_back({&as[static_cast<std::size_t>(i)],
                       &cs[static_cast<std::size_t>(i)]});

    const std::string tag = std::to_string(n);
    obs::Span span(("zgemm_batch:" + tag).c_str(), "bench");
    const bench::TimingStats tb = bench::run_timed([&] {
      zgemm_batch(Op::kNone, Op::kNone, cplx{1, 0}, items, b, cplx{});
    });
    const bench::TimingStats ts = bench::run_timed([&] {
      for (int i = 0; i < kBatch; ++i)
        zgemm(Op::kNone, Op::kNone, cplx{1, 0},
              as[static_cast<std::size_t>(i)], b, cplx{},
              cs[static_cast<std::size_t>(i)], GemmVariant::kSimd);
    });
    const double flops =
        static_cast<double>(kBatch) * flop_model::zgemm(n, n, n);
    const double speedup = ts.median_s / tb.median_s;
    suite.series("zgemm_batch/batch64/n=" + tag)
        .counter("flops_per_call", flops)
        .counter("n", static_cast<double>(n))
        .counter("batch", static_cast<double>(kBatch))
        .value("gflops", flops / tb.median_s / 1e9)
        .value("speedup_vs_percall_simd", speedup)
        .info("isa", la::simd_isa_name(tuned.isa))
        .time(tb);
    suite.series("zgemm_batch/percall_simd/n=" + tag)
        .counter("flops_per_call", flops)
        .counter("n", static_cast<double>(n))
        .value("gflops", flops / ts.median_s / 1e9)
        .time(ts);
    table.row({"zgemm_batch", "batch64", bench::fmt_int(n),
               bench::fmt(flops / tb.median_s / 1e9),
               bench::fmt_int(static_cast<long long>(tb.samples.size()))});
    table.row({"zgemm_batch", "percall_simd", bench::fmt_int(n),
               bench::fmt(flops / ts.median_s / 1e9),
               bench::fmt_int(static_cast<long long>(ts.samples.size()))});
    std::printf("zgemm_batch(64 x %lld): %.2fx vs per-call simd\n",
                static_cast<long long>(n), speedup);
  }

  // Hermitian rank-k update (the chi imaginary-axis path): half the zgemm
  // FLOPs for the same result shape.
  for (idx n : {256, 512}) {
    const ZMatrix a = random_matrix(n, n, 1);
    const ZMatrix b = random_matrix(n, n, 2);
    ZMatrix c(n, n);
    const std::string point = "zherk:simd:" + std::to_string(n);
    obs::Span span(point.c_str(), "bench");
    const bench::TimingStats t = bench::run_timed([&] {
      c.fill(cplx{});
      zherk_update(a, b, c, GemmVariant::kSimd);
    });
    const double flops = flop_model::zherk(n, n);
    const double gflops = flops / t.median_s / 1e9;
    suite.series("zherk/simd/n=" + std::to_string(n))
        .counter("flops_per_call", flops)
        .counter("n", static_cast<double>(n))
        .value("gflops", gflops)
        .info("variant", "simd")
        .time(t);
    table.row({"zherk", "simd", bench::fmt_int(n), bench::fmt(gflops),
               bench::fmt_int(static_cast<long long>(t.samples.size()))});
  }

  // Dense Hermitian eigensolver, the mean-field diagonalization: the Si16
  // Hamiltonian (N_G^psi = 459) and two random sizes. Exact counters: n
  // and the output-bit hash. Time at xgw_num_threads() and, as a value, at
  // one OpenMP thread; both advisory.
  {
    struct HeevCase {
      std::string key;
      ZMatrix a;
    };
    std::vector<HeevCase> cases;
    cases.push_back(
        {"heev/si16/n=459", PwHamiltonian(EpmModel::silicon(2)).dense()});
    for (idx n : {128, 256})
      cases.push_back({"heev/random/n=" + std::to_string(n),
                       random_hermitian(n, 40 + static_cast<std::uint64_t>(n))});
    for (const HeevCase& hc : cases) {
      EigResult r;
      const bench::TimingStats t = bench::run_timed([&] { r = heev(hc.a); });
#ifdef _OPENMP
      const int saved = omp_get_max_threads();
      omp_set_num_threads(1);
#endif
      const bench::TimingStats t1 = bench::run_timed([&] { r = heev(hc.a); });
#ifdef _OPENMP
      omp_set_num_threads(saved);
#endif
      suite.series(hc.key)
          .counter("n", static_cast<double>(hc.a.rows()))
          .counter("bits_lo32", heev_bits_lo32(r))
          .value("threads", static_cast<double>(xgw_num_threads()))
          .value("serial_s", t1.median_s)
          .value("speedup", t1.median_s / t.median_s)
          .time(t);
      std::printf("%s: %.4f s at %d threads, %.4f s at 1\n", hc.key.c_str(),
                  t.median_s, xgw_num_threads(), t1.median_s);
    }
  }

  // Dense inverse at the Si16 eps shape (N_G = 283), the per-frequency
  // eps^{-1} kernel. Exact counters: n and the output-bit hash. Time at
  // xgw_num_threads() and, as a value, at one OpenMP thread; both advisory.
  {
    const ZMatrix a = random_matrix(283, 283, 283);
    ZMatrix inv;
    const bench::TimingStats t = bench::run_timed([&] { inv = invert(a); });
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
    const bench::TimingStats t1 = bench::run_timed([&] { inv = invert(a); });
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif
    const std::string key = "lu_invert/random/n=283";
    suite.series(key)
        .counter("n", static_cast<double>(a.rows()))
        .counter("bits_lo32", matrix_bits_lo32(inv))
        .value("threads", static_cast<double>(xgw_num_threads()))
        .value("serial_s", t1.median_s)
        .time(t);
    std::printf("%s: %.4f s at %d threads, %.4f s at 1\n", key.c_str(),
                t.median_s, xgw_num_threads(), t1.median_s);
  }

  // GPP diagonal Sigma kernel at the gpp-sigma-si16 shape (N_G = 283,
  // N_b = 120, N_E = 5) on seeded synthetic inputs. Exact counters: the
  // kernel's FLOP count and its output-bit hash; time and GFLOP/s are
  // advisory.
  {
    const GppSynthetic s = gpp_synthetic(283, 120, 17);
    const GppDiagKernel kernel(s.model, s.v);
    const std::vector<double> energies{0.3, 0.35, 0.4, 0.45, 0.5};
    std::vector<SigmaParts> out;
    FlopCounter fc;
    kernel.compute(s.m_ln, s.band_energy, s.n_valence, energies, out,
                   GppKernelVariant::kOptimized, &fc);
    const bench::TimingStats t = bench::run_timed([&] {
      kernel.compute(s.m_ln, s.band_energy, s.n_valence, energies, out);
    });
    const double flops = static_cast<double>(fc.total());
    const std::string key = "gpp_diag/synthetic/ng=283,nb=120,ne=5";
    suite.series(key)
        .counter("flops", flops)
        .counter("bits_lo32", gpp_bits_lo32(out))
        .value("gflops", flops / t.median_s * 1e-9)
        .value("threads", static_cast<double>(xgw_num_threads()))
        .time(t);
    std::printf("%s: %.4f s, %.2f GFLOP/s\n", key.c_str(), t.median_s,
                flops / t.median_s * 1e-9);
  }

  obs::recorder().disable();

  // Roofline vs MEASURED FMA peak: the autotune probe's register-FMA rate
  // is the ceiling the micro-kernels are judged against (not a datasheet
  // number), with the arithmetic intensity of the engine's tiling.
  {
    const double peak_gflops = tuned.fma_peak_gflops;
    double best512 = 0.0;
    if (auto it = best.find(512); it != best.end()) best512 = it->second.second;
    // Huge nominal bandwidth isolates the AI of the active tiles; the
    // attainable line then equals the measured peak.
    const KernelRoofline kr =
        split_gemm_roofline(peak_gflops * 1e9, 1e18, gemm_tiling().kc);
    suite.series("roofline/gen3")
        .info("isa", la::simd_isa_name(tuned.isa))
        .info("tile", std::to_string(tuned.mr) + "x" + std::to_string(tuned.nr))
        .info("from_cache", tuned.from_cache ? "yes" : "no")
        .value("fma_peak_gflops", peak_gflops)
        .value("arithmetic_intensity", kr.arithmetic_intensity)
        .value("measured_best_gflops_n512", best512)
        .value("peak_fraction_n512",
               peak_gflops > 0.0 ? best512 / peak_gflops : 0.0);
    std::printf(
        "engine roofline [%s %dx%d kc=%lld]: measured FMA peak %.2f GFLOP/s, "
        "best zgemm(512) %.2f GFLOP/s (%.0f%% of peak)\n",
        la::simd_isa_name(tuned.isa), tuned.mr, tuned.nr,
        static_cast<long long>(gemm_tiling().kc), peak_gflops, best512,
        peak_gflops > 0.0 ? 100.0 * best512 / peak_gflops : 0.0);
  }

  bench::section("GEMM engine GFLOP/s (BENCH_kernels.json)");
  table.print();
  suite.write("BENCH_kernels.json");
  bench::write_run_report("kernels_micro", "BENCH_kernels_report.json");
}

}  // namespace
}  // namespace xgw

int main(int argc, char** argv) {
  // --json-only skips the google-benchmark suites (used by CI / acceptance
  // checks that only want the machine-readable sweep).
  bool json_only = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--json-only") json_only = true;
  // Always log what the dispatcher saw — the perf-gate log needs the host's
  // CPU features next to the numbers it is about to gate on.
  std::printf("cpu features: %s\n", xgw::la::simd_feature_string().c_str());
  xgw::emit_kernel_json();
  if (json_only) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
