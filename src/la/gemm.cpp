#include "la/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/concurrency.h"
#include "la/autotune.h"
#include "la/microkernel.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace xgw {

namespace {

const char* variant_name(GemmVariant v) {
  switch (v) {
    case GemmVariant::kReference: return "reference";
    case GemmVariant::kSimd: return "simd";
    case GemmVariant::kParallel: return "parallel";
    case GemmVariant::kAuto: return "auto";
  }
  return "?";
}

}  // namespace

std::pair<idx, idx> op_shape(Op op, const ZMatrix& a) {
  if (op == Op::kNone) return {a.rows(), a.cols()};
  return {a.cols(), a.rows()};
}

bool in_parallel_region() {
  if (in_worker_team()) return true;
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

int xgw_num_threads() {
#ifdef _OPENMP
  // The env override is read once; the OpenMP default is queried live so
  // omp_set_num_threads() keeps working as expected.
  static const int env_threads = [] {
    const char* env = std::getenv("XGW_NUM_THREADS");
    return env != nullptr ? std::atoi(env) : 0;
  }();
  return env_threads > 0 ? env_threads : omp_get_max_threads();
#else
  return 1;
#endif
}

namespace {

// Element of op(A) at logical position (i, j).
inline cplx op_elem(Op op, const ZMatrix& a, idx i, idx j) {
  switch (op) {
    case Op::kNone: return a(i, j);
    case Op::kTrans: return a(j, i);
    default: return std::conj(a(j, i));
  }
}

/// Complex product with its rounding pinned, for the reference loops and
/// the zgemv update: re = fma(ur, vr, -ui*vi), im = fma(ur, vi, ui*vr).
/// GCC fuses a*b +- c by default (-ffp-contract=fast) and where it fuses
/// depends on inlining, so a plain std::complex product here can change
/// bits when unrelated code in this file moves. The operand order at each
/// call site keeps the rounding these sites have always had.
inline cplx mul(cplx u, cplx v) {
  return {std::fma(u.real(), v.real(), -(u.imag() * v.imag())),
          std::fma(u.real(), v.imag(), u.imag() * v.real())};
}

/// The reference loop: C rows [c_row0, c_row0 + m) = alpha * op(A) op(B) +
/// beta * C. beta == 0 overwrites C, so NaN/Inf already there never
/// survives (0 * NaN would).
void gemm_reference(Op opa, Op opb, cplx alpha, const ZMatrix& a,
                    const ZMatrix& b, cplx beta, ZMatrix& c, idx c_row0 = 0) {
  const auto [m, k] = op_shape(opa, a);
  const idx n = op_shape(opb, b).second;
  for (idx i = 0; i < m; ++i) {
    cplx* crow = c.row(c_row0 + i);
    for (idx j = 0; j < n; ++j) {
      cplx acc{};
      for (idx l = 0; l < k; ++l)
        acc += mul(op_elem(opa, a, i, l), op_elem(opb, b, l, j));
      const cplx x = mul(acc, alpha);
      crow[j] = beta == cplx{} ? x : x + mul(beta, crow[j]);
    }
  }
}

/// C(upper) += A^H B, the reference for zherk_update.
void herk_reference(const ZMatrix& a, const ZMatrix& b, ZMatrix& c) {
  const idx p = a.rows();
  const idx n = a.cols();
  for (idx i = 0; i < n; ++i)
    for (idx j = i; j < n; ++j) {
      cplx acc{};
      for (idx l = 0; l < p; ++l) acc += mul(b(l, j), std::conj(a(l, i)));
      c(i, j) += acc;
    }
}

// kAuto cutoffs, in m*n*k complex multiply-adds: below kAutoTiny the
// packing overhead dominates and the reference loop wins; above
// kAutoParallel the problem amortizes spawning an OpenMP team.
constexpr double kAutoTiny = 4096.0;        // 16^3
constexpr double kAutoParallel = 262144.0;  // 64^3

/// Whether a kernel asked to parallelize should actually spawn a team:
/// never without a real OpenMP runtime (xgw_num_threads() == 1), never from
/// inside an active parallel region (nested-call safety: the caller already
/// owns the cores), and never when there are too few panels to share.
bool should_parallelize(bool requested, idx n_panels) {
  if (!requested || n_panels <= 1) return false;
  if (in_parallel_region()) return false;
  return xgw_num_threads() > 1;
}

/// beta-scale C rows [r0, r0 + m) up front so engine tiles pure-accumulate.
void scale_rows(cplx beta, ZMatrix& c, idx r0, idx m) {
  cplx* p = c.data() + r0 * c.cols();
  const idx len = m * c.cols();
  if (beta == cplx{0.0, 0.0}) {
    std::fill(p, p + len, cplx{});
  } else if (beta != cplx{1.0, 0.0}) {
    for (idx i = 0; i < len; ++i) p[i] *= beta;
  }
}

/// FLOP/byte attribution shared by every entry point.
void account(std::uint64_t counted, std::uint64_t bytes, FlopCounter* flops) {
  obs::attribute_flops(counted);
  obs::attribute_bytes(bytes);
  if (flops != nullptr) flops->add(counted);
}

void engine_span_args(obs::Span& span, const GemmV3Config& cfg) {
  span.arg("isa", la::simd_isa_name(cfg.isa));
  span.arg("mr", static_cast<long long>(cfg.mr));
  span.arg("nr", static_cast<long long>(cfg.nr));
  span.arg("kc", static_cast<long long>(cfg.kc));
  span.arg("nc", static_cast<long long>(cfg.nc));
}

// ---------------------------------------------------------------------------
// The engine (kSimd / kParallel / zgemm_batch / zgemm_v3_explicit): operands
// are packed into zero-padded MR/NR strips of split-complex (re/im planar)
// doubles and each C tile is computed by an explicit register-blocked
// micro-kernel (la/microkernel.*) that keeps the tile FMA-resident across
// the whole KC block. Kernel + tile sizes come from the GemmV3Config (cpuid
// dispatch + disk-cached autotune).

/// Per-thread strip-packed workspace of the engine. Capacities are CLAMPED
/// to the actual problem dimensions: a block never exceeds min(tile, dim),
/// so small products (the GWPT/GPP perturbed chains, tiny batch members)
/// allocate and zero only what one block can touch instead of the full
/// autotuned-tile footprint. Clamping changes capacity only — block
/// boundaries, loop order, and therefore results are untouched.
struct V3Buffers {
  std::vector<double> are, aim, cre, cim;
  V3Buffers(const GemmV3Config& cfg, idx m, idx n, idx k)
      : are(padded_a(cfg, m, k)),
        aim(padded_a(cfg, m, k)),
        cre(static_cast<std::size_t>(std::min(cfg.mc, m) *
                                     std::min(cfg.nc, n))),
        cim(static_cast<std::size_t>(std::min(cfg.mc, m) *
                                     std::min(cfg.nc, n))) {}
  static std::size_t padded_a(const GemmV3Config& cfg, idx m, idx k) {
    const idx strips = (std::min(cfg.mc, m) + cfg.mr - 1) / cfg.mr;
    return static_cast<std::size_t>(strips * cfg.mr * std::min(cfg.kc, k));
  }
  static std::size_t padded_b(const GemmV3Config& cfg, idx n, idx k) {
    const idx strips = (std::min(cfg.nc, n) + cfg.nr - 1) / cfg.nr;
    return static_cast<std::size_t>(strips * cfg.nr * std::min(cfg.kc, k));
  }
};

/// Runs `pair_work(p, l0, kb, j0, nb, bre, bim, w)` for every pair p and
/// every (KC x NC) block of op(B), in the engine's loop order (l0, j0, p): the
/// packed-B panel for one (l0, j0) is built ONCE and shared by every pair —
/// and, in parallel, by the whole OpenMP team. Each C tile receives its
/// k-blocks in fixed l0 order regardless of thread count, so serial and
/// parallel runs are bitwise identical.
template <class PairWork>
void engine_loop(const GemmV3Config& cfg, Op opb, const ZMatrix& b, idx n,
                 idx k, idx m_max, idx n_pairs, bool parallel,
                 const PairWork& pair_work) {
  std::vector<double> bre(V3Buffers::padded_b(cfg, n, k));
  std::vector<double> bim(V3Buffers::padded_b(cfg, n, k));
  auto pack_row = [&](idx l, idx l0, idx kb, idx j0, idx nb) {
    la::pack_b_strips_row(opb, b, l0, l, j0, nb, cfg.nr, kb, bre.data(),
                          bim.data());
  };

  // The serial copy of the loop nest stays free of OpenMP runtime calls:
  // it is what every small product and every nested call runs.
  if (should_parallelize(parallel, n_pairs)) {
#ifdef _OPENMP
#pragma omp parallel num_threads(xgw_num_threads())
    {
      V3Buffers w(cfg, m_max, n, k);
      for (idx l0 = 0; l0 < k; l0 += cfg.kc) {
        const idx kb = std::min(cfg.kc, k - l0);
        for (idx j0 = 0; j0 < n; j0 += cfg.nc) {
          const idx nb = std::min(cfg.nc, n - j0);
#pragma omp for schedule(static)
          for (idx l = 0; l < kb; ++l) pack_row(l, l0, kb, j0, nb);
          // implicit barrier: the B panel is complete before any pair
          // reads it, and fully consumed before the next re-pack.
#pragma omp for schedule(dynamic)
          for (idx p = 0; p < n_pairs; ++p)
            pair_work(p, l0, kb, j0, nb, bre.data(), bim.data(), w);
        }
      }
    }
#endif
  } else {
    V3Buffers w(cfg, m_max, n, k);
    for (idx l0 = 0; l0 < k; l0 += cfg.kc) {
      const idx kb = std::min(cfg.kc, k - l0);
      for (idx j0 = 0; j0 < n; j0 += cfg.nc) {
        const idx nb = std::min(cfg.nc, n - j0);
        for (idx l = 0; l < kb; ++l) pack_row(l, l0, kb, j0, nb);
        for (idx p = 0; p < n_pairs; ++p)
          pair_work(p, l0, kb, j0, nb, bre.data(), bim.data(), w);
      }
    }
  }
}

/// The tile grid of one row panel against the current shared B panel:
/// pack the A strips, then run the micro-kernel over every (s, t) tile
/// (masked stores handle the n edge; zero-padded strips the m/k edges).
/// The planar accumulator lands in w.cre / w.cim, row stride nb.
void panel_tiles(const GemmV3Config& cfg, la::MicroKernelFn kern, Op opa,
                 const ZMatrix& a, idx i0, idx mb, idx kb, idx l0, idx nb,
                 const double* bre, const double* bim, V3Buffers& w) {
  la::pack_a_strips(opa, a, i0, mb, l0, kb, cfg.mr, w.are.data(),
                    w.aim.data());
  const idx smb = (mb + cfg.mr - 1) / cfg.mr;
  const idx snb = (nb + cfg.nr - 1) / cfg.nr;
  for (idx t = 0; t < snb; ++t) {
    const int nrem = static_cast<int>(std::min<idx>(cfg.nr, nb - t * cfg.nr));
    const double* btr = bre + t * kb * cfg.nr;
    const double* bti = bim + t * kb * cfg.nr;
    for (idx s = 0; s < smb; ++s) {
      const int mrem =
          static_cast<int>(std::min<idx>(cfg.mr, mb - s * cfg.mr));
      kern(kb, w.are.data() + s * kb * cfg.mr, w.aim.data() + s * kb * cfg.mr,
           btr, bti, w.cre.data() + (s * cfg.mr) * nb + t * cfg.nr,
           w.cim.data() + (s * cfg.mr) * nb + t * cfg.nr, nb, mrem, nrem);
    }
  }
}

la::MicroKernelFn engine_kernel(const GemmV3Config& cfg) {
  la::MicroKernelFn kern = la::select_microkernel(cfg.isa, cfg.mr, cfg.nr);
  XGW_REQUIRE(kern != nullptr,
              "gemm engine: no compiled micro-kernel for this (isa, mr, nr)");
  return kern;
}

/// The one GEMM driver: C_i = alpha * op(A_i) * op(B) + beta * C_i over
/// `items` (zgemm and zgemm_v3_explicit are the one-item case). The
/// parallel unit is the (item, row-panel) pair; each pair owns disjoint C
/// rows.
void engine_gemm(const GemmV3Config& cfg, Op opa, Op opb, cplx alpha,
                 std::span<const GemmBatchItem> items, const ZMatrix& b,
                 cplx beta, bool parallel) {
  const la::MicroKernelFn kern = engine_kernel(cfg);
  const auto [k, n] = op_shape(opb, b);

  struct Pair {
    const GemmBatchItem* item;
    idx m, panel;
  };
  std::vector<Pair> pairs;
  idx m_max = 0;
  for (const GemmBatchItem& it : items) {
    const idx mi = op_shape(opa, *it.a).first;
    scale_rows(beta, *it.c, it.c_row0, mi);
    m_max = std::max(m_max, mi);
    for (idx p = 0; p * cfg.mc < mi; ++p) pairs.push_back({&it, mi, p});
  }
  const double alr = alpha.real(), ali = alpha.imag();

  engine_loop(
      cfg, opb, b, n, k, m_max, static_cast<idx>(pairs.size()), parallel,
      [&](idx p, idx l0, idx kb, idx j0, idx nb, const double* bre,
          const double* bim, V3Buffers& w) {
        const Pair& pr = pairs[static_cast<std::size_t>(p)];
        const idx i0 = pr.panel * cfg.mc;
        const idx mb = std::min(cfg.mc, pr.m - i0);
        panel_tiles(cfg, kern, opa, *pr.item->a, i0, mb, kb, l0, nb, bre,
                    bim, w);
        // Convert-add the planar accumulator into interleaved C with alpha.
        for (idx i = 0; i < mb; ++i) {
          cplx* crow = pr.item->c->row(pr.item->c_row0 + i0 + i) + j0;
          const double* rr = w.cre.data() + i * nb;
          const double* ri = w.cim.data() + i * nb;
          for (idx j = 0; j < nb; ++j)
            crow[j] +=
                cplx{alr * rr[j] - ali * ri[j], alr * ri[j] + ali * rr[j]};
        }
      });
}

/// Hermitian rank-k on the engine: C(upper) += A^H B, row panels of
/// op(A) = A^H; tiles entirely below the diagonal are skipped and partial
/// tiles are masked at write-back (the micro-kernel computes the full tile
/// into the planar scratch; only the upper-triangle part is added to C).
void engine_herk(const GemmV3Config& cfg, const ZMatrix& a, const ZMatrix& b,
                 ZMatrix& c, bool parallel) {
  const la::MicroKernelFn kern = engine_kernel(cfg);
  const idx p = a.rows();  // contraction length
  const idx n = a.cols();  // C dimension

  engine_loop(
      cfg, Op::kNone, b, n, p, n, (n + cfg.mc - 1) / cfg.mc, parallel,
      [&](idx panel, idx l0, idx kb, idx j0, idx nb, const double* bre,
          const double* bim, V3Buffers& w) {
        const idx i0 = panel * cfg.mc;
        if (j0 + nb <= i0) return;  // tile entirely below the diagonal
        const idx mb = std::min(cfg.mc, n - i0);
        panel_tiles(cfg, kern, Op::kConjTrans, a, i0, mb, kb, l0, nb, bre,
                    bim, w);
        for (idx i = 0; i < mb; ++i) {
          // Upper triangle only: global column >= global row.
          const idx jstart = std::max<idx>(0, (i0 + i) - j0);
          cplx* crow = c.row(i0 + i) + j0;
          const double* rr = w.cre.data() + i * nb;
          const double* ri = w.cim.data() + i * nb;
          for (idx j = jstart; j < nb; ++j) crow[j] += cplx{rr[j], ri[j]};
        }
      });
}

/// Checks op(A) op(B) -> C shapes; returns (m, n, k).
std::tuple<idx, idx, idx> gemm_shape(const char* who, Op opa, Op opb,
                                     const ZMatrix& a, const ZMatrix& b,
                                     const ZMatrix& c) {
  const auto [m, ka] = op_shape(opa, a);
  const auto [kb, n] = op_shape(opb, b);
  XGW_REQUIRE(ka == kb, std::string(who) +
                            ": inner dimensions of op(A), op(B) must match");
  XGW_REQUIRE(c.rows() == m && c.cols() == n,
              std::string(who) +
                  ": C shape must be op(A).rows x op(B).cols");
  return {m, n, ka};
}

}  // namespace

GemmTiling gemm_tiling() {
  const GemmV3Config& cfg = gemm_v3_active_config();
  return {cfg.mc, cfg.kc, cfg.nc};
}

const GemmV3Config& gemm_v3_active_config() {
  static const GemmV3Config cfg = [] {
    const la::AutotuneResult& r = la::autotune_result();
    return GemmV3Config{r.isa, r.mr, r.nr, r.mc, r.kc, r.nc};
  }();
  return cfg;
}

GemmVariant resolved_gemm_variant(GemmVariant requested, idx m, idx n,
                                  idx k) {
  if (requested == GemmVariant::kAuto) {
    const double work = static_cast<double>(m) * static_cast<double>(n) *
                        static_cast<double>(k);
    if (work <= kAutoTiny) return GemmVariant::kReference;
    if (work < kAutoParallel || in_parallel_region() ||
        xgw_num_threads() <= 1)
      return GemmVariant::kSimd;
    return GemmVariant::kParallel;
  }
  // Nested-call guard at the DISPATCH point (not only inside the kernel):
  // an explicit kParallel issued from inside an active parallel region, or
  // without an OpenMP team to spawn, runs (and is trace-attributed as) the
  // serial engine — the caller already owns the cores.
  if (requested == GemmVariant::kParallel &&
      (in_parallel_region() || xgw_num_threads() <= 1))
    return GemmVariant::kSimd;
  return requested;
}

void zgemm_v3_explicit(const GemmV3Config& cfg, Op opa, Op opb, cplx alpha,
                       const ZMatrix& a, const ZMatrix& b, cplx beta,
                       ZMatrix& c, bool parallel) {
  gemm_shape("zgemm_v3_explicit", opa, opb, a, b, c);
  const GemmBatchItem one{&a, &c};
  engine_gemm(cfg, opa, opb, alpha, {&one, 1}, b, beta, parallel);
}

void zgemm(Op opa, Op opb, cplx alpha, const ZMatrix& a, const ZMatrix& b,
           cplx beta, ZMatrix& c, GemmVariant variant, FlopCounter* flops) {
  const auto [m, n, k] = gemm_shape("zgemm", opa, opb, a, b, c);
  variant = resolved_gemm_variant(variant, m, n, k);
  const bool engine = variant != GemmVariant::kReference;

  obs::Span span("zgemm", "la", obs::detail_level::kFine);
  if (span.active()) {
    span.arg("m", static_cast<long long>(m));
    span.arg("n", static_cast<long long>(n));
    span.arg("k", static_cast<long long>(k));
    span.arg("variant", variant_name(variant));
    if (engine) {
      const GemmV3Config& cfg = gemm_v3_active_config();
      // Packed-panel reuse: each of the m/MC row panels is repacked once
      // per (KC x NC) B tile it meets, so this is the engine's A-reuse.
      span.arg("row_panels",
               static_cast<long long>((m + cfg.mc - 1) / cfg.mc));
      engine_span_args(span, cfg);
    }
  }

  if (engine) {
    const GemmBatchItem one{&a, &c};
    engine_gemm(gemm_v3_active_config(), opa, opb, alpha, {&one, 1}, b, beta,
                variant == GemmVariant::kParallel);
  } else {
    gemm_reference(opa, opb, alpha, a, b, beta, c);
  }

  account(static_cast<std::uint64_t>(flop_model::zgemm(m, n, k)),
          16u * static_cast<std::uint64_t>(m * k + k * n + 2 * m * n), flops);
}

void zgemm_batch(Op opa, Op opb, cplx alpha,
                 const std::vector<GemmBatchItem>& items, const ZMatrix& b,
                 cplx beta, FlopCounter* flops) {
  if (items.empty()) return;
  const auto [k, n] = op_shape(opb, b);

  std::uint64_t counted = 0;
  std::uint64_t bytes = 16u * static_cast<std::uint64_t>(k * n);  // B once
  double batch_work = 0.0;
  for (const GemmBatchItem& it : items) {
    XGW_REQUIRE(it.a != nullptr && it.c != nullptr,
                "zgemm_batch: null item operand");
    const auto [mi, ki] = op_shape(opa, *it.a);
    XGW_REQUIRE(ki == k,
                "zgemm_batch: every op(A_i) must share k = op(B).rows");
    XGW_REQUIRE(it.c_row0 >= 0 && it.c->rows() >= it.c_row0 + mi &&
                    it.c->cols() == n,
                "zgemm_batch: C_i row window [c_row0, c_row0 + op(A_i).rows) "
                "out of bounds or cols != op(B).cols");
    counted += static_cast<std::uint64_t>(flop_model::zgemm(mi, n, k));
    bytes += 16u * static_cast<std::uint64_t>(mi * k + 2 * mi * n);
    batch_work += static_cast<double>(mi) * static_cast<double>(n) *
                  static_cast<double>(k);
  }

  // Tiny-batch dispatch mirrors kAuto's small-matrix cutoff: when the
  // AVERAGE item sits below the reference crossover, packing the shared B
  // panel and zeroing planar scratch cost more than they save (the GWPT
  // perturbed chain hits this with n_sigma x N_G blocks at toy N_G), so run
  // the reference loop per item instead. Row windows are honoured; the
  // path is serial, hence trivially thread-count-invariant.
  const bool tiny =
      batch_work <= kAutoTiny * static_cast<double>(items.size());

  obs::Span span("zgemm_batch", "la", obs::detail_level::kFine);
  if (span.active()) {
    span.arg("items", static_cast<long long>(items.size()));
    span.arg("n", static_cast<long long>(n));
    span.arg("k", static_cast<long long>(k));
    if (tiny) {
      span.arg("variant", "reference");
    } else {
      const GemmV3Config& cfg = gemm_v3_active_config();
      long long n_pairs = 0;
      for (const GemmBatchItem& it : items)
        n_pairs += (op_shape(opa, *it.a).first + cfg.mc - 1) / cfg.mc;
      span.arg("pairs", n_pairs);
      engine_span_args(span, cfg);
    }
  }

  if (tiny) {
    for (const GemmBatchItem& it : items)
      gemm_reference(opa, opb, alpha, *it.a, b, beta, *it.c, it.c_row0);
  } else {
    engine_gemm(gemm_v3_active_config(), opa, opb, alpha, items, b, beta,
                /*parallel=*/true);
  }
  account(counted, bytes, flops);
}

void zherk_update(const ZMatrix& a, const ZMatrix& b, ZMatrix& c,
                  GemmVariant variant, FlopCounter* flops) {
  const idx p = a.rows();
  const idx n = a.cols();
  XGW_REQUIRE(b.rows() == p && b.cols() == n,
              "zherk_update: A and B must have identical shape");
  XGW_REQUIRE(c.rows() == n && c.cols() == n,
              "zherk_update: C must be n x n");

  variant = resolved_gemm_variant(variant, n, n, p);
  const bool engine = variant != GemmVariant::kReference;

  obs::Span span("zherk_update", "la", obs::detail_level::kFine);
  if (span.active()) {
    span.arg("n", static_cast<long long>(n));
    span.arg("k", static_cast<long long>(p));
    span.arg("variant", variant_name(variant));
    if (engine) {
      const GemmV3Config& cfg = gemm_v3_active_config();
      span.arg("row_panels",
               static_cast<long long>((n + cfg.mc - 1) / cfg.mc));
      engine_span_args(span, cfg);
    }
  }

  if (engine)
    engine_herk(gemm_v3_active_config(), a, b, c,
                /*parallel=*/variant == GemmVariant::kParallel);
  else
    herk_reference(a, b, c);

  // Mirror: the product is Hermitian by contract, so the lower triangle is
  // the conjugate of the accumulated upper one and the diagonal is real.
  for (idx i = 0; i < n; ++i) {
    c(i, i) = cplx{c(i, i).real(), 0.0};
    for (idx j = i + 1; j < n; ++j) c(j, i) = std::conj(c(i, j));
  }

  account(static_cast<std::uint64_t>(flop_model::zherk(n, p)),
          16u * static_cast<std::uint64_t>(2 * p * n + 2 * n * n), flops);
}

void zgemv(Op opa, cplx alpha, const ZMatrix& a, const std::vector<cplx>& x,
           cplx beta, std::vector<cplx>& y, FlopCounter* flops) {
  const auto [m, k] = op_shape(opa, a);
  XGW_REQUIRE(static_cast<idx>(x.size()) == k, "zgemv: x size mismatch");
  XGW_REQUIRE(static_cast<idx>(y.size()) == m, "zgemv: y size mismatch");

  obs::Span span("zgemv", "la", obs::detail_level::kFine);
  if (span.active()) {
    span.arg("m", static_cast<long long>(m));
    span.arg("k", static_cast<long long>(k));
  }

  if (opa == Op::kNone) {
    auto row_dot = [&](idx i) {
      cplx acc{};
      const cplx* arow = a.row(i);
      for (idx l = 0; l < k; ++l) acc += arow[l] * x[static_cast<std::size_t>(l)];
      y[static_cast<std::size_t>(i)] =
          mul(acc, alpha) + mul(beta, y[static_cast<std::size_t>(i)]);
    };
    // Rows are independent: parallelize when the matrix is large enough to
    // amortize the team (m*k complex MACs, 8 FLOPs each).
    constexpr idx kGemvParallelWork = 1 << 15;
    if (should_parallelize(m * k >= kGemvParallelWork, m)) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(xgw_num_threads())
      for (idx i = 0; i < m; ++i) row_dot(i);
#endif
    } else {
      for (idx i = 0; i < m; ++i) row_dot(i);
    }
  } else {
    // Transposed cases: accumulate columns to keep row-major access
    // contiguous.
    std::vector<cplx> acc(static_cast<std::size_t>(m), cplx{});
    for (idx l = 0; l < k; ++l) {
      const cplx* arow = a.row(l);
      const cplx xl = x[static_cast<std::size_t>(l)];
      if (opa == Op::kTrans) {
        for (idx i = 0; i < m; ++i)
          acc[static_cast<std::size_t>(i)] += arow[i] * xl;
      } else {
        for (idx i = 0; i < m; ++i)
          acc[static_cast<std::size_t>(i)] += std::conj(arow[i]) * xl;
      }
    }
    for (idx i = 0; i < m; ++i) {
      auto& yi = y[static_cast<std::size_t>(i)];
      yi = mul(alpha, acc[static_cast<std::size_t>(i)]) + mul(beta, yi);
    }
  }
  account(static_cast<std::uint64_t>(flop_model::zgemv(m, k)),
          16u * static_cast<std::uint64_t>(m * k + k + 2 * m), flops);
}

}  // namespace xgw
