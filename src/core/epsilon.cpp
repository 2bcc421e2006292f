#include "core/epsilon.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/validate.h"
#include "io/binio.h"
#include "la/gemm.h"
#include "obs/span.h"
#include "sched/executor.h"
#include "sched/run_items.h"

namespace xgw {

namespace {

// chi <- eps = I - v chi, row by row.
void form_epsilon_in_place(ZMatrix& chi, const CoulombPotential& v) {
  const idx ng = chi.rows();
  XGW_REQUIRE(chi.cols() == ng && v.size() == ng,
              "epsilon_matrix: size mismatch");
  for (idx i = 0; i < ng; ++i) {
    const double vi = v(i);
    cplx* row = chi.row(i);
    for (idx j = 0; j < ng; ++j) row[j] = -vi * row[j];
    row[i] += 1.0;
  }
}

}  // namespace

ZMatrix epsilon_matrix(const ZMatrix& chi, const CoulombPotential& v) {
  ZMatrix eps = chi;
  form_epsilon_in_place(eps, v);
  return eps;
}

void epsilon_inverse_in_place(ZMatrix& chi, const CoulombPotential& v) {
  obs::Span span("epsilon_inverse", "epsilon");
  if (span.active()) span.arg("n_g", static_cast<long long>(chi.rows()));
  form_epsilon_in_place(chi, v);
  invert_in_place(chi);
}

ZMatrix epsilon_inverse(const ZMatrix& chi, const CoulombPotential& v) {
  ZMatrix out = chi;
  epsilon_inverse_in_place(out, v);
  return out;
}

void LowRankEpsInv::apply(const cplx* x, cplx* y) const {
  const idx ng = n_g();
  const idx nb = n_eig();
  // y = x + L (R x), routed through zgemv so the large Op::kNone products
  // pick up its row-parallel path.
  const std::vector<cplx> xv(x, x + ng);
  std::vector<cplx> t(static_cast<std::size_t>(nb), cplx{});
  zgemv(Op::kNone, cplx{1.0, 0.0}, right, xv, cplx{}, t);
  std::vector<cplx> yv = xv;
  zgemv(Op::kNone, cplx{1.0, 0.0}, left, t, cplx{1.0, 0.0}, yv);
  std::copy(yv.begin(), yv.end(), y);
}

ZMatrix LowRankEpsInv::dense() const {
  ZMatrix out = ZMatrix::identity(n_g());
  zgemm(Op::kNone, Op::kNone, cplx{1.0, 0.0}, left, right, cplx{1.0, 0.0}, out);
  return out;
}

LowRankEpsInv epsilon_inverse_subspace(const Subspace& sub,
                                       const ZMatrix& chi_sub,
                                       const CoulombPotential& v) {
  const idx ng = sub.n_g();
  const idx nb = sub.n_eig();
  XGW_REQUIRE(chi_sub.rows() == nb && chi_sub.cols() == nb,
              "epsilon_inverse_subspace: chi_B shape mismatch");
  XGW_REQUIRE(v.size() == ng, "epsilon_inverse_subspace: Coulomb mismatch");

  // vc = v C (N_G x N_Eig).
  ZMatrix vc(ng, nb);
  for (idx g = 0; g < ng; ++g) {
    const double vg = v(g);
    for (idx b = 0; b < nb; ++b) vc(g, b) = vg * sub.basis(g, b);
  }

  // A = v C chi_B (N_G x N_Eig); K = I_B - C^H A (N_Eig x N_Eig).
  ZMatrix a(ng, nb);
  zgemm(Op::kNone, Op::kNone, cplx{1.0, 0.0}, vc, chi_sub, cplx{}, a);
  ZMatrix k = ZMatrix::identity(nb);
  zgemm(Op::kConjTrans, Op::kNone, cplx{-1.0, 0.0}, sub.basis, a,
        cplx{1.0, 0.0}, k);

  // L = A K^{-1}: solve K^H? Use column solves of K^T x = ... simpler:
  // L^T = (K^{-1})^T A^T -> solve K^T Y = A^T. Equivalent: L = A K^{-1}
  // computed by solving K^T L^T = A^T.
  LuFactorization lu(transpose(k));
  ZMatrix lt = transpose(a);  // nb x ng
  lu.solve_in_place(lt);
  LowRankEpsInv out;
  out.left = transpose(lt);   // ng x nb
  out.right = adjoint(sub.basis);
  return out;
}

double epsinv_head(const ZMatrix& epsinv) {
  XGW_REQUIRE(epsinv.rows() >= 1, "epsinv_head: empty matrix");
  return epsinv(0, 0).real();
}

std::vector<ZMatrix> epsilon_inverse_multi(
    const Mtxel& mtxel, const Wavefunctions& wf, const CoulombPotential& v,
    std::span<const double> omegas, const ChiOptions& opt,
    const std::string& restart_dir, std::span<const cplx> head_values) {
  XGW_REQUIRE(!omegas.empty(), "epsilon_inverse_multi: need frequencies");
  XGW_REQUIRE(head_values.empty() || head_values.size() == omegas.size(),
              "epsilon_inverse_multi: one head value per frequency");
  const idx nfreq = static_cast<idx>(omegas.size());
  const idx ng = mtxel.n_g();

  obs::Span span("epsilon_inverse_multi", "epsilon", obs::detail_level::kStage);
  if (span.active()) {
    span.arg("n_freq", static_cast<long long>(nfreq));
    span.arg("checkpointed", restart_dir.empty() ? "no" : "yes");
  }

  // One restart file per frequency, named by everything its bits read.
  std::vector<std::string> files;
  if (!restart_dir.empty()) {
    RestartKey base;
    base.add(wf).add(std::span<const double>(v.values()));
    base.add(opt.eta).add(opt.nv_block).add(opt.head_value).add(
        opt.imaginary_axis);
    // The GEMM engine's ISA fixes its kernel and tiles, and with them chi's
    // summation order, so a resume on another host recomputes, never mixes.
    base.add(gemm_v3_active_config().isa);
    for (idx k = 0; k < nfreq; ++k) {
      const std::size_t i = static_cast<std::size_t>(k);
      RestartKey key = base;
      key.add(omegas[i]);
      if (!head_values.empty()) key.add(head_values[i]);
      files.push_back(
          restart_item_path(restart_dir, "eps-" + std::to_string(k), key));
    }
  }

  std::vector<ZMatrix> out(static_cast<std::size_t>(nfreq));
  sched::run_items(
      nfreq,
      [&](idx k) {
        const std::size_t i = static_cast<std::size_t>(k);
        if (!files.empty()) {
          if (std::optional<ZMatrix> m = load_restart_item(files[i], ng, ng)) {
            out[i] = std::move(*m);
            return;
          }
        }
        // One frequency at a time through the same NV-Block accumulation as
        // the batched path: bitwise-equal to chi_multi over the grid.
        std::vector<ZMatrix> chik = chi_multi(
            mtxel, wf, omegas.subspan(i, 1), opt, nullptr,
            head_values.empty() ? std::span<const cplx>{}
                                : head_values.subspan(i, 1));
        epsilon_inverse_in_place(chik.front(), v);
        out[i] = std::move(chik.front());
        require_finite(out[i], "epsilon_inverse_multi: eps^{-1}(omega)");
        if (!files.empty()) save_restart_item(files[i], out[i]);
      },
      sched::Executor::default_workers(), "eps.freq");

  std::error_code ec;
  for (const std::string& f : files) std::filesystem::remove(f, ec);
  return out;
}

}  // namespace xgw
