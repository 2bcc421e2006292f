#include "core/chi_itau.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/validate.h"
#include "mf/velocity.h"
#include "obs/span.h"
#include "sched/executor.h"
#include "sched/run_items.h"

namespace xgw {

std::vector<ZMatrix> chi_itau_multi(const Mtxel& mtxel, const Wavefunctions& wf,
                                    std::span<const double> taus,
                                    const ChiItauOptions& opt,
                                    std::span<const cplx> head_values) {
  const idx nv = wf.n_valence;
  const idx nc = wf.n_conduction();
  XGW_REQUIRE(nv >= 1 && nc >= 1,
              "chi_itau: need valence and conduction bands");
  XGW_REQUIRE(!taus.empty(), "chi_itau_multi: need at least one tau");
  XGW_REQUIRE(head_values.empty() || head_values.size() == taus.size(),
              "chi_itau_multi: one head value per tau required");
  const idx ng = mtxel.n_g();
  const idx ntau = static_cast<idx>(taus.size());
  // Mid-gap chemical potential: both Green's factors decay for tau > 0.
  const double mu = 0.5 * (wf.energy[static_cast<std::size_t>(nv - 1)] +
                           wf.energy[static_cast<std::size_t>(nv)]);

  obs::Span span("chi_itau_multi", "chi");
  if (span.active()) {
    span.arg("n_tau", static_cast<long long>(ntau));
    span.arg("n_g", static_cast<long long>(ng));
    span.add_items(static_cast<std::uint64_t>(ntau));
  }

  std::vector<ZMatrix> chi(static_cast<std::size_t>(ntau));
  for (auto& c : chi) c = ZMatrix(ng, ng);

  const idx nv_block = std::max<idx>(1, std::min(opt.nv_block, nv));
  const idx tau_batch =
      opt.tau_batch > 0 ? std::min(opt.tau_batch, ntau) : ntau;
  const int workers = opt.workers > 0 ? opt.workers
                                      : sched::Executor::default_workers();

  std::vector<idx> c_list(static_cast<std::size_t>(nc));
  for (idx c = 0; c < nc; ++c)
    c_list[static_cast<std::size_t>(c)] = nv + c;

  ZMatrix m_pw(nc, ng);                     // one valence band's M rows
  ZMatrix m_block(nv_block * nc, ng);       // NV-Block pair workspace
  ZMatrix scaled_serial(nv_block * nc, ng); // serial-path scaled workspace

  // Tau batches bound the live accumulator set; each batch re-assembles the
  // valence blocks (same pass convention as the FF screening's freq_batch —
  // MTXEL amortizes within a pass, re-pays across passes).
  for (idx t0 = 0; t0 < ntau; t0 += tau_batch) {
    const idx tb = std::min(tau_batch, ntau - t0);
    for (idx v0 = 0; v0 < nv; v0 += nv_block) {
      const idx vb = std::min(nv_block, nv - v0);
      if (m_block.rows() != vb * nc) {
        m_block.resize(vb * nc, ng);
        scaled_serial.resize(vb * nc, ng);
      }
      for (idx dv = 0; dv < vb; ++dv) {
        mtxel.compute_left_fixed(v0 + dv, c_list, m_pw);
        for (idx c = 0; c < nc; ++c)
          for (idx j = 0; j < ng; ++j)
            m_block(dv * nc + c, j) = m_pw(c, j);
      }
      require_finite(m_block, "chi_itau_multi: M_vc block");

      // One tau of this pass: scaled = diag(-2 g_v g_c) M_block, then the
      // Hermitian rank-k accumulation into chi[k]. Each chi[k] belongs to
      // exactly one task per (batch, block) iteration and receives its
      // valence blocks in the fixed outer-loop order; the GEMM kernels are
      // thread-count invariant — so the result is bitwise identical at any
      // worker count (disjoint-slot contract, as in epsilon's frequency
      // tasks). `scaled` is the caller-provided workspace for this task.
      auto accumulate_tau = [&](idx k_local, ZMatrix& scaled) {
        const idx k = t0 + k_local;
        const double tau = taus[static_cast<std::size_t>(k)];
        for (idx dv = 0; dv < vb; ++dv) {
          const idx v = v0 + dv;
          const double ev = wf.energy[static_cast<std::size_t>(v)];
          const double g_v = std::exp(-(mu - ev) * tau);
          for (idx c = 0; c < nc; ++c) {
            const double ec = wf.energy[static_cast<std::size_t>(nv + c)];
            const double g_c = std::exp(-(ec - mu) * tau);
            const double w = -2.0 * g_v * g_c;
            const cplx* src = m_block.row(dv * nc + c);
            cplx* dst = scaled.row(dv * nc + c);
            for (idx j = 0; j < ng; ++j) dst[j] = w * src[j];
          }
        }
        zherk_update(m_block, scaled, chi[static_cast<std::size_t>(k)],
                     opt.flops);
      };

      if (workers > 1 && tb > 1) {
        sched::run_items(
            tb,
            [&](idx k_local) {
              ZMatrix scaled(vb * nc, ng);  // task-local workspace
              accumulate_tau(k_local, scaled);
            },
            workers, "chi_itau.tau");
      } else {
        for (idx k_local = 0; k_local < tb; ++k_local)
          accumulate_tau(k_local, scaled_serial);
      }
    }
  }

  // Install the q->0 heads (rank-1 in the G = 0 plane wave).
  if (!head_values.empty()) {
    for (idx k = 0; k < ntau; ++k) {
      const cplx hv = head_values[static_cast<std::size_t>(k)];
      if (hv == cplx{}) continue;
      chi[static_cast<std::size_t>(k)](0, 0) += hv;
    }
  }
  for (const ZMatrix& c : chi) require_finite(c, "chi_itau_multi: chi(i tau)");
  return chi;
}

cplx chi_head_reduced_itau(const Wavefunctions& wf, const GSphere& psi_sphere,
                           const Lattice& lattice, double tau) {
  XGW_REQUIRE(wf.n_pw() == psi_sphere.size(),
              "chi_head_reduced_itau: basis mismatch");
  const MomentumOperator mom(psi_sphere, lattice);
  const idx nv = wf.n_valence;
  const idx nb = wf.n_bands();

  cplx acc{};
  for (idx v = 0; v < nv; ++v) {
    for (idx c = nv; c < nb; ++c) {
      const double wcv = wf.energy[static_cast<std::size_t>(c)] -
                         wf.energy[static_cast<std::size_t>(v)];
      if (wcv <= 1e-10) continue;  // degenerate across the gap: skip
      // -e^{-wcv tau} is the cosine-transform preimage of the
      // adler_wiser_delta_imag Lorentzian chi_head_reduced uses on i omega.
      const double factor = -std::exp(-wcv * tau);
      acc += 2.0 * factor * mom.pair_norm2(wf, v, c) / (3.0 * wcv * wcv);
    }
  }
  return acc;
}

}  // namespace xgw
