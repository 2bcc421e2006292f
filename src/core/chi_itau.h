#pragma once

// Imaginary-time irreducible polarizability chi^0_GG'(i tau) — the
// space-time route's CHI stage (ROADMAP item 3).
//
// At Gamma (q = 0, spin factor 2) the zero-temperature Green's-function
// product G(i tau) G(-i tau) reduces to occupied x virtual outer products:
//
//   chi^0_GG'(i tau) = -2 sum_vc g_v(tau) g_c(tau) M*_vc(G) M_vc(G'),
//   g_v(tau) = e^{-(mu - E_v) tau},   g_c(tau) = e^{-(E_c - mu) tau},
//
// with mu the mid-gap chemical potential (g_v g_c = e^{-(E_c - E_v) tau}
// exactly — the factorization IS the space-time separation of the two
// propagators). The cosine transform of the per-pair weight -2 e^{-dE tau}
// is -4 dE / (dE^2 + omega^2) = 2 * adler_wiser_delta_imag(dE, omega), so a
// minimax cosine transform of this chi reproduces chi_multi's
// imaginary-axis result to the transform's fit tolerance — the
// cross-validation hook the tier-1 tests pin.
//
// Structure mirrors chi_multi: per valence NV-Block the pair block M is
// assembled ONCE, then every tau of the pass accumulates
// chi(i tau) += M^H diag(w(tau)) M through the Hermitian rank-k kernel
// (the weights are real and negative, so chi(i tau) is Hermitian negative
// semi-definite like the imaginary-frequency axis). Tau points run as
// sched::TaskGraph tasks with DISJOINT chi[k] output slots and a fixed
// valence-block accumulation order, so results are bitwise invariant for
// any worker count. Tau batches (mem::plan freq_batch) bound the number of
// live N_G x N_G accumulators; each extra pass re-pays MTXEL only.

#include <span>
#include <vector>

#include "common/flops.h"
#include "core/mtxel.h"
#include "la/gemm.h"

namespace xgw {

struct ChiItauOptions {
  idx nv_block = 8;             ///< NV-Block size (valence bands per block)
  FlopCounter* flops = nullptr; ///< optional FLOP accounting
  int workers = 0;              ///< tau-task workers; <= 0: scheduler default
  idx tau_batch = 0;            ///< taus per pass; 0 = all in one pass
};

/// chi^0(i tau_j) for every tau node. `head_values`, if non-empty, supplies
/// one q->0 head per tau (installed rank-1 in G = 0, as in chi_multi).
std::vector<ZMatrix> chi_itau_multi(const Mtxel& mtxel, const Wavefunctions& wf,
                                    std::span<const double> taus,
                                    const ChiItauOptions& opt = {},
                                    std::span<const cplx> head_values = {});

/// q^2-reduced macroscopic head at i tau: the chi_head_reduced analogue
/// with the Lorentzian pair factor replaced by its imaginary-time preimage
/// -e^{-w_cv tau} (the function the cosine transform maps onto
/// adler_wiser_delta_imag).
cplx chi_head_reduced_itau(const Wavefunctions& wf, const GSphere& psi_sphere,
                           const Lattice& lattice, double tau);

}  // namespace xgw
