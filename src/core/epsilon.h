#pragma once

// Dielectric matrix and its inverse (Eq. 3 of the paper):
//   eps(omega)      = I - v chi(omega)
//   eps^{-1}(omega) = [I - v chi(omega)]^{-1}
//
// Two paths, mirroring the paper's Epsilon module:
//  * Full plane-wave: dense LU inversion of the N_G x N_G matrix
//    (the "Diag"/inversion kernel of Fig. 3).
//  * Static subspace: chi(omega) = C chi_B C^H is low-rank, so the
//    Sherman-Morrison-Woodbury identity gives
//      eps^{-1} = I + v C chi_B (I_B - C^H v C chi_B)^{-1} C^H,
//    requiring only an N_Eig x N_Eig factorization — this is where the
//    25-100x full-frequency speedup of Sec. 5.2 comes from.

#include <span>
#include <string>
#include <vector>

#include "core/chi.h"
#include "core/coulomb.h"
#include "la/lu.h"

namespace xgw {

/// Dense eps(omega) = I - v chi.
ZMatrix epsilon_matrix(const ZMatrix& chi, const CoulombPotential& v);

/// chi <- eps^{-1}(omega): forms eps = I - v chi in chi's buffer (the same
/// operations as epsilon_matrix) and inverts it there (invert_in_place), so
/// the only extra storage is the LU's one N_G x N_G scratch matrix.
void epsilon_inverse_in_place(ZMatrix& chi, const CoulombPotential& v);

/// Dense eps^{-1}(omega) via LU (a copy, then epsilon_inverse_in_place).
ZMatrix epsilon_inverse(const ZMatrix& chi, const CoulombPotential& v);

/// Low-rank representation eps^{-1} = I + L R with L: N_G x N_Eig and
/// R: N_Eig x N_G. apply() costs O(N_G N_Eig) per vector instead of O(N_G^2).
struct LowRankEpsInv {
  ZMatrix left;   ///< L = v C chi_B (I_B - C^H v C chi_B)^{-1}
  ZMatrix right;  ///< R = C^H

  idx n_g() const { return left.rows(); }
  idx n_eig() const { return left.cols(); }

  /// y = eps^{-1} x.
  void apply(const cplx* x, cplx* y) const;

  /// Densify (testing / small systems).
  ZMatrix dense() const;
};

/// Builds the Woodbury inverse from the subspace chi_B(omega).
LowRankEpsInv epsilon_inverse_subspace(const Subspace& sub,
                                       const ZMatrix& chi_sub,
                                       const CoulombPotential& v);

/// Macroscopic screening diagnostic: eps^{-1}_00 (the "head"). For a
/// semiconductor this is 1/eps_infinity in (0, 1).
double epsinv_head(const ZMatrix& epsinv);

/// Dense eps^{-1}(omega_k) for every grid frequency. The frequencies run as
/// sched::run_items tasks on sched::Executor::default_workers() workers,
/// each writing its own result slot. `head_values`, if non-empty, supplies
/// one q->0 head per frequency (as in chi_multi).
///
/// A non-empty `restart_dir` keeps one io/binio restart file per finished
/// frequency (see binio.h). Frequencies whose file is present and intact
/// are loaded instead of computed, and the result is BITWISE the
/// uninterrupted one: each frequency's chi accumulates over the same
/// valence blocks in the same order whether computed alone or in a batch.
/// The loop's files are removed on successful completion.
std::vector<ZMatrix> epsilon_inverse_multi(
    const Mtxel& mtxel, const Wavefunctions& wf, const CoulombPotential& v,
    std::span<const double> omegas, const ChiOptions& opt = {},
    const std::string& restart_dir = {},
    std::span<const cplx> head_values = {});

}  // namespace xgw
