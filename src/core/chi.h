#pragma once

// Polarizability chi_GG'(omega) — Eq. 4 of the paper — and its static
// subspace compression (Sec. 5.2, Eq. 6).
//
// CHI_SUM is the computationally dominant Epsilon-module kernel. The sum
// over (v, c) pairs is cast as dense matrix multiplication:
//   chi = M^H diag(Delta) M,  M the (N_pairs x N_G) pair-matrix-element
// block. Holding all N_v * N_c pairs at once is the O(N^3) memory wall the
// paper describes; the NV-Block algorithm processes the valence bands in
// blocks of nv_block, bounding the workspace at nv_block * N_c * N_G while
// producing bit-identical results (validated by tests).
//
// Frequency dependence: Delta_vc(omega) is the standard Adler-Wiser energy
// factor; omega = 0 gives the static (negative-definite Hermitian) chi used
// both by the GPP model and as the basis generator for the static subspace.

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "common/flops.h"
#include "core/mtxel.h"
#include "la/gemm.h"

namespace xgw {

/// Adler-Wiser energy denominator factor for one (v, c) pair:
/// Delta = 1/(omega - dE + i eta) - 1/(omega + dE - i eta), dE = E_c - E_v.
/// At omega = 0 this is -2 dE / (dE^2 + eta^2) (real, negative).
cplx adler_wiser_delta(double e_v, double e_c, double omega, double eta);

/// Imaginary-axis factor Delta(i omega) = -2 dE / (dE^2 + omega^2): real
/// and negative, so chi(i omega) is Hermitian negative semi-definite — the
/// analytic structure RPA correlation-energy quadrature relies on.
double adler_wiser_delta_imag(double e_v, double e_c, double omega);

struct ChiOptions {
  double eta = 1e-3;            ///< broadening (Hartree)
  idx nv_block = 8;             ///< NV-Block size (valence bands per block)
  FlopCounter* flops = nullptr; ///< optional FLOP accounting
  /// q->0 head value to install (see chi_head_value). M(G=0) vanishes by
  /// orthogonality at Gamma, so without this the supercell has no
  /// macroscopic screening; the standard fix evaluates the head from
  /// velocity matrix elements. 0 disables.
  cplx head_value = 0.0;
  /// Interpret the frequencies as IMAGINARY (chi(i omega), Hermitian):
  /// the RPA correlation-energy and analytic-continuation paths.
  bool imaginary_axis = false;
};

/// Full plane-wave chi_GG'(omega) (N_G x N_G). The spin factor 2 of Eq. 4
/// is included.
ZMatrix chi_pw(const Mtxel& mtxel, const Wavefunctions& wf, double omega,
               const ChiOptions& opt = {});

/// Static chi(0) — convenience wrapper (real spectral weight).
inline ZMatrix chi_static(const Mtxel& mtxel, const Wavefunctions& wf,
                          const ChiOptions& opt = {}) {
  return chi_pw(mtxel, wf, 0.0, opt);
}

/// Static subspace basis (Sec. 5.2): eigenvectors of the symmetrized static
/// polarizability sqrt(v) chi(0) sqrt(v) with the N_Eig most significant
/// (most negative) eigenvalues.
struct Subspace {
  ZMatrix basis;                  ///< C_s: N_G x N_Eig, orthonormal columns
  std::vector<double> eigenvalues;///< kept eigenvalues of sqrt(v) chi sqrt(v)
  idx n_g() const { return basis.rows(); }
  idx n_eig() const { return basis.cols(); }
};

class CoulombPotential;  // core/coulomb.h

/// Builds the subspace from a precomputed chi(0). `n_eig` <= 0 selects by
/// `fraction` of N_G (the paper: 10-20% is usually converged).
Subspace build_subspace(const ZMatrix& chi0, const CoulombPotential& v,
                        idx n_eig, double fraction = 0.2);

/// chi_BB'(omega != 0) directly in the subspace basis (Eq. 6): M^B = M^G C,
/// cost O(N_pairs * N_G * N_Eig) projection + O(N_pairs * N_Eig^2) sum.
ZMatrix chi_subspace(const Mtxel& mtxel, const Wavefunctions& wf,
                     const Subspace& sub, double omega,
                     const ChiOptions& opt = {});

/// chi at MANY frequencies with the pair matrix elements computed (and,
/// with `sub`, projected) ONCE — the paper's CHI-0 / Transf / CHI-Freq
/// staging, which is why 19 extra frequencies cost about as much as the
/// single zero-frequency full-basis calculation (Sec. 7.2). Without `sub`
/// the result is full plane-wave at each frequency. `head_values` (if
/// non-empty) must have one entry per frequency.
std::vector<ZMatrix> chi_multi(const Mtxel& mtxel, const Wavefunctions& wf,
                               std::span<const double> omegas,
                               const ChiOptions& opt = {},
                               const Subspace* sub = nullptr,
                               std::span<const cplx> head_values = {});

/// Lift a subspace matrix back to plane waves: C X C^H (testing aid).
ZMatrix lift_to_pw(const Subspace& sub, const ZMatrix& x_sub);

/// q^2-reduced macroscopic head of chi at q->0,
///   chibar(omega) = 2 sum_vc Delta_vc(omega) |p_vc|^2 / (3 w_cv^2),
/// from exact plane-wave velocity (momentum) matrix elements
/// p_vc = sum_G c_v^*(G) G c_c(G) — the k.p limit of M_vc(q) = i q.r_vc.
/// (Local mean-field potential: the [V, r] commutator vanishes.)
cplx chi_head_reduced(const Wavefunctions& wf, const GSphere& psi_sphere,
                      const Lattice& lattice, double omega, double eta,
                      bool imaginary_axis = false);

/// The chi(0,0) entry consistent with the Coulomb head regularization in
/// use: chosen so v(0) * chi(0,0) equals the exact limit 4 pi chibar/Omega.
/// Returns 0 when the scheme has v(0) = 0 (head excluded).
cplx chi_head_value(cplx chi_bar, const CoulombPotential& v,
                    const Lattice& lattice);

/// Direction-RESOLVED q^2-reduced head: the diagonal of the macroscopic
/// polarizability tensor, chibar_aa(omega) = 2 sum_vc Delta |p^a_vc|^2 /
/// w_cv^2 for a in {x, y, z}. For cubic systems the three components are
/// equal (chi_head_reduced is their average); for layered/2-D systems the
/// in-plane and out-of-plane screening differ strongly — the dielectric
/// anisotropy that motivates the slab Coulomb truncation.
std::array<cplx, 3> chi_head_tensor(const Wavefunctions& wf,
                                    const GSphere& psi_sphere,
                                    const Lattice& lattice, double omega,
                                    double eta);

}  // namespace xgw
