#pragma once

// Plane-wave Hamiltonian H = -1/2 nabla^2 + V_EPM for Gamma-point supercell
// calculations (all the paper's workloads are Gamma-only supercells).
//
// Two application paths:
//  * dense()  — explicit N_G^psi x N_G^psi matrix for direct diagonalization.
//  * apply()  — matrix-free H|x> using FFTs (kinetic in G space, potential in
//    real space), the workhorse for the block-Davidson solver and the
//    Chebyshev-Jackson pseudobands constructor (Sec. 5.3), which both only
//    need matrix-vector products.
// The FFT box is sized 4*hmax+1 so the circular convolution reproduces the
// dense V(G - G') exactly (no aliasing); tests assert dense/apply agreement
// to machine precision.

#include <memory>
#include <vector>

#include "fft/fft.h"
#include "mf/epm.h"
#include "pw/gvectors.h"

namespace xgw {

class PwHamiltonian {
 public:
  /// Builds the basis sphere at `cutoff` (Hartree; <= 0 uses the model's
  /// default) and caches V on the FFT box.
  explicit PwHamiltonian(const EpmModel& model, double cutoff = -1.0);

  const EpmModel& model() const { return model_; }
  const GSphere& sphere() const { return sphere_; }
  idx n_pw() const { return sphere_.size(); }
  double cutoff() const { return sphere_.cutoff(); }
  /// The alias-free V(G - G') box that apply() transforms on.
  const FftBox& box() const { return box_; }

  /// Kinetic energy |G|^2 / 2 of basis vector ig (Hartree).
  double kinetic(idx ig) const { return 0.5 * sphere_.norm2(ig); }

  /// Full dense Hamiltonian (Hermitian), for direct diagonalization.
  ZMatrix dense() const;

  /// y = H x, matrix-free via FFT. x, y are length-n_pw coefficient arrays.
  void apply(const cplx* x, cplx* y) const;

  /// Y(:, j) = H X(:, j) for all columns (bands stored as columns).
  void apply_block(const ZMatrix& x, ZMatrix& y) const;

  /// Upper bound on the spectrum (max kinetic + max|V(r)|), used to scale
  /// Chebyshev filters.
  double spectral_upper_bound() const;
  /// Lower bound (min diagonal - max|V| margin).
  double spectral_lower_bound() const;

 private:
  EpmModel model_;
  GSphere sphere_;
  FftBox box_;
  std::unique_ptr<Fft3d> fft_;
  std::vector<cplx> v_real_;        // V(r) on the box
  std::vector<cplx> v_diff_;        // V(G) on the box (difference lookup)
  double vmax_real_ = 0.0;
};

}  // namespace xgw
