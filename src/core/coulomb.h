#pragma once

// Coulomb interaction v(G) in the plane-wave basis.
//
// v_G enters the dielectric matrix (Eq. 3) and the self-energy contraction
// (Eq. 2). The G = 0 element diverges and must be regularized; the schemes
// here follow standard plane-wave GW practice:
//  * kExcludeHead       — drop the head (v(0) = 0); baseline used in tests
//                         where absolute head physics is irrelevant.
//  * kSphericalAverage  — replace v(0) by its average over the mini-BZ
//                         (standard supercell Gamma-only treatment).
//  * kSphericalTruncate — Wigner-Seitz-like spherical cutoff
//                         v(G) = 4 pi (1 - cos(|G| Rc)) / |G|^2; removes
//                         spurious periodic images for isolated/defect
//                         systems (the paper's defect supercells).
//  * kSlabTruncate      — 2-D slab truncation for layered systems (the
//                         paper's BN moire bilayer has a 1.5 nm vacuum
//                         layer), truncating along the z axis.

#include <vector>

#include "pw/gvectors.h"

namespace xgw {

enum class CoulombScheme {
  kExcludeHead,
  kSphericalAverage,
  kSphericalTruncate,
  kSlabTruncate,
};

/// Diagonal Coulomb matrix on an epsilon-sphere (Hartree atomic units,
/// normalized per supercell volume: v(G) = 4 pi / (Omega |G|^2) so that
/// v * |M|^2 sums are intensive energies with unit-normalized coefficient
/// vectors).
class CoulombPotential {
 public:
  CoulombPotential(const Lattice& lattice, const GSphere& sphere,
                   CoulombScheme scheme = CoulombScheme::kSphericalAverage);

  /// An explicit v(G) table, e.g. seeded synthetic inputs for the Sigma
  /// kernels; every value must be non-negative.
  explicit CoulombPotential(std::vector<double> values);

  double operator()(idx ig) const { return v_[static_cast<std::size_t>(ig)]; }
  idx size() const { return static_cast<idx>(v_.size()); }
  const std::vector<double>& values() const { return v_; }

  /// sqrt(v(G)), used by the symmetrized dielectric matrix.
  double sqrt_v(idx ig) const { return sqrt_v_[static_cast<std::size_t>(ig)]; }

 private:
  void fill_sqrt_v();

  std::vector<double> v_;
  std::vector<double> sqrt_v_;
};

}  // namespace xgw
