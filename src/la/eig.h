#pragma once

// Dense Hermitian eigensolvers, implemented from scratch.
//
// Every dense diagonalization in xgw goes through heev: the mean-field
// plane-wave Hamiltonian (solve_dense, band structures), Davidson and
// Parabands Rayleigh-Ritz, chi's static subspace (Sec. 5.2), RPA, BSE and
// phonons.
//
// Two independent algorithms are provided and cross-validated in tests:
//  * kHouseholderQL, the production path: unitary Householder reduction to
//    a real symmetric tridiagonal (the rank-2 update of each step fused with
//    the next step's matvec), phase normalization of the subdiagonal,
//    implicit-shift QL on (d, e), and Q formed row by row afterwards:
//    reflectors, phases, then the recorded QL rotations in batches.
//    O(n^3) with a small prefactor.
//  * kJacobi: cyclic complex Jacobi rotations; slower but self-evidently
//    correct, the reference in property tests.
//
// Threading: from n = 128 the Householder stages split over rows on
// xgw_num_threads() OpenMP threads. Inside an active parallel region or on
// a scheduler worker team (in_parallel_region()) they run on one thread.
//
// Bits: kHouseholderQL output is bitwise identical at any thread count and
// under any compiler flags; golden hashes in test_la_eig pin it. See
// DESIGN.md, "Dense eigensolver".

#include <vector>

#include "la/matrix.h"

namespace xgw {

struct EigResult {
  /// Eigenvalues sorted ascending.
  std::vector<double> values;
  /// Unitary matrix whose COLUMN j is the eigenvector for values[j].
  ZMatrix vectors;
};

enum class EigMethod { kHouseholderQL, kJacobi };

/// Full eigendecomposition of a Hermitian matrix. The input must be
/// Hermitian to working precision (checked loosely); the solver works on
/// (A + A^H) / 2. Opens an `heev` trace span (category la, fine detail)
/// with the size n as its argument; it attributes no FLOPs.
EigResult heev(const ZMatrix& a, EigMethod method = EigMethod::kHouseholderQL);

/// Max residual ||A v - lambda v||_inf over all pairs; testing aid.
double eig_residual(const ZMatrix& a, const EigResult& r);

}  // namespace xgw
