#pragma once

// Complex LU factorization with partial pivoting, linear solves and matrix
// inversion. The Epsilon module forms eps^{-1} = [I - v chi]^{-1} (Eq. 3 of
// the paper) with invert_in_place, in the buffer that held chi.
//
// Solves are row-oriented: after the row permutation, row i of X takes
// X(i,:) -= L(i,j) X(j,:) for j < i ascending; then, for i descending,
// X(i,:) -= U(i,j) X(j,:) for j > i ascending and X(i,:) /= U(i,i). Each
// element sees the same operations in the same order as a column-at-a-time
// dot-product solve, while the inner loops stream contiguous columns. From
// n = 128 the right-hand-side columns are split across xgw_num_threads()
// OpenMP threads (one thread inside an OpenMP region or on a worker team);
// columns are independent, so any split gives the same bits.
//
// Rounding is pinned: lu.cpp compiles with -ffp-contract=off and every
// complex product is an explicit std::fma of the form GCC 12 fused at -O3
// -march=native (DESIGN.md, "Rounding-pinned modules"), so the bits do not
// depend on compiler flags, ISA or thread count. Non-finite input is
// rejected with ErrorKind::kValidation.

#include <vector>

#include "la/matrix.h"

namespace xgw {

/// PA = LU factorization holder (L unit-lower and U upper packed in lu).
class LuFactorization {
 public:
  /// Factorizes a square matrix; throws xgw::Error on exact singularity
  /// and on non-finite entries (kind kValidation).
  explicit LuFactorization(ZMatrix a);

  idx n() const { return lu_.rows(); }

  /// Solve A x = b in place (b becomes x).
  void solve_in_place(std::vector<cplx>& b) const;

  /// Solve A X = B in place; B is n x m, overwritten with X.
  void solve_in_place(ZMatrix& b) const;

 private:
  ZMatrix lu_;
  std::vector<idx> pivots_;
};

/// A <- A^{-1}: factorizes in a's buffer, solves the identity into one
/// n x n scratch matrix and copies the result back.
void invert_in_place(ZMatrix& a);

/// A^{-1} (a copy, then invert_in_place).
ZMatrix invert(const ZMatrix& a);

}  // namespace xgw
