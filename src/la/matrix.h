#pragma once

// Dense row-major matrix container used throughout xgw.
//
// Design notes:
//  * Row-major, contiguous storage; (i, j) -> data[i * cols + j]. All xgw
//    kernels and the FFT-based MTXEL code assume this layout.
//  * No expression templates and no hidden allocation in hot paths: GW
//    kernels pre-allocate their workspaces once (the NV-Block algorithm in
//    particular exists to bound exactly these allocations).
//  * Bounds checks in operator() are compiled in only for debug builds;
//    at(), which always checks, is available for non-hot-path code.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "mem/tracker.h"

namespace xgw {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(idx rows, idx cols) : rows_(rows), cols_(cols) {
    XGW_REQUIRE(rows >= 0 && cols >= 0, "matrix dimensions must be >= 0");
    data_.assign(static_cast<std::size_t>(rows * cols), T{});
  }

  Matrix(idx rows, idx cols, T fill) : rows_(rows), cols_(cols) {
    XGW_REQUIRE(rows >= 0 && cols >= 0, "matrix dimensions must be >= 0");
    data_.assign(static_cast<std::size_t>(rows * cols), fill);
  }

  idx rows() const { return rows_; }
  idx cols() const { return cols_; }
  idx size() const { return rows_ * cols_; }
  bool empty() const { return data_.empty(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T* row(idx i) { return data_.data() + i * cols_; }
  const T* row(idx i) const { return data_.data() + i * cols_; }

  T& operator()(idx i, idx j) {
#ifndef NDEBUG
    XGW_REQUIRE(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                "matrix index out of range");
#endif
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  const T& operator()(idx i, idx j) const {
#ifndef NDEBUG
    XGW_REQUIRE(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                "matrix index out of range");
#endif
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  T& at(idx i, idx j) {
    XGW_REQUIRE(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                "matrix index out of range");
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  const T& at(idx i, idx j) const {
    XGW_REQUIRE(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                "matrix index out of range");
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  void resize(idx rows, idx cols) {
    XGW_REQUIRE(rows >= 0 && cols >= 0, "matrix dimensions must be >= 0");
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows * cols), T{});
  }

  /// Identity of the current (square) shape.
  static Matrix identity(idx n) {
    Matrix m(n, n);
    for (idx i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Storage allocator: allocations are accounted to mem::Tag::kMatrix
  /// (the `la/matrix` gauge and the run report's peak_bytes column).
  using allocator_type = mem::TrackedAllocator<T, mem::Tag::kMatrix>;

 private:
  idx rows_ = 0;
  idx cols_ = 0;
  std::vector<T, allocator_type> data_;
};

using ZMatrix = Matrix<cplx>;
using DMatrix = Matrix<double>;

/// Conjugate transpose (new allocation; not for hot paths).
ZMatrix adjoint(const ZMatrix& a);

/// Plain transpose.
template <typename T>
Matrix<T> transpose(const Matrix<T>& a) {
  Matrix<T> t(a.cols(), a.rows());
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  return t;
}

/// Frobenius norm.
double frobenius_norm(const ZMatrix& a);
double frobenius_norm(const DMatrix& a);

/// max_ij |a_ij - b_ij|; shapes must match.
double max_abs_diff(const ZMatrix& a, const ZMatrix& b);

/// ||A - A^H||_F / max(1, ||A||_F): 0 for exactly Hermitian input.
double hermiticity_error(const ZMatrix& a);

}  // namespace xgw
