#pragma once

// Complex FFTs implemented from scratch (no FFTW dependency).
//
// The MTXEL kernel of the paper computes plane-wave matrix elements
// M^G_{mn} = <m| e^{iG r} |n> by Fourier-transforming real-space
// wavefunction products; it is one of the lower-scaling kernels whose weak
// scaling degrades in Fig. 3. xgw implements an iterative mixed-radix
// (2, 3, 5, generic prime) decimation-in-time FFT: each cached 1-D plan
// holds its digit-reversal permutation and one twiddle table per level, and
// a 3-D transform over a row-major box runs every axis as batches of lines
// with the lines as the vector lanes.
//
// Rounding is part of the contract: every output is accumulated in the same
// order and with the same fused multiply-adds for any batch shape, so a
// transform is bitwise reproducible (see DESIGN.md, "FFT engine").

#include <memory>
#include <vector>

#include "common/types.h"
#include "la/matrix.h"
#include "mem/tracker.h"

namespace xgw {

/// FFT plan tables and transform workspaces, tracked under mem::Tag::kFft.
using FftVector =
    std::vector<cplx, mem::TrackedAllocator<cplx, mem::Tag::kFft>>;

enum class FftDirection { kForward, kBackward };

/// One-dimensional FFT plan for a fixed length. Forward applies
/// X_k = sum_j x_j e^{-2 pi i jk/n}; backward uses e^{+...} and does NOT
/// normalize (callers scale by 1/n where required, matching FFTW).
class Fft1dPlan {
 public:
  explicit Fft1dPlan(idx n);

  idx size() const { return n_; }

  /// In-place transform of a contiguous line of length n. Thread-safe: the
  /// plan is immutable and the workspace is thread_local, so one shared
  /// plan serves any number of threads.
  void transform(cplx* data, FftDirection dir) const;

 private:
  friend class Fft3d;

  /// A batch of lines: line c starts at
  /// data + (c / inner) * outer_stride + (c % inner) * inner_stride
  /// and its points are `stride` apart.
  struct Lines {
    idx count, inner, inner_stride, outer_stride, stride;
  };
  void transform_lines(cplx* data, const Lines& lines, FftDirection dir) const;

  /// One decimation-in-time level: `blocks` combines of `radix`
  /// sub-transforms of length m. For radix <= 5 the twiddle of every
  /// (freq, q >= 1) is tabulated; larger primes index the root table.
  struct Level {
    idx radix, m, blocks;
    FftVector tw_fwd, tw_bwd;
  };

  idx n_;
  std::vector<idx> perm_;      // digit-reversed input order
  std::vector<Level> levels_;  // top level (n_ = radix * m) first
  FftVector roots_fwd_;        // e^{-2 pi i j / n}
  FftVector roots_bwd_;        // e^{+2 pi i j / n}
};

/// Integer box dimensions of a 3-D FFT grid.
struct FftBox {
  idx n1 = 0, n2 = 0, n3 = 0;
  idx size() const { return n1 * n2 * n3; }
  bool operator==(const FftBox&) const = default;
};

/// 3-D FFT over a row-major box: data[(i1*n2 + i2)*n3 + i3].
/// Backward is unnormalized; `backward_normalized` divides by the box size
/// (the convention used by the wavefunction G->r transforms). Thread-safe
/// for concurrent transforms of distinct buffers.
class Fft3d {
 public:
  explicit Fft3d(FftBox box);

  const FftBox& box() const { return box_; }

  void forward(cplx* data) const { transform(data, FftDirection::kForward); }
  void backward(cplx* data) const { transform(data, FftDirection::kBackward); }
  void backward_normalized(cplx* data) const;

  void transform(cplx* data, FftDirection dir) const;

 private:
  FftBox box_;
  std::shared_ptr<Fft1dPlan> plan1_, plan2_, plan3_;
};

/// Process-wide plan cache: FFT plans are immutable after construction and
/// shared freely.
std::shared_ptr<Fft1dPlan> get_fft_plan(idx n);

/// Smallest 2,3,5-smooth integer >= n (FFT-friendly grid sizing, the same
/// convention plane-wave DFT codes use for their charge-density grids).
idx next_fast_size(idx n);

}  // namespace xgw
