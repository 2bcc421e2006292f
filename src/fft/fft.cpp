#include "fft/fft.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <string>

#include "common/error.h"
#include "obs/span.h"

namespace xgw {

namespace {

std::vector<idx> factorize(idx n) {
  std::vector<idx> factors;
  for (idx f : {idx{2}, idx{3}, idx{5}}) {
    while (n % f == 0) {
      factors.push_back(f);
      n /= f;
    }
  }
  for (idx f = 7; f * f <= n; f += 2) {
    while (n % f == 0) {
      factors.push_back(f);
      n /= f;
    }
  }
  if (n > 1) factors.push_back(n);
  return factors;
}

idx checked_length(idx n) {
  XGW_REQUIRE(n >= 1, "FFT length must be >= 1");
  return n;
}

const FftBox& checked_box(const FftBox& box) {
  XGW_REQUIRE(box.n1 >= 1 && box.n2 >= 1 && box.n3 >= 1,
              "FFT box dimensions must be >= 1");
  return box;
}

// Lines per batch, the vector lanes of every pass. Planes hold point p of
// lane b at [p * kLanes + b]; a batch with fewer real lines transforms
// zeros in the spare lanes and never scatters them.
constexpr idx kLanes = 16;

// acc += x * w, rounded exactly as the reference transform rounds it:
//   re = fma(xr, wr, -(xi wi))
//   im = fma(xi, wr, xr wi)  on the top level,  fma(xr, wi, xi wr)  below.
// The forms differ between levels because that is how the reference was
// compiled; the GPP mode filter branches on the sign of round-off in
// rho(G - G'), so they are kept exactly.
template <bool kTop>
inline void cmul_acc(double& ar, double& ai, double xr, double xi, double wr,
                     double wi) {
  ar += std::fma(xr, wr, -(xi * wi));
  if constexpr (kTop)
    ai += std::fma(xi, wr, xr * wi);
  else
    ai += std::fma(xr, wi, xi * wr);
}

// One level: `blocks` combines of r sub-transforms of length m, where
// sub-transform q starts `row` = m * kLanes doubles after q - 1. Output
// freq = q2 * m + k is acc = 0 + x_0 (the q = 0 twiddle is exactly 1, and
// 0 + x_0 * 1 rounds to 0 + x_0), then acc += x_q w_q for q = 1 .. r-1.
//
// Radix 2/3/5 keep acc in registers and read w_q from the level table
// [freq][q - 1].
template <int R, bool kTop>
void radix_pass(const double* __restrict sr, const double* __restrict si,
                double* __restrict dr, double* __restrict di, idx blocks,
                idx m, const cplx* tw) {
  const idx row = m * kLanes;
  for (idx blk = 0; blk < blocks; ++blk) {
    for (idx k = 0; k < m; ++k) {
      const idx off = blk * R * row + k * kLanes;
      for (idx q2 = 0; q2 < R; ++q2) {
        const cplx* w = tw + (q2 * m + k) * (R - 1);
        double wr[R], wi[R];
        for (int q = 1; q < R; ++q) {
          wr[q] = w[q - 1].real();
          wi[q] = w[q - 1].imag();
        }
        for (idx b = 0; b < kLanes; ++b) {
          double ar = 0.0 + sr[off + b], ai = 0.0 + si[off + b];
          for (int q = 1; q < R; ++q)
            cmul_acc<kTop>(ar, ai, sr[off + q * row + b],
                           si[off + q * row + b], wr[q], wi[q]);
          dr[off + q2 * row + b] = ar;
          di[off + q2 * row + b] = ai;
        }
      }
    }
  }
}

// Any other radix accumulates in the output planes, with w_q read from the
// root table at ((q * freq) mod len) * blocks and the index advanced by one
// addition per q (no table: a prime level would need r * len entries).
template <bool kTop>
void generic_pass(const double* __restrict sr, const double* __restrict si,
                  double* __restrict dr, double* __restrict di, idx blocks,
                  idx r, idx m, const cplx* roots) {
  const idx row = m * kLanes, len = r * m;
  for (idx blk = 0; blk < blocks; ++blk) {
    for (idx k = 0; k < m; ++k) {
      const idx off = blk * r * row + k * kLanes;
      for (idx q2 = 0; q2 < r; ++q2) {
        const idx freq = q2 * m + k;
        double* __restrict ar = dr + off + q2 * row;
        double* __restrict ai = di + off + q2 * row;
        for (idx b = 0; b < kLanes; ++b) {
          ar[b] = 0.0 + sr[off + b];
          ai[b] = 0.0 + si[off + b];
        }
        idx t = 0;
        for (idx q = 1; q < r; ++q) {
          t += freq;
          if (t >= len) t -= len;
          const cplx w = roots[t * blocks];
          const double* xr = sr + off + q * row;
          const double* xi = si + off + q * row;
          for (idx b = 0; b < kLanes; ++b)
            cmul_acc<kTop>(ar[b], ai[b], xr[b], xi[b], w.real(), w.imag());
        }
      }
    }
  }
}

template <bool kTop>
void level_pass(const double* sr, const double* si, double* dr, double* di,
                idx blocks, idx r, idx m, const cplx* tw, const cplx* roots) {
  switch (r) {
    case 2:
      return radix_pass<2, kTop>(sr, si, dr, di, blocks, m, tw);
    case 3:
      return radix_pass<3, kTop>(sr, si, dr, di, blocks, m, tw);
    case 5:
      return radix_pass<5, kTop>(sr, si, dr, di, blocks, m, tw);
    default:
      return generic_pass<kTop>(sr, si, dr, di, blocks, r, m, roots);
  }
}

}  // namespace

Fft1dPlan::Fft1dPlan(idx n) : n_(checked_length(n)) {
  roots_fwd_.resize(static_cast<std::size_t>(n));
  roots_bwd_.resize(static_cast<std::size_t>(n));
  for (idx j = 0; j < n; ++j) {
    const double ang = -kTwoPi * static_cast<double>(j) / static_cast<double>(n);
    roots_fwd_[static_cast<std::size_t>(j)] = {std::cos(ang), std::sin(ang)};
    roots_bwd_[static_cast<std::size_t>(j)] =
        std::conj(roots_fwd_[static_cast<std::size_t>(j)]);
  }

  // Smallest prime first: level l splits a length-`len` block into `radix`
  // sub-transforms of the points x[q + radix * j].
  const std::vector<idx> factors = factorize(n);
  idx len = n;
  for (idx radix : factors) {
    Level lv{radix, len / radix, n / len, {}, {}};
    if (radix <= 5) {
      for (idx freq = 0; freq < len; ++freq)
        for (idx q = 1; q < radix; ++q) {
          const auto t = static_cast<std::size_t>(q * freq % len * lv.blocks);
          lv.tw_fwd.push_back(roots_fwd_[t]);
          lv.tw_bwd.push_back(roots_bwd_[t]);
        }
    }
    levels_.push_back(std::move(lv));
    len /= radix;
  }

  // Output slot p of the recursion holds input q0 + r0 (q1 + r1 (q2 + ...))
  // where p = q0 m0 + q1 m1 + ... (mixed-radix digit reversal).
  perm_.resize(static_cast<std::size_t>(n));
  for (idx p = 0; p < n; ++p) {
    idx rem = p, in = 0, scale = 1;
    for (const Level& lv : levels_) {
      in += rem / lv.m * scale;
      rem %= lv.m;
      scale *= lv.radix;
    }
    perm_[static_cast<std::size_t>(p)] = in;
  }
}

void Fft1dPlan::transform(cplx* data, FftDirection dir) const {
  transform_lines(data, Lines{1, 1, 0, 0, 1}, dir);
}

void Fft1dPlan::transform_lines(cplx* data, const Lines& lines,
                                FftDirection dir) const {
  if (n_ == 1) return;
  const bool fwd = dir == FftDirection::kForward;
  // Four planes (re/im, ping/pong) of n_ * kLanes doubles. Grown on demand
  // and thread_local, so steady-state transforms allocate nothing (test_mem
  // asserts this across whole chi iterations).
  thread_local FftVector work;
  if (static_cast<idx>(work.size()) < 2 * n_ * kLanes)
    work.resize(static_cast<std::size_t>(2 * n_ * kLanes));
  const idx plane = n_ * kLanes;

  idx off[kLanes] = {};
  for (idx c0 = 0; c0 < lines.count; c0 += kLanes) {
    const idx lanes = std::min(kLanes, lines.count - c0);
    for (idx b = 0; b < lanes; ++b) {
      const idx c = c0 + b;
      off[b] = c / lines.inner * lines.outer_stride +
               c % lines.inner * lines.inner_stride;
    }
    double* sr = reinterpret_cast<double*>(work.data());
    double* si = sr + plane;
    double* dr = si + plane;
    double* di = dr + plane;

    for (idx p = 0; p < n_; ++p) {
      const cplx* src =
          data + perm_[static_cast<std::size_t>(p)] * lines.stride;
      for (idx b = 0; b < kLanes; ++b) {
        sr[p * kLanes + b] = b < lanes ? src[off[b]].real() : 0.0;
        si[p * kLanes + b] = b < lanes ? src[off[b]].imag() : 0.0;
      }
    }
    for (std::size_t l = levels_.size(); l-- > 0;) {
      const Level& lv = levels_[l];
      const cplx* tw = fwd ? lv.tw_fwd.data() : lv.tw_bwd.data();
      const cplx* roots = fwd ? roots_fwd_.data() : roots_bwd_.data();
      if (l == 0)
        level_pass<true>(sr, si, dr, di, lv.blocks, lv.radix, lv.m, tw,
                         roots);
      else
        level_pass<false>(sr, si, dr, di, lv.blocks, lv.radix, lv.m, tw,
                          roots);
      std::swap(sr, dr);
      std::swap(si, di);
    }
    for (idx j = 0; j < n_; ++j) {
      cplx* dst = data + j * lines.stride;
      for (idx b = 0; b < lanes; ++b)
        dst[off[b]] = cplx{sr[j * kLanes + b], si[j * kLanes + b]};
    }
  }
}

Fft3d::Fft3d(FftBox box)
    : box_(checked_box(box)),
      plan1_(get_fft_plan(box.n1)),
      plan2_(get_fft_plan(box.n2)),
      plan3_(get_fft_plan(box.n3)) {}

void Fft3d::transform(cplx* data, FftDirection dir) const {
  obs::Span span("fft3d", "fft", obs::detail_level::kFine);
  span.add_items(1);
  if (span.active())
    span.arg("box", std::to_string(box_.n1) + "x" + std::to_string(box_.n2) +
                        "x" + std::to_string(box_.n3));
  const idx n1 = box_.n1, n2 = box_.n2, n3 = box_.n3;
  // Axis 3: the contiguous line of each (i1, i2); the batch gather
  // transposes a block of lines into lanes.
  plan3_->transform_lines(data, {n1 * n2, n1 * n2, n3, 0, 1}, dir);
  // Axis 2: the line of each (i1, i3), points n3 apart.
  plan2_->transform_lines(data, {n1 * n3, n3, 1, n2 * n3, n3}, dir);
  // Axis 1: the line of each (i2, i3), points n2 * n3 apart.
  plan1_->transform_lines(data, {n2 * n3, n2 * n3, 1, 0, n2 * n3}, dir);
}

void Fft3d::backward_normalized(cplx* data) const {
  transform(data, FftDirection::kBackward);
  const double inv = 1.0 / static_cast<double>(box_.size());
  for (idx i = 0; i < box_.size(); ++i) data[i] *= inv;
}

std::shared_ptr<Fft1dPlan> get_fft_plan(idx n) {
  static std::mutex mutex;
  static std::map<idx, std::shared_ptr<Fft1dPlan>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[n];
  if (!slot) slot = std::make_shared<Fft1dPlan>(n);
  return slot;
}

idx next_fast_size(idx n) {
  XGW_REQUIRE(n >= 1, "next_fast_size: n must be >= 1");
  for (idx candidate = n;; ++candidate) {
    idx rem = candidate;
    for (idx f : {idx{2}, idx{3}, idx{5}})
      while (rem % f == 0) rem /= f;
    if (rem == 1) return candidate;
  }
}

}  // namespace xgw
