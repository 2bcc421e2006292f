#pragma once

// Full-frequency (FF) GW self-energy (Sec. 5.2 of the paper).
//
// Instead of the plasmon-pole model, the frequency integral of Eq. 2 is
// evaluated by direct sampling of the screened interaction on a real
// frequency grid. Writing W^c(omega) = [eps^{-1}(omega) - I] v and using its
// spectral representation, the correlation self-energy becomes
//
//   Sigma^c_lm(E) = sum_n sum_k  M*_ln(G) B^k_GG' v(G') M_mn(G')
//                   x [ occ_n / (E - E_n + omega_k - i eta)
//                     + (1 - occ_n) / (E - E_n - omega_k + i eta) ]
//
// where B^k = -(1/pi) Im[eps^{-1}(omega_k)] * d_omega are the spectral
// weights on the grid. The exchange part Sigma^x is evaluated exactly.
//
// Two screening backends, mirroring the paper's Epsilon module:
//  * Full plane-wave: eps^{-1}(omega_k) from dense inversion per frequency.
//  * Static subspace (Eq. 6 + Woodbury): chi(omega_k) only in the N_Eig
//    subspace; the 25-100x FF speedup of Sec. 5.2 comes from here, since
//    the full N_G basis is used only at omega = 0.

#include <string>
#include <vector>

#include "core/sigma.h"
#include "mem/spill.h"

namespace xgw {

struct FfOptions {
  idx n_freq = 16;          ///< number of real-frequency samples (N_omega)
  double omega_max = -1.0;  ///< grid upper edge (Ha); <=0 -> auto from spectrum
  double eta = 0.02;        ///< broadening for eps(omega) and denominators
  double subspace_fraction = 0.0;  ///< >0: use static subspace of this fraction
  idx n_eig = 0;                   ///< >0: explicit N_Eig (overrides fraction)
  ChiOptions chi;           ///< CHI_SUM options for the frequency sweep
  /// Memory budget for the FF screening build (MB); 0 = unlimited. When set,
  /// mem::plan solves for the chi nv_block / frequency batch, and — when the
  /// per-frequency B^k v set cannot stay resident — the screening pages
  /// through an out-of-core spill pool under `spill_dir`. Spilled runs are
  /// BITWISE identical to in-core (binio round trips are byte-exact).
  double memory_budget_mb = 0.0;
  std::string spill_dir = "xgw_spill";
};

/// Per-band full-frequency result.
struct FfResult {
  idx band = 0;
  double e_mf = 0.0;
  cplx sigma_x;       ///< exchange
  cplx sigma_c;       ///< correlation at E = e_mf
  double e_qp = 0.0;  ///< linearized QP energy
  double z = 1.0;
};

/// The frequency-resolved screened-interaction spectral data reused across
/// bands: per grid frequency, the matrix B^k_GG' v(G').
struct FfScreening {
  std::vector<double> omegas;
  std::vector<double> weights;     ///< trapezoidal d_omega
  /// B^k * v (N_G x N_G per frequency). In-core by default; pages through
  /// an LRU spill pool when build_ff_screening planned out-of-core.
  mem::MatrixStore bv;
  idx n_eig_used = 0;              ///< 0 = full plane-wave path
};

/// Builds the frequency grid and spectral matrices. This is the FF Epsilon
/// stage (CHI-0 / CHI-Freq / Transf / Diag kernels of Fig. 3).
FfScreening build_ff_screening(GwCalculation& gw, const FfOptions& opt);

/// Diagonal FF Sigma + linearized QP for the given bands.
std::vector<FfResult> sigma_ff_diag(GwCalculation& gw, const FfScreening& scr,
                                    const std::vector<idx>& bands,
                                    double eta = 0.02);

/// Full-matrix FF Sigma on an (l, m)-independent energy grid — the FF
/// analogue of the Sec. 5.6 ZGEMM recast ("full-frequency self-energy
/// calculations ... the key steps can be cast as dense matrix
/// multiplication"): per (n, omega_k) the N_Sigma x N_Sigma block
///   Q^{nk}_lm = sum_GG' M_ln(G)^* [B^k v]_GG' M_mn(G')
/// is built by two ZGEMMs and reused for every grid energy through the
/// scalar pole factor. Returns Sigma^c matrices per grid energy (exchange
/// excluded — it is energy independent; see sigma_ff_diag).
std::vector<ZMatrix> sigma_ff_offdiag(GwCalculation& gw,
                                      const FfScreening& scr,
                                      const std::vector<idx>& bands,
                                      std::span<const double> e_grid,
                                      double eta = 0.02,
                                      FlopCounter* flops = nullptr);

}  // namespace xgw
