#pragma once

// Hybertsen-Louie generalized plasmon-pole (GPP) model and the Sigma GPP
// kernels (Secs. 5.5 and 5.6 of the paper; Fig. 2).
//
// Model construction (Hybertsen & Louie, PRB 34, 5390 (1986)):
//   Omega^2_GG'  = wp^2 * [(G.G') / |G|^2] * rho(G-G') / rho(0)
//   wtilde^2_GG' = Omega^2_GG' / (delta_GG' - epsinv_GG'(0))
// with wp^2 = 4 pi N_el / Omega_cell (plasma frequency), rho from the
// valence charge density. Head/wing elements use the q->0 limits
// (Omega^2_00 = wp^2, wings = 0).
//
// Self-energy at energy E for external bands (l, m):
//   Sigma_SX = - sum_n^occ sum_GG' M*_ln(G) M_mn(G')
//                [delta_GG' + Omega^2 / ((E-E_n)^2 - wtilde^2)] v(G')
//   Sigma_CH = 1/2 sum_n^all sum_GG' M*_ln(G) M_mn(G')
//                Omega^2 / (wtilde (E - E_n - wtilde)) v(G')
// (SX includes the bare exchange through its delta term.)
//
// Kernels:
//  * GppDiagKernel    — diagonal elements Sigma_ll({E_i}), inner matrix
//    generated on the fly (minimal memory). Variants: kReference (plain
//    loops) and kOptimized (one pass over each (band, G'-chunk) block of
//    the model serves every energy, reciprocal-multiply instead of
//    division, OpenMP two-stage reduction, rounding pinned with explicit
//    std::fma in core/gpp_diag.cpp) — the CPU transliteration of the
//    paper's HIP/SYCL optimizations.
//  * GppOffdiagKernel — full Sigma_lm({E_i}) matrix, recast as ZGEMM: the
//    (n, E)-dependent P matrix is precomputed (prep step) and contracted
//    with the M blocks via two ZGEMMs of shapes N_Sigma x N_G x N_G and
//    N_Sigma x N_G x N_Sigma (Eq. 8 counts only these ZGEMM FLOPs).

#include <cstdint>
#include <span>
#include <vector>

#include "common/flops.h"
#include "core/coulomb.h"
#include "la/gemm.h"
#include "mf/wavefunctions.h"

namespace xgw {

class Mtxel;

/// GPP mode parameters on the epsilon sphere.
struct GppModel {
  ZMatrix omega2;   ///< Omega^2_GG' (Ha^2)
  ZMatrix wtilde2;  ///< wtilde^2_GG' (Ha^2, complex in general)
  ZMatrix wtilde;   ///< principal sqrt of wtilde2 (cached)

  idx n_g() const { return omega2.rows(); }
};

/// Valence charge density rho(G) on the MTXEL product box, plus rho(0).
/// rho(G) = 2 sum_v M^{-G}_vv; rho(0) = N_electrons.
std::vector<cplx> charge_density_box(const Mtxel& mtxel,
                                     const Wavefunctions& wf);

/// Builds the HL-GPP model from the static inverse dielectric matrix.
GppModel build_gpp_model(const ZMatrix& epsinv0, const CoulombPotential& v,
                         const GSphere& eps_sphere, const Lattice& lattice,
                         const Mtxel& mtxel, const Wavefunctions& wf);

/// Self-energy decomposition at one energy.
struct SigmaParts {
  cplx sx;  ///< screened exchange (includes bare exchange via delta term)
  cplx ch;  ///< Coulomb hole
  cplx total() const { return sx + ch; }
};

enum class GppKernelVariant {
  kReference,   ///< canonical triple loop; correctness baseline
  kOptimized,   ///< energy-batched + reciprocal-multiply + OpenMP two-stage
                ///< reduction; bits independent of compiler and flags
};

namespace gpp_detail {

// Denominator guard: pole terms whose denominator magnitude falls below
// this are dropped (the BerkeleyGW convention for on-resonance modes).
inline constexpr double kDenTol = 1e-8;

// Measured-FLOP bookkeeping constants (real-FLOP equivalents per inner
// (G, G') iteration): complex mul = 6, complex add = 2, complex div ~ 11,
// real-complex mul = 2. These make the "Meas." column of Table 3 an actual
// instrumented count that differs from the Eq. 7 closed form through
// guard-skipped modes and head/wing handling.
inline constexpr std::uint64_t kFlopsSxInner = 6 + 2 + 11 + 2;  // mul+add+div+scale
inline constexpr std::uint64_t kFlopsChInner = 6 + 2 + 11 + 6;  // extra wtilde mul
inline constexpr std::uint64_t kFlopsOuter = 6 + 6 + 4;         // M* x (...) x M

}  // namespace gpp_detail

/// Diagonal GPP kernel: Sigma_ll(E_i) for one external band l.
class GppDiagKernel {
 public:
  GppDiagKernel(const GppModel& model, const CoulombPotential& v);

  /// m_ln: N_b x N_G matrix of M_{l n}(G) for the fixed external band l.
  /// energies/occupied describe the internal bands n. Output: one
  /// SigmaParts per requested E. `gprime_begin/end` restrict the G' sum to
  /// a rank's slice (Nbar_G' of Sec. 5.5); the default covers all G'.
  /// Non-finite M_ln or Sigma(E) throws kValidation (common/validate.h).
  void compute(const ZMatrix& m_ln, std::span<const double> band_energy,
               idx n_valence, std::span<const double> e_values,
               std::vector<SigmaParts>& out,
               GppKernelVariant variant = GppKernelVariant::kOptimized,
               FlopCounter* flops = nullptr, idx gprime_begin = 0,
               idx gprime_end = -1) const;

 private:
  // The kOptimized body (core/gpp_diag.cpp): adds Sigma(E) into the
  // zeroed `out` and returns the FLOP count.
  std::uint64_t compute_optimized(const ZMatrix& m_ln,
                                  std::span<const double> band_energy,
                                  idx n_valence,
                                  std::span<const double> e_values,
                                  std::vector<SigmaParts>& out,
                                  idx gprime_begin, idx gprime_end) const;

  const GppModel& model_;
  const CoulombPotential& v_;
};

/// Off-diagonal (full-matrix) GPP kernel: Sigma_lm(E_i) for all (l, m) in
/// the external band set, on a PREDEFINED energy grid independent of (l, m)
/// — the reformulation that enables the ZGEMM recast (Sec. 5.6).
class GppOffdiagKernel {
 public:
  GppOffdiagKernel(const GppModel& model, const CoulombPotential& v);

  /// m_all[n] is the N_Sigma x N_G matrix of M_{l n}(G), l over the external
  /// set. Returns sigma[e] as an N_Sigma x N_Sigma matrix per energy grid
  /// point. Only ZGEMM FLOPs are added to `flops` (Eq. 8 convention).
  std::vector<ZMatrix> compute(const std::vector<ZMatrix>& m_all,
                               std::span<const double> band_energy,
                               idx n_valence, std::span<const double> e_grid,
                               FlopCounter* flops = nullptr) const;

  /// GWPT variant (Eq. 5): dSigma_lm(E_i) from the perturbed matrix
  /// elements, contracting dM x M + M x dM against the same P matrices:
  ///   dSigma += conj(dM_n) P M_n^T + conj(M_n) P dM_n^T.
  std::vector<ZMatrix> compute_perturbed(
      const std::vector<ZMatrix>& m_all, const std::vector<ZMatrix>& dm_all,
      std::span<const double> band_energy, idx n_valence,
      std::span<const double> e_grid, FlopCounter* flops = nullptr) const;

  /// Prep step exposed for benchmarking: P^{(n,E)}_GG' (including v(G')).
  void build_p_matrix(double e_minus_en, bool occupied, ZMatrix& p) const;

 private:
  const GppModel& model_;
  const CoulombPotential& v_;
};

}  // namespace xgw
