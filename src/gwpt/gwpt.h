#pragma once

// GW perturbation theory (Sec. 5.1 of the paper; Li et al., PRL 122,
// 186402 (2019)): electron-phonon coupling at the many-body level.
//
// For each displacement perturbation R_p, Eq. 5 assembles the first-order
// self-energy from perturbed matrix elements dM (built from d psi) while
// holding the screened interaction fixed (the GPP model and band energies
// enter unperturbed — GWPT's linear-response structure). The GW-level
// electron-phonon matrix element is then
//   g^GW_lm(p) = <l| dV |m> + [dSigma(E)]_lm,
// compared against the DFPT-level g^DFPT_lm(p) = <l| dV |m>.
//
// The N_p perturbations are INDEPENDENT — the paper parallelizes them
// trivially across the machine; here the driver exposes them as a loop the
// perf module costs accordingly.

#include "core/sigma.h"
#include "gwpt/dfpt.h"

namespace xgw {

struct GwptOptions {
  idx n_e_points = 2;          ///< energy grid points for dSigma(E)
  double degen_tol = 1e-6;     ///< sum-over-states degeneracy exclusion
};

/// Result for one perturbation p over the external band set.
struct GwptResult {
  Perturbation perturbation;
  ZMatrix g_dfpt;              ///< <l|dV|m> (N_Sigma x N_Sigma)
  ZMatrix g_gw;                ///< g_dfpt + dSigma(E_mid)
  std::vector<ZMatrix> dsigma; ///< dSigma_lm on the energy grid
  std::vector<double> e_grid;
};

class GwptCalculation {
 public:
  /// Shares the GW machinery (screening, GPP model) of `gw`.
  GwptCalculation(GwCalculation& gw, const GwptOptions& opt = {});

  /// Runs one perturbation (atom, axis) for the external band set.
  GwptResult run_perturbation(const Perturbation& p,
                              const std::vector<idx>& bands,
                              FlopCounter* flops = nullptr);

  /// Runs all 3 * n_atoms displacement perturbations (or a subset) —
  /// the paper's N_p loop.
  std::vector<GwptResult> run_all(const std::vector<Perturbation>& ps,
                                  const std::vector<idx>& bands,
                                  FlopCounter* flops = nullptr);

  /// dM_{l n}(G) for fixed n over the external set, given d psi rows.
  /// Reference path (3 FFTs per element via compute_pair_raw);
  /// run_perturbation assembles the same matrices with hoisted real-space
  /// transforms and one FFT per element — this stays as the independently
  /// simple implementation the tests compare against.
  ZMatrix dm_matrix(const std::vector<idx>& ext, idx n,
                    const ZMatrix& dpsi) const;

 private:
  GwCalculation& gw_;
  GwptOptions opt_;
};

}  // namespace xgw
