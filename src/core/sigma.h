#pragma once

// Sigma module driver: orchestrates the full GW pipeline
//   mean field -> MTXEL -> chi(0) -> eps^{-1}(0) -> GPP model -> Sigma -> QP
// and solves the quasiparticle equation (Eq. 1 / Fig. 1 of the paper).
//
// Quasiparticle convention of this library: the empirical-pseudopotential
// mean field plays the role of a bare (Hartree-like) reference, so
//   E^QP = E_n^MF + Z_n Re[Sigma_nn(E_n^MF)],
//   Z_n = 1 / (1 - dSigma/dE),
// with dSigma/dE from the N_E-point sampling of Sigma_ll(E) around E_n^MF
// (no V_xc subtraction — the EPM potential contains no xc term). Absolute
// QP energies therefore carry the full self-energy shift; gap CORRECTIONS
// (differences between states) are the physically meaningful observable,
// exactly as in the paper's defect-level workloads.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/chi.h"
#include "core/coulomb.h"
#include "core/epsilon.h"
#include "core/gpp.h"
#include "core/mtxel.h"
#include "mf/epm.h"
#include "mf/hamiltonian.h"
#include "mf/solver.h"

namespace xgw {

struct GwParameters {
  double psi_cutoff = -1.0;   ///< wavefunction cutoff (Ha); <=0 -> model default
  double eps_cutoff = -1.0;   ///< chi/eps cutoff (Ha); <=0 -> psi_cutoff / 4
  idx n_bands = -1;           ///< N_b; <=0 -> all bands of the basis
  CoulombScheme coulomb = CoulombScheme::kSphericalAverage;
  double eta = 1e-3;          ///< broadening (Ha)
  idx nv_block = 8;           ///< NV-Block size for CHI_SUM
  idx mtxel_cache = 64;       ///< real-space band cache entries
  /// q->0 head of chi from velocity matrix elements (Gamma-only supercell
  /// treatment); disable to reproduce the unscreened-head baseline.
  bool head_correction = true;
};

/// Per-band quasiparticle record.
struct QpResult {
  idx band = 0;
  double e_mf = 0.0;          ///< mean-field eigenvalue (Ha)
  SigmaParts sigma;           ///< Sigma_ll(E_mf)
  double dsigma_de = 0.0;     ///< Re d Sigma / dE at E_mf
  double z = 1.0;             ///< renormalization factor
  double e_qp = 0.0;          ///< quasiparticle energy (Ha)
};

/// QP-row codec: a QpResult packed into a 1x5 complex row so it rides the
/// binio matrix format (doubles round-trip bitwise). The serve store's QP
/// entries and the Sigma band loop's restart files both use it.
ZMatrix encode_qp(const QpResult& r);
QpResult decode_qp(const ZMatrix& m);

/// Holds the assembled GW machinery for one material/system. Stages are
/// computed lazily and cached; `timers()` records the per-kernel breakdown
/// (MTXEL / CHI_SUM / Diag / GPP ...) like BerkeleyGW's report.
class GwCalculation {
 public:
  GwCalculation(const EpmModel& model, const GwParameters& params = {});

  const GwParameters& params() const { return params_; }
  const PwHamiltonian& hamiltonian() const { return ham_; }
  const GSphere& psi_sphere() const { return ham_.sphere(); }
  const GSphere& eps_sphere() const { return eps_sphere_; }
  const CoulombPotential& coulomb() const { return coulomb_; }
  TimerRegistry& timers() { return timers_; }

  /// Table-2 style size parameters of this calculation.
  idx n_g_psi() const { return ham_.n_pw(); }
  idx n_g() const { return eps_sphere_.size(); }
  idx n_bands() const { return wavefunctions().n_bands(); }
  idx n_valence() const { return wavefunctions().n_valence; }

  /// Stage 1: bands {psi_n, E_n} (dense Parabands path), cached.
  const Wavefunctions& wavefunctions() const;

  /// Replace the band set (pseudobands compression plugs in here).
  void set_wavefunctions(Wavefunctions wf);

  /// Inject a precomputed static chi / eps^{-1}(0) instead of building it
  /// from the band set (the serve layer's content-addressed sub-result
  /// cache plugs in here; binio round-trips are byte-exact, so an injected
  /// cached matrix reproduces the lazily computed one bitwise). Stages
  /// downstream of the injected one are invalidated.
  void set_chi0(ZMatrix chi);
  void set_epsinv0(ZMatrix epsinv);

  bool has_wavefunctions() const { return wf_.has_value(); }
  bool has_chi0() const { return chi0_.has_value(); }
  bool has_epsinv0() const { return epsinv0_.has_value(); }

  /// External cache for sigma_diag's per-band M_{l n}(G) block: `load` may
  /// return a previously computed block for band l (or nullopt to compute),
  /// `store` observes each freshly computed block. Both are called
  /// concurrently from band tasks, so implementations must lock. Pass empty
  /// functions to detach. The block is a pure function of the band set, so
  /// a cached block replayed through the GPP kernel is bitwise identical to
  /// a recomputed one.
  void set_mtxel_cache(
      std::function<std::optional<ZMatrix>(idx band)> load,
      std::function<void(idx band, const ZMatrix& m)> store) {
    mtxel_load_ = std::move(load);
    mtxel_store_ = std::move(store);
  }

  /// Override the NV-Block size after construction (the mem::Planner plugs
  /// in here once a memory budget is known). The block size sets CHI_SUM's
  /// working-set footprint and its summation order, so chi moves at
  /// roundoff level, not bitwise (ChiFixture.NvBlockInvariance holds it to
  /// 1e-12; serve keys nv_block for this reason). Must be called before
  /// chi0() runs.
  void set_nv_block(idx nv_block) {
    XGW_REQUIRE(nv_block >= 1, "set_nv_block: need nv_block >= 1");
    params_.nv_block = nv_block;
  }

  const Mtxel& mtxel() const;

  /// Stage 2: static chi (NV-Block CHI_SUM), cached.
  const ZMatrix& chi0() const;

  /// Stage 3: eps^{-1}(0) dense, cached.
  const ZMatrix& epsinv0() const;

  /// Stage 4: HL-GPP model, cached.
  const GppModel& gpp() const;

  /// Diagonal Sigma + QP for the given bands (GPP diag kernel, Sec. 5.5).
  /// `n_e_points` energies spaced `e_step` around each E_n^MF sample the
  /// energy dependence (the N_E of Eq. 7). Bands run as scheduler tasks
  /// (serially when `flops` is given).
  ///
  /// A non-empty `restart_dir` keeps one io/binio restart file per finished
  /// band (an encode_qp row; see binio.h). Bands are mutually independent,
  /// so a resumed call loads the bands whose file is present and intact,
  /// computes the rest, and returns results BITWISE identical to the
  /// uninterrupted call. The band files are removed on success.
  std::vector<QpResult> sigma_diag(
      const std::vector<idx>& bands, idx n_e_points = 3, double e_step = 0.02,
      GppKernelVariant variant = GppKernelVariant::kOptimized,
      FlopCounter* flops = nullptr, const std::string& restart_dir = {});

  /// Full Sigma_lm(E_i) matrices on a uniform grid spanning the external
  /// bands' energy window (GPP off-diag kernel, Sec. 5.6). Returns one
  /// N_Sigma x N_Sigma matrix per grid energy; `e_grid_out` receives the
  /// grid. Eq. 8 ZGEMM-only FLOPs are added to `flops`.
  std::vector<ZMatrix> sigma_offdiag(const std::vector<idx>& bands,
                                     idx n_e_points,
                                     std::vector<double>& e_grid_out,
                                     FlopCounter* flops = nullptr);

  /// Full solution of Dyson's equation from the off-diagonal Sigma: builds
  /// H^QP(E) = diag(E_MF) + Sigma(E) on the grid, diagonalizes at each grid
  /// energy, and linearly interpolates each eigenvalue to self-consistency.
  /// Returns QP energies for the external band set.
  std::vector<double> dyson_full_solve(const std::vector<idx>& bands,
                                       idx n_e_points = 8);

  /// M_{l n}(G) for fixed l against all internal bands (diag layout).
  ZMatrix m_matrix_left(idx l) const;
  /// M_{l n}(G) for fixed n against the external set (off-diag layout).
  ZMatrix m_matrix_right(const std::vector<idx>& ext, idx n) const;

 private:
  GwParameters params_;
  EpmModel model_;
  PwHamiltonian ham_;
  GSphere eps_sphere_;
  CoulombPotential coulomb_;
  mutable TimerRegistry timers_;

  mutable std::optional<Wavefunctions> wf_;
  mutable std::unique_ptr<Mtxel> mtxel_;
  mutable std::optional<ZMatrix> chi0_;
  mutable std::optional<ZMatrix> epsinv0_;
  mutable std::optional<GppModel> gpp_;

  std::function<std::optional<ZMatrix>(idx)> mtxel_load_;
  std::function<void(idx, const ZMatrix&)> mtxel_store_;
};

/// Linearized QP solve from sampled Sigma values: fits Re Sigma(E) linearly
/// over the samples and returns (e_qp, z, dsigma_de).
struct QpSolve {
  double e_qp;
  double z;
  double dsigma_de;
};
QpSolve solve_qp_linear(double e_mf, std::span<const double> e_samples,
                        std::span<const cplx> sigma_samples);

}  // namespace xgw
