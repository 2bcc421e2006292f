#pragma once

// Budget-driven capacity planner — the paper's per-GPU fitting argument
// (Sec. 5.2) as code.
//
// Given a byte budget (a `memory_budget_mb` driver key, or the HBM size of
// a perf::machines platform) and the problem dimensions, the planner solves
// for the two block sizes that bound the CHI working set:
//
//  * nv_block     — NV-Block valence block of CHI_SUM. The pair workspace
//                   is nv_block * N_c * ncols complex; larger blocks mean
//                   larger rank-k GEMMs (higher arithmetic intensity), so
//                   the planner picks the LARGEST block that fits.
//  * freq_batch   — frequencies per CHI-Freq pass. Each batched frequency
//                   holds an ncols x ncols accumulator; each extra PASS
//                   re-pays the MTXEL/Transf stage, so the planner
//                   maximizes the batch before growing nv_block (MTXEL
//                   amortization dominates the intensity gain — the reason
//                   19 extra frequencies are nearly free in Sec. 7.2).
//
// Every size the model charges mirrors one concrete allocation in
// core/chi.cpp, core/epsilon.cpp and core/sigma_ff.cpp; test_mem holds the
// model to the measured MemTracker high-water mark within 10%.
//
// When even the minimal plan (nv_block = 1, freq_batch = 1) exceeds the
// budget, the planner either flags spill (out-of-core paging via
// mem/spill) or, when spill is disallowed, throws an Error naming the
// minimum feasible budget — never a silent overshoot.

#include <cstddef>
#include <string>

#include "common/types.h"

namespace xgw::mem {

struct PlannerInput {
  std::size_t budget_bytes = 0;  ///< 0 = unlimited (no-blocking fast path)
  idx nv = 0;                    ///< valence bands
  idx nc = 0;                    ///< conduction bands
  idx ng = 0;                    ///< plane waves of the chi/eps basis
  idx ncols = 0;                 ///< chi accumulation basis (N_G, or N_Eig)
  idx nfreq = 1;                 ///< frequency grid length
  int threads = 1;               ///< OpenMP threads (per-thread workspaces)
  std::size_t fixed_bytes = 0;   ///< resident baseline (bands, mtxel cache)
  bool allow_spill = true;       ///< false: throw instead of planning spill
};

struct MemPlan {
  idx nv_block = 1;
  idx freq_batch = 1;
  bool fits_in_core = false;  ///< whole problem fits: no blocking needed
  bool needs_spill = false;  ///< ε^{-1}(ω) set must page through mem/spill
  std::size_t planned_peak_bytes = 0;  ///< model prediction incl. fixed_bytes
  /// Bytes the spill pool may keep resident (only when needs_spill).
  std::size_t spill_resident_bytes = 0;

  std::string describe() const;
};

/// Working-set model of one CHI_SUM / CHI-Freq pass (chi_multi): the exact
/// allocations of core/chi.cpp for the given blocking.
std::size_t chi_workspace_bytes(const PlannerInput& in, idx nv_block,
                                idx freq_batch);

/// Solves the blocking under `in.budget_bytes`. Throws xgw::Error with an
/// actionable message when the budget cannot hold even the minimal plan and
/// `allow_spill` is false.
MemPlan plan(const PlannerInput& in);

inline std::size_t mb(double m) {
  return static_cast<std::size_t>(m * 1024.0 * 1024.0);
}

}  // namespace xgw::mem
