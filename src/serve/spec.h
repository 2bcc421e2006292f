#pragma once

// Job-spec canonicalization for the serving layer: turns an xgw_run input
// file into STAGE-SCOPED cache keys, one per sub-result of the GW pipeline
//
//   mf   — mean-field band set {psi_n, E_n}
//   mtx  — MTXEL block M_{l n}(G) for one external band l
//   chi  — static chi(q=0) (NV-Block CHI_SUM)
//   eps  — eps^{-1}(0)
//   epsf — eps^{-1}(i omega_k), one per imaginary-axis frequency node
//   sig  — Sigma_ll + QP solve for one band l
//   chit — chi^0(i tau_j), one per minimax imaginary-time node
//   wtau — W^c(i tau) store of the space-time route (all tau nodes)
//   sigst— space-time Sigma_ll + Pade QP solve for one band l
//
// A key is `<stage>-<fnv1a64 hex>` of a canonical text block: fixed schema
// header, then only the fields that stage's result depends on, sorted by
// field name, defaults materialized, floats printed as shortest-round-trip
// %.17g. Runtime knobs (checkpoint, trace, sched_workers, spill/retry
// modes, memory budget) are deliberately EXCLUDED: they never change
// result bytes — the budget enters only through the resolved nv_block,
// which DOES change bits (NV-Block summation order) and is therefore part
// of every chi-and-downstream key.
//
// The canonical text and its hash are pinned by a golden test
// (test_serve CacheKeyGolden): accidental canonicalization changes would
// silently invalidate every store, so they must show up as a test diff.

#include <string>
#include <vector>

#include "cli/driver.h"
#include "cli/input.h"
#include "common/types.h"

namespace xgw::serve {

enum class Stage : int {
  kMf = 0,
  kMtxel,
  kChi,
  kEps,
  kEpsFreq,
  kSigmaBand,
  // Space-time (minimax i tau / i omega) route. Key-able today so the
  // canonical form is frozen by the golden test; the batch executor does
  // not run this route yet (resolve_spec rejects such specs, see below).
  kChiTau,
  kWTau,
  kSigmaStBand,
};

const char* stage_prefix(Stage s);

/// Shortest-round-trip decimal text of a double ("%.17g" would pad; "%g"
/// would lose bits): the shortest precision in [1, 17] that parses back to
/// exactly `v`. Canonical key material only — never for physics.
std::string canon_double(double v);

/// Problem dimensions the budget planner needs, derived WITHOUT
/// diagonalizing the mean field (keys must be cheap to compute).
struct SpecDims {
  idx nv = 0;  ///< valence bands of the material
  idx nc = 0;  ///< conduction bands of the (uncompressed) basis
  idx ng = 0;  ///< chi/eps sphere size
};

/// The serve-normalized view of one job spec: the driver's reading of the
/// job file (every keyed value, defaults applied) plus the three values
/// serve resolves itself.
struct ResolvedSpec {
  JobInput input;
  idx nv_block;               ///< RESOLVED block size (see resolve_spec)
  std::vector<idx> bands;     ///< sigma bands (default {nv-1, nv})
  std::vector<double> freqs;  ///< epsilon: imaginary-axis nodes (n_freq > 0)
};

/// Validates a job file for serving and resolves it. `job` is the
/// driver's reading of `in` (read_job_input). Throws kValidation for jobs
/// the serving layer cannot key (anything but sigma/epsilon, or specs
/// whose identity lives outside the text: input_wfn) and for side-output
/// keys (output_wfn/output_epsmat) that a cache hit could not produce.
/// `sigma_method space_time` is also rejected: the batch executor runs the
/// GPP route, so accepting such a spec would cache GPP numbers under a
/// space-time job's keys (cache poisoning). Run those through xgw_run.
///
/// nv_block resolution is a PURE function of the spec: when the job
/// carries a byte budget, the planner is solved with fixed_bytes = 0 and
/// threads = 1 over `dims`, so identical manifests re-hash identically on
/// any host. (This is serve's own planning point — the single-job driver
/// plans against live tracker state instead.)
ResolvedSpec resolve_spec(const InputFile& in, JobInput job,
                          const SpecDims& dims);

/// resolve_spec(in, read_job_input(in), dims).
ResolvedSpec resolve_spec(const InputFile& in, const SpecDims& dims);

/// Canonical text block a stage key hashes. `band` indexes per-band stages
/// (kMtxel, kSigmaBand); `freq_index` indexes kEpsFreq.
std::string canonical_stage_spec(const ResolvedSpec& s, Stage stage,
                                 idx band = -1, idx freq_index = -1);

/// `<stage>-<fnv1a hex>` — the CasStore key (filesystem-safe).
std::string cache_key(const ResolvedSpec& s, Stage stage, idx band = -1,
                      idx freq_index = -1);

/// One manifest entry: the job's display name (file stem) and parsed spec.
struct JobSpec {
  std::string name;
  std::string path;
  InputFile input;
};

/// Loads one job file (validated against the driver's known keys).
JobSpec load_job(const std::string& path);

/// Loads a manifest (one .inp path per line, '#' comments, paths relative
/// to the manifest file) into parsed job specs.
std::vector<JobSpec> load_manifest(const std::string& path);

}  // namespace xgw::serve
