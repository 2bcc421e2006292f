#pragma once

// Job driver for xgw_run: builds the system described by an InputFile and
// executes the requested stage of the GW workflow (Fig. 1 of the paper),
// mirroring BerkeleyGW's executable-per-stage layout:
//
//   job bands        — mean-field band structure along L-Gamma-X
//   job epsilon      — chi(0), eps^{-1}(0); optional epsmat/WFN output files
//   job sigma        — GPP QP energies for sigma_bands
//   job sigma_offdiag— full Sigma matrix + Dyson solve
//   job ff           — full-frequency QP energies
//   job cohsex       — static COHSEX
//   job evgw         — eigenvalue-self-consistent GW
//   job rpa          — RPA correlation energy
//   job bse          — exciton spectrum + absorption
//   job gwpt         — electron-phonon coupling for all displacements
//
// Returns 0 on success; all output goes to the provided stream.

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cli/input.h"
#include "core/sigma.h"
#include "pseudobands/pseudobands.h"

namespace xgw {

/// What the serve layer (serve/spec.h) does with an input key.
enum class KeyRole {
  kKeyed,       ///< physics: enters the serve cache keys
  kRuntime,     ///< worker counts, traces, budgets, I/O policy: serve strips it
  kDriverOnly,  ///< side files or non-servable jobs: serve rejects it
};

struct InputKey {
  const char* name;
  KeyRole role;
};

/// The one input-key table: every key xgw_run accepts, with its serve role.
std::span<const InputKey> input_keys();

/// The names of input_keys(), in table order (used to reject typos).
const std::vector<std::string>& known_input_keys();

int run_job(const InputFile& in, std::ostream& os);

// --- the job reader -------------------------------------------------------
//
// One reader for every key the serve layer keys (serve/spec.h): the
// per-job dispatchers and serve::resolve_spec both take their values from
// read_job_input, so a cache key always names the physics a run computes.
// Each default lives in one place: the library option struct the value
// lands in (GwParameters, StOptions, PseudobandsOptions, FfOptions) or
// read_job_input itself, which also owns the job-dependent ones.

struct JobInput {
  std::string job;
  // Material identity.
  std::string material;        ///< as written ("si" and "silicon" key apart)
  idx supercell;
  std::optional<idx> vacancy;  ///< atom removed from the supercell, if any
  double vacuum;               ///< bn_monolayer vacuum (Bohr)
  GwParameters params;  ///< psi_cutoff, eps_cutoff, n_bands, coulomb, eta, nv_block
  bool pseudobands;
  PseudobandsOptions pseudobands_options;  ///< n_xi from pseudobands_nxi
  // Sigma request.
  std::string sigma_method;      ///< "gpp" | "space_time"
  idx n_tau;
  idx n_e_points;                ///< sigma 3, sigma_offdiag 12, gwpt 2
  double e_step;
  std::vector<idx> sigma_bands;  ///< empty: the gap pair {N_v - 1, N_v}
  idx n_freq;                    ///< ff 24; other jobs 0 (no sweep)
  double ff_eta;                 ///< job ff's broadening: eta, else FfOptions{}
  double memory_budget_mb;       ///< 0 = no budget
};

/// Parses and validates every JobInput key of `in`, defaults applied.
JobInput read_job_input(const InputFile& in);

/// The material a job describes (material/supercell/vacancy/vacuum).
EpmModel build_material(const JobInput& in);

/// The `coulomb` input value naming `s`.
const char* coulomb_name(CoulombScheme s);

inline EpmModel build_material_from_input(const InputFile& in) {
  return build_material(read_job_input(in));
}

inline GwParameters build_params_from_input(const InputFile& in) {
  return read_job_input(in).params;
}

// --- batch mode -----------------------------------------------------------

/// Reads a batch manifest: one input-file path per line; '#' starts a
/// comment; blank lines are skipped; relative paths resolve against the
/// manifest's directory.
std::vector<std::string> read_job_manifest(const std::string& path);

/// Runs several input files in one process (shared autotune cache, one
/// scheduler pool), echoing a `job i/n <path> rc <rc>` status line after
/// each job's output. A failing job is reported and does not stop the
/// batch. Returns the worst per-job rc.
int run_job_files(const std::vector<std::string>& paths, std::ostream& os);

}  // namespace xgw
