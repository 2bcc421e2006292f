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
#include <span>
#include <string>
#include <vector>

#include "cli/input.h"
#include "core/sigma.h"

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

// --- shared spec builders -------------------------------------------------
//
// The serve batch layer canonicalizes job specs through the SAME builders
// the per-job dispatchers use, so a spec means one thing whether it runs
// standalone or through the cache.

/// The material an input file describes (material/supercell/vacancy/vacuum).
EpmModel build_material_from_input(const InputFile& in);

/// The GW parameter set (cutoffs, eta, nv_block, coulomb scheme).
GwParameters build_params_from_input(const InputFile& in);

/// Memory budget in MB from `memory_budget_mb` / `memory_budget_machine`;
/// 0 = no budget.
double resolve_memory_budget_mb(const InputFile& in);

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
