#pragma once

// Per-machine autotuning for the GEMM engine (la/gemm.h).
//
// On first use the engine (a) measures the single-core FMA peak at the
// dispatched ISA width (la/microkernel.h probe), (b) sweeps the compiled
// {MR, NR} register-tile candidates against {KC} x {NC} cache tilings on a
// synthetic problem, and (c) persists the winner to a small text cache so
// every later process on this machine pays zero autotune cost.
//
// Cache location (first match wins):
//   1. $XGW_AUTOTUNE_CACHE            (explicit file path)
//   2. $HOME/.cache/xgw_autotune.json
//   3. ./.xgw_autotune.json
// Delete the file to force a re-probe. XGW_AUTOTUNE=off skips probing and
// I/O entirely and uses the static per-ISA defaults.
//
// The cache is keyed by an fnv1a fingerprint of (cpu model, compiler, ISA,
// format version) — the same host fields the benchkit machine fingerprint
// records — so a cache written on one CPU or by one compiler is treated as
// stale (silently re-probed), never trusted. Damaged files are reported
// through the common error taxonomy (ErrorKind::kIoTruncated for files cut
// short, e.g. by a torn write; ErrorKind::kIoCorrupt for content or
// checksum damage) and the engine falls back to re-probing and rewrites the
// cache atomically (tmp + rename).
//
// Determinism note: KC/NC change how k-blocks are grouped, which changes
// floating-point summation order. Within a process the configuration is
// resolved once, so all variants stay self-consistent; ACROSS processes,
// bitwise reproducibility additionally requires a shared (or absent +
// re-probed-identically, or XGW_AUTOTUNE=off) cache — CI's bitwise
// spill-vs-incore job shares one HOME for exactly this reason.

#include <string>

#include "la/matrix.h"
#include "la/simd.h"

namespace xgw::la {

struct AutotuneResult {
  SimdIsa isa = SimdIsa::kScalar;
  int mr = 4;
  int nr = 8;
  idx mc = 64;
  idx kc = 128;
  idx nc = 256;
  double fma_peak_gflops = 0.0;  ///< measured register-FMA peak (probe)
  double best_gflops = 0.0;      ///< best sweep candidate's measured rate
  bool from_cache = false;       ///< true when loaded, false when probed
  bool swept = false;            ///< false for static defaults (autotune off)
};

struct AutotuneOptions {
  double probe_ms = 20.0;  ///< FMA-peak probe budget
  int sweep_reps = 3;      ///< timed repetitions per candidate (min is kept)
  idx sweep_n = 160;       ///< synthetic m=n=k problem size for the sweep
};

/// Static per-ISA defaults (first kernel candidate, 64/128/256 cache tiles);
/// what XGW_AUTOTUNE=off uses and what damaged-probe paths fall back to.
AutotuneResult default_autotune(SimdIsa isa);

/// Cache fingerprint for this (machine, compiler, isa, format) — fnv1a hex.
std::string autotune_cache_key(SimdIsa isa);

/// Resolved cache file location per the priority list above.
std::string autotune_cache_path();

/// Load `path` into `*out`. Returns false when the file does not exist or
/// carries a different fingerprint (stale — caller re-probes, no error).
/// Throws Error(kIoTruncated) for files cut short and Error(kIoCorrupt)
/// for magic/field/checksum damage.
bool load_autotune_cache(const std::string& path, SimdIsa isa,
                         AutotuneResult* out);

/// Atomically (tmp + rename) write `r` to `path` (one best-effort mkdir of
/// the immediate parent); failures throw Error with an io kind. The file
/// embeds an fnv1a checksum over its own lines.
void save_autotune_cache(const std::string& path, const AutotuneResult& r);

/// Probe FMA peak + sweep candidates for `isa`. Pure compute, no cache I/O.
AutotuneResult run_autotune(SimdIsa isa, const AutotuneOptions& opt = {});

/// load_autotune_cache || (run_autotune + save): the composition the lazy
/// singleton uses, against an explicit path so tests can exercise damaged
/// caches end-to-end. Damaged or stale caches are re-probed and rewritten;
/// save failures are swallowed (tuning still returns a valid result).
AutotuneResult resolve_autotune(const std::string& path, SimdIsa isa,
                                const AutotuneOptions& opt = {});

/// Process-wide result the GEMM engine dispatches with (lazy, cached):
/// defaults when XGW_AUTOTUNE=off, otherwise
/// resolve_autotune(autotune_cache_path(), detected_simd_isa()).
const AutotuneResult& autotune_result();

}  // namespace xgw::la
