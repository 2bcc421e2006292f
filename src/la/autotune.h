#pragma once

// Per-machine probe and cache for the GEMM engine (la/gemm.h).
//
// The engine runs one configuration per ISA: the ISA's micro-kernel
// (la/microkernel.h: scalar 4x8, AVX2 2x8, AVX-512 4x16) at MC/KC/NC =
// 64/128/256. Nothing else chooses it: no input key, environment variable
// or cache content. What is measured per machine is the single-core FMA
// peak at the dispatched ISA width (the roofline ceiling run reports and
// benches judge kernels against). The engine's first use measures it and
// persists it to a small text cache, so later processes on this machine
// skip the probe.
//
// Cache location (first match wins):
//   1. $XGW_AUTOTUNE_CACHE            (explicit file path)
//   2. $HOME/.cache/xgw_autotune.json
//   3. ./.xgw_autotune.json
// Delete the file to force a re-probe.
//
// The cache is keyed by an fnv1a fingerprint of (cpu model, compiler, ISA,
// format version) — the same host fields the benchkit machine fingerprint
// records — so a cache written on one CPU, by one compiler or in another
// format is treated as stale (silently re-probed), never trusted. Damaged
// files are reported through the common error taxonomy
// (ErrorKind::kIoTruncated for files cut short, e.g. by a torn write;
// ErrorKind::kIoCorrupt for content or checksum damage) and the engine
// falls back to re-probing and rewrites the cache atomically (tmp +
// rename).
//
// Determinism: KC groups the k-blocks, so it fixes every engine product's
// summation order. It follows from the ISA alone, so two processes of one
// build on one host give the same bits whatever their caches hold, and the
// AVX2 and AVX-512 engines agree bit for bit (la/microkernel.h).

#include <string>

#include "la/matrix.h"
#include "la/simd.h"

namespace xgw::la {

struct AutotuneResult {
  SimdIsa isa = SimdIsa::kScalar;
  int mr = 4;  ///< the ISA's register tile (la/microkernel.h)
  int nr = 8;
  idx mc = 64;  ///< the engine's cache tiling, the same for every ISA
  idx kc = 128;
  idx nc = 256;
  double fma_peak_gflops = 0.0;  ///< measured register-FMA peak (probe)
  double best_gflops = 0.0;      ///< always 0: kept for benchmark/ readers
  bool from_cache = false;       ///< true when loaded, false when probed
};

struct AutotuneOptions {
  double probe_ms = 20.0;  ///< FMA-peak probe budget
};

/// The engine's one configuration for `isa`, with no probe numbers.
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

/// default_autotune(isa) plus a fresh FMA-peak probe. Pure compute, no
/// cache I/O.
AutotuneResult run_autotune(SimdIsa isa, const AutotuneOptions& opt = {});

/// load_autotune_cache || (run_autotune + save): the composition the lazy
/// singleton uses, against an explicit path so tests can exercise damaged
/// caches end-to-end. Damaged or stale caches are re-probed and rewritten;
/// save failures are swallowed (tuning still returns a valid result).
AutotuneResult resolve_autotune(const std::string& path, SimdIsa isa,
                                const AutotuneOptions& opt = {});

/// Process-wide result the GEMM engine dispatches with (lazy, cached):
/// resolve_autotune(autotune_cache_path(), detected_simd_isa()).
const AutotuneResult& autotune_result();

}  // namespace xgw::la
