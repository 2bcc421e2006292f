#pragma once

// Binary file formats — the WFN / epsmat analogue of BerkeleyGW's staged
// files. The paper's "Tot. incl. I/O" rows exist because a production
// Sigma run reads the wavefunction and eps^{-1} files written by Parabands
// and Epsilon; xgw mirrors that staged workflow, and its restart files are
// the same matrix format.
//
// Format: little-endian, fixed 32-byte header
//   magic "XGW1" | kind u32 | rows i64 | cols i64 | payload bytes i64
// followed by kind-specific metadata, the raw payload, and a trailing
// FNV-1a checksum of everything before it. Readers verify magic, kind,
// file size and checksum and throw xgw::Error on any mismatch (a corrupt
// file must fail loudly, not silently).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>

#include "la/matrix.h"
#include "mf/wavefunctions.h"
#include "obs/report.h"

namespace xgw {

/// Writes a complex dense matrix (the "epsmat" format).
void write_matrix(const std::string& path, const ZMatrix& m);
ZMatrix read_matrix(const std::string& path);

/// Writes a band set: coefficients + energies + n_valence (the "WFN"
/// format).
void write_wavefunctions(const std::string& path, const Wavefunctions& wf);
Wavefunctions read_wavefunctions(const std::string& path);

/// Bytes a matrix/wavefunction file occupies (I/O model input).
std::size_t matrix_file_bytes(idx rows, idx cols);
std::size_t wavefunctions_file_bytes(idx n_bands, idx n_pw);

// --- per-item restart files ----------------------------------------------
//
// A restart directory (the `checkpoint` input key) holds one matrix file per
// finished loop item: eps^{-1}(i omega_k) of the epsilon frequency loop, one
// encoded QP row of the Sigma band loop. A file is named
// `<item>-<hash>.bin`, where the hash covers every input the item's bits
// depend on, so a run resumed under different physics names different files
// and never splices in stale results. Each file is written once, when its
// item finishes, and is trusted on resume only if it passes binio's size and
// checksum checks: a missing, torn or corrupt file just means that item is
// recomputed.

/// Identity of one restart item: FNV-1a over the raw bits of every input
/// the item reads, folded in the order added.
class RestartKey {
 public:
  template <class T>
    requires std::is_trivially_copyable_v<T>
  RestartKey& add(std::span<const T> v) {
    h_ = obs::fnv1a({reinterpret_cast<const char*>(v.data()), v.size_bytes()},
                    h_);
    return *this;
  }
  template <class T>
    requires std::is_trivially_copyable_v<T>
  RestartKey& add(const T& x) {
    return add(std::span<const T>(&x, 1));
  }
  RestartKey& add(const ZMatrix& m) {
    return add(std::span<const cplx>(m.data(), static_cast<std::size_t>(m.size())));
  }
  /// Coefficients, energies and n_valence.
  RestartKey& add(const Wavefunctions& wf) {
    return add(wf.coeff)
        .add(std::span<const double>(wf.energy))
        .add(wf.n_valence);
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = obs::kFnv1aBasis;
};

/// `dir/<item>-<16 hex digits of key>.bin`, creating `dir` if needed.
std::string restart_item_path(const std::string& dir, const std::string& item,
                              const RestartKey& key);

/// The rows x cols matrix stored at `path`, or nullopt when the file is
/// missing or fails binio's checks or the shape check. A damaged file is
/// logged, deleted and counted once under fault/io/recovered/<kind>; its
/// item is then recomputed.
std::optional<ZMatrix> load_restart_item(const std::string& path, idx rows,
                                         idx cols);

/// Writes one finished item (counted in checkpoint.writes and
/// checkpoint.bytes). A storage failure — ENOSPC, or transient errors past
/// the retry budget — skips this file with a warning and a recovered mark:
/// the loop keeps computing and only this item loses restart coverage.
/// Other errors propagate.
void save_restart_item(const std::string& path, const ZMatrix& m);

}  // namespace xgw
