#include "la/autotune.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#ifndef _WIN32
#include <sys/stat.h>
#endif

#include "common/error.h"
#include "common/hostinfo.h"
#include "la/gemm.h"
#include "la/microkernel.h"
#include "obs/report.h"

namespace xgw::la {

namespace {

constexpr const char* kMagic = "xgw-autotune-v1";
constexpr int kFormatVersion = 1;

// Candidate cache tilings swept per register tile. MC is fixed at 64 (it
// bounds the per-thread A-pack and C-accumulator footprint the memory
// planner already models); KC/NC trade B-panel L2 residency against pack
// overhead.
constexpr idx kSweepKc[] = {128, 256};
constexpr idx kSweepNc[] = {256, 512};
constexpr idx kSweepMc = 64;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string content_for_checksum(const std::vector<std::string>& lines) {
  std::string s;
  for (const auto& l : lines) {
    s += l;
    s += '\n';
  }
  return s;
}

long long parse_ll(const std::string& line, const char* field) {
  const auto sp = line.find(' ');
  XGW_REQUIRE_KIND(sp != std::string::npos &&
                       line.compare(0, sp, field) == 0,
                   std::string("autotune cache: expected field '") + field +
                       "', got '" + line + "'",
                   ErrorKind::kIoCorrupt);
  char* end = nullptr;
  const std::string v = line.substr(sp + 1);
  const long long out = std::strtoll(v.c_str(), &end, 10);
  XGW_REQUIRE_KIND(end != nullptr && *end == '\0' && !v.empty(),
                   std::string("autotune cache: bad integer in '") + line +
                       "'",
                   ErrorKind::kIoCorrupt);
  return out;
}

double parse_double(const std::string& line, const char* field) {
  const auto sp = line.find(' ');
  XGW_REQUIRE_KIND(sp != std::string::npos &&
                       line.compare(0, sp, field) == 0,
                   std::string("autotune cache: expected field '") + field +
                       "', got '" + line + "'",
                   ErrorKind::kIoCorrupt);
  char* end = nullptr;
  const std::string v = line.substr(sp + 1);
  const double out = std::strtod(v.c_str(), &end);
  XGW_REQUIRE_KIND(end != nullptr && *end == '\0' && !v.empty(),
                   std::string("autotune cache: bad number in '") + line +
                       "'",
                   ErrorKind::kIoCorrupt);
  return out;
}

std::string parse_str(const std::string& line, const char* field) {
  const auto sp = line.find(' ');
  XGW_REQUIRE_KIND(sp != std::string::npos &&
                       line.compare(0, sp, field) == 0,
                   std::string("autotune cache: expected field '") + field +
                       "', got '" + line + "'",
                   ErrorKind::kIoCorrupt);
  return line.substr(sp + 1);
}

// Deterministic non-trivial fill for the sweep operands (no RNG: tuning
// must not perturb any seeded randomness the caller owns).
void fill_matrix(ZMatrix& m, double phase) {
  for (idx i = 0; i < m.rows(); ++i)
    for (idx j = 0; j < m.cols(); ++j) {
      const double t = phase + 0.37 * static_cast<double>(i) -
                       0.11 * static_cast<double>(j);
      m(i, j) = cplx{1.0 + 0.001 * t, 0.5 - 0.0007 * t};
    }
}

}  // namespace

AutotuneResult default_autotune(SimdIsa isa) {
  AutotuneResult r;
  r.isa = isa;
  const TileShape t = default_tile(isa);
  r.mr = t.mr;
  r.nr = t.nr;
  r.mc = kSweepMc;
  r.kc = 128;
  r.nc = 256;
  return r;
}

std::string autotune_cache_key(SimdIsa isa) {
  std::string s = cpu_model_name();
  s += '|';
  s += compiler_id();
  s += '|';
  s += simd_isa_name(isa);
  s += "|v";
  s += std::to_string(kFormatVersion);
  return obs::fnv1a_hex(s);
}

std::string autotune_cache_path() {
  if (const char* env = std::getenv("XGW_AUTOTUNE_CACHE");
      env != nullptr && env[0] != '\0')
    return env;
  if (const char* home = std::getenv("HOME");
      home != nullptr && home[0] != '\0')
    return std::string(home) + "/.cache/xgw_autotune.json";
  return ".xgw_autotune.json";
}

bool load_autotune_cache(const std::string& path, SimdIsa isa,
                         AutotuneResult* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;  // missing: first run on this machine

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  XGW_REQUIRE_KIND(!lines.empty(), "autotune cache: empty file",
                   ErrorKind::kIoTruncated);
  XGW_REQUIRE_KIND(lines[0] == kMagic,
                   "autotune cache: bad magic line (not an autotune cache)",
                   ErrorKind::kIoCorrupt);
  // magic + 9 fields + checksum
  XGW_REQUIRE_KIND(lines.size() >= 11,
                   "autotune cache: file cut short (torn write?)",
                   ErrorKind::kIoTruncated);

  // Stale (other machine / compiler / isa) is decided BEFORE the checksum:
  // a foreign cache is a well-formed file we simply don't trust, not damage.
  const std::string key = parse_str(lines[1], "key");
  if (key != autotune_cache_key(isa)) return false;

  const std::string check = parse_str(lines[10], "checksum");
  const std::string expect = obs::fnv1a_hex(content_for_checksum(
      std::vector<std::string>(lines.begin(), lines.begin() + 10)));
  XGW_REQUIRE_KIND(check == expect, "autotune cache: checksum mismatch",
                   ErrorKind::kIoCorrupt);

  AutotuneResult r;
  const std::string isa_s = parse_str(lines[2], "isa");
  XGW_REQUIRE_KIND(parse_simd_isa(isa_s, &r.isa),
                   "autotune cache: unknown isa '" + isa_s + "'",
                   ErrorKind::kIoCorrupt);
  r.mr = static_cast<int>(parse_ll(lines[3], "mr"));
  r.nr = static_cast<int>(parse_ll(lines[4], "nr"));
  r.mc = static_cast<idx>(parse_ll(lines[5], "mc"));
  r.kc = static_cast<idx>(parse_ll(lines[6], "kc"));
  r.nc = static_cast<idx>(parse_ll(lines[7], "nc"));
  r.fma_peak_gflops = parse_double(lines[8], "fma_peak_gflops");
  r.best_gflops = parse_double(lines[9], "best_gflops");
  XGW_REQUIRE_KIND(r.mr > 0 && r.nr > 0 && r.mc > 0 && r.kc > 0 && r.nc > 0,
                   "autotune cache: non-positive tile size",
                   ErrorKind::kIoCorrupt);

  // A cache whose (mr, nr) kernel is not compiled in THIS build (e.g.
  // written by a SIMD build, read by XGW_DISABLE_SIMD) is stale, not fatal.
  if (r.isa != isa || select_microkernel(r.isa, r.mr, r.nr) == nullptr)
    return false;

  r.from_cache = true;
  r.swept = true;
  *out = r;
  return true;
}

void save_autotune_cache(const std::string& path, const AutotuneResult& r) {
  std::vector<std::string> lines;
  lines.push_back(kMagic);
  lines.push_back("key " + autotune_cache_key(r.isa));
  lines.push_back(std::string("isa ") + simd_isa_name(r.isa));
  lines.push_back("mr " + std::to_string(r.mr));
  lines.push_back("nr " + std::to_string(r.nr));
  lines.push_back("mc " + std::to_string(static_cast<long long>(r.mc)));
  lines.push_back("kc " + std::to_string(static_cast<long long>(r.kc)));
  lines.push_back("nc " + std::to_string(static_cast<long long>(r.nc)));
  {
    std::ostringstream os;
    os << "fma_peak_gflops " << r.fma_peak_gflops;
    lines.push_back(os.str());
  }
  {
    std::ostringstream os;
    os << "best_gflops " << r.best_gflops;
    lines.push_back(os.str());
  }
  lines.push_back("checksum " +
                  obs::fnv1a_hex(content_for_checksum(lines)));

#ifndef _WIN32
  // Best-effort: the default $HOME/.cache location may not exist yet.
  if (const auto slash = path.find_last_of('/'); slash != std::string::npos)
    ::mkdir(path.substr(0, slash).c_str(), 0755);
#endif
  const std::string tmp = path + ".tmp";
  {
    std::ofstream outf(tmp, std::ios::trunc);
    XGW_REQUIRE_KIND(outf.is_open(),
                     "autotune cache: cannot open '" + tmp + "' for write",
                     ErrorKind::kIoTransient);
    outf << content_for_checksum(lines);
    outf.flush();
    XGW_REQUIRE_KIND(outf.good(),
                     "autotune cache: short write to '" + tmp + "'",
                     ErrorKind::kIoTransient);
  }
  XGW_REQUIRE_KIND(std::rename(tmp.c_str(), path.c_str()) == 0,
                   "autotune cache: rename into '" + path + "' failed",
                   ErrorKind::kIoTransient);
}

AutotuneResult run_autotune(SimdIsa isa, const AutotuneOptions& opt) {
  AutotuneResult best = default_autotune(isa);
  best.fma_peak_gflops = fma_peak_gflops(isa, opt.probe_ms);
  best.swept = true;

  const idx n = opt.sweep_n;
  ZMatrix a(n, n), b(n, n), c(n, n);
  fill_matrix(a, 0.3);
  fill_matrix(b, 1.7);

  const double flops = 8.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  double best_time = -1.0;
  for (const TileShape& tile : kernel_candidates(isa)) {
    for (const idx kc : kSweepKc) {
      for (const idx nc : kSweepNc) {
        const GemmV3Config cfg{isa, tile.mr, tile.nr, kSweepMc, kc, nc};
        // Warm-up rep (page faults, frequency ramp), then keep the best rep.
        double t_min = -1.0;
        for (int rep = 0; rep <= opt.sweep_reps; ++rep) {
          const double t0 = now_seconds();
          zgemm_v3_explicit(cfg, Op::kNone, Op::kNone, cplx{1.0, 0.0}, a, b,
                            cplx{0.0, 0.0}, c, /*parallel=*/false);
          const double dt = now_seconds() - t0;
          if (rep > 0 && (t_min < 0.0 || dt < t_min)) t_min = dt;
        }
        if (best_time < 0.0 || t_min < best_time) {
          best_time = t_min;
          best.mr = tile.mr;
          best.nr = tile.nr;
          best.mc = kSweepMc;
          best.kc = kc;
          best.nc = nc;
        }
      }
    }
  }
  if (best_time > 0.0) best.best_gflops = flops / best_time * 1e-9;
  return best;
}

AutotuneResult resolve_autotune(const std::string& path, SimdIsa isa,
                                const AutotuneOptions& opt) {
  try {
    AutotuneResult cached;
    if (load_autotune_cache(path, isa, &cached)) return cached;
  } catch (const Error&) {
    // Damaged cache (torn write, checksum mismatch, garbage): recovery is
    // re-probing — retrying the read is useless (kIoCorrupt semantics).
  }
  AutotuneResult fresh = run_autotune(isa, opt);
  try {
    save_autotune_cache(path, fresh);
  } catch (const Error&) {
    // Read-only or racing filesystem: tuning still succeeded; next process
    // simply re-probes.
  }
  return fresh;
}

const AutotuneResult& autotune_result() {
  static const AutotuneResult r = [] {
    const SimdIsa isa = detected_simd_isa();
    if (const char* mode = std::getenv("XGW_AUTOTUNE");
        mode != nullptr && std::string(mode) == "off")
      return default_autotune(isa);
    return resolve_autotune(autotune_cache_path(), isa);
  }();
  return r;
}

}  // namespace xgw::la
