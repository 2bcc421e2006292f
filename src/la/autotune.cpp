#include "la/autotune.h"

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
#include "la/microkernel.h"
#include "obs/report.h"

namespace xgw::la {

namespace {

// Line layout: magic, key, fma_peak_gflops, checksum. The magic's version
// suffix and the key both change with the format; files of another format
// keep the prefix, so they read as stale rather than as damage.
constexpr const char* kMagicPrefix = "xgw-autotune-v";
constexpr const char* kMagic = "xgw-autotune-v2";
constexpr int kFormatVersion = 2;
constexpr std::size_t kLines = 4;

std::string content_for_checksum(const std::vector<std::string>& lines) {
  std::string s;
  for (const auto& l : lines) {
    s += l;
    s += '\n';
  }
  return s;
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

}  // namespace

AutotuneResult default_autotune(SimdIsa isa) {
  const MicroKernel k = select_microkernel(isa);
  AutotuneResult r;  // mc/kc/nc: the struct's one cache tiling
  r.isa = isa;
  r.mr = k.mr;
  r.nr = k.nr;
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
  XGW_REQUIRE_KIND(lines[0].rfind(kMagicPrefix, 0) == 0,
                   "autotune cache: bad magic line (not an autotune cache)",
                   ErrorKind::kIoCorrupt);
  XGW_REQUIRE_KIND(lines.size() >= 2,
                   "autotune cache: file cut short (torn write?)",
                   ErrorKind::kIoTruncated);

  // Stale (other machine / compiler / isa / format) is decided BEFORE the
  // layout and the checksum: a foreign cache is a well-formed file we
  // simply don't trust, not damage.
  const std::string key = parse_str(lines[1], "key");
  if (key != autotune_cache_key(isa)) return false;

  XGW_REQUIRE_KIND(lines.size() >= kLines,
                   "autotune cache: file cut short (torn write?)",
                   ErrorKind::kIoTruncated);
  const std::string check = parse_str(lines[kLines - 1], "checksum");
  const std::string expect = obs::fnv1a_hex(content_for_checksum(
      std::vector<std::string>(lines.begin(), lines.begin() + kLines - 1)));
  XGW_REQUIRE_KIND(check == expect, "autotune cache: checksum mismatch",
                   ErrorKind::kIoCorrupt);

  AutotuneResult r = default_autotune(isa);
  r.fma_peak_gflops = parse_double(lines[2], "fma_peak_gflops");
  r.from_cache = true;
  *out = r;
  return true;
}

void save_autotune_cache(const std::string& path, const AutotuneResult& r) {
  std::vector<std::string> lines{kMagic,
                                 "key " + autotune_cache_key(r.isa)};
  std::ostringstream os;
  os << "fma_peak_gflops " << r.fma_peak_gflops;
  lines.push_back(os.str());
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
  AutotuneResult r = default_autotune(isa);
  r.fma_peak_gflops = fma_peak_gflops(isa, opt.probe_ms);
  return r;
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
  static const AutotuneResult r =
      resolve_autotune(autotune_cache_path(), detected_simd_isa());
  return r;
}

}  // namespace xgw::la
