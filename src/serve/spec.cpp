#include "serve/spec.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "cli/driver.h"
#include "common/error.h"
#include "common/quadrature.h"
#include "mem/planner.h"
#include "obs/report.h"

namespace xgw::serve {

const char* stage_prefix(Stage s) {
  switch (s) {
    case Stage::kMf: return "mf";
    case Stage::kMtxel: return "mtx";
    case Stage::kChi: return "chi";
    case Stage::kEps: return "eps";
    case Stage::kEpsFreq: return "epsf";
    case Stage::kSigmaBand: return "sig";
    case Stage::kChiTau: return "chit";
    case Stage::kWTau: return "wtau";
    case Stage::kSigmaStBand: return "sigst";
  }
  return "?";
}

std::string canon_double(double v) {
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

namespace {

/// Keys whose value can never change result bytes (runtime/observability
/// knobs): silently stripped from the canonical spec, so a rerun with a
/// checkpoint directory or a different worker count hits the same entries.
/// In particular `checkpoint`: a cached sub-result SUPERSEDES a restart
/// file — the CAS already restarts at per-band and per-frequency
/// granularity.
bool is_runtime_key(const std::string& k) {
  static const std::vector<std::string> runtime{
      "checkpoint",      "trace",
      "trace_detail",    "metrics",              "run_report",
      "peak_gflops",     "mem_gbps",             "spill_dir",
      "validate",        "io_retry_attempts",    "io_retry_backoff_ms",
      "spill_verify",    "sched_workers",        "memory_budget_mb",
      "memory_budget_machine",
  };
  for (const std::string& r : runtime)
    if (r == k) return true;
  return false;
}

/// Keys a serve spec may carry beyond the runtime set.
bool is_serve_key(const std::string& k) {
  static const std::vector<std::string> serve{
      "job",        "material",    "supercell",       "vacancy",
      "vacuum",     "psi_cutoff",  "eps_cutoff",      "coulomb",
      "n_bands",    "eta",         "nv_block",        "sigma_bands",
      "n_e_points", "e_step",      "n_freq",          "pseudobands",
      "pseudobands_nxi",           "sigma_method",    "n_tau",
  };
  for (const std::string& s : serve)
    if (s == k) return true;
  return false;
}

using Fields = std::vector<std::pair<std::string, std::string>>;

void add_mf_fields(const ResolvedSpec& s, Fields& f) {
  f.emplace_back("material", s.material);
  f.emplace_back("n_bands", std::to_string(s.n_bands));
  f.emplace_back("pseudobands", s.pseudobands ? "1" : "0");
  f.emplace_back("pseudobands_nxi", std::to_string(s.pseudobands_nxi));
  f.emplace_back("psi_cutoff", canon_double(s.psi_cutoff));
  f.emplace_back("supercell", std::to_string(s.supercell));
  f.emplace_back("vacancy",
                 s.has_vacancy ? std::to_string(s.vacancy) : "none");
  f.emplace_back("vacuum", canon_double(s.vacuum));
}

void add_chi_fields(const ResolvedSpec& s, Fields& f) {
  add_mf_fields(s, f);
  f.emplace_back("eps_cutoff", canon_double(s.eps_cutoff));
  f.emplace_back("eta", canon_double(s.eta));
  f.emplace_back("nv_block", std::to_string(s.nv_block));
  f.emplace_back("q", "0");
}

}  // namespace

ResolvedSpec resolve_spec(const InputFile& in, const SpecDims& dims,
                          double default_budget_mb) {
  ResolvedSpec s;
  s.job = in.require_string("job");
  XGW_REQUIRE_KIND(s.job == "sigma" || s.job == "epsilon",
                   "serve: job '" + s.job +
                       "' is not servable (sigma and epsilon specs only; "
                       "run others through xgw_run batch mode)",
                   ErrorKind::kValidation);
  for (const auto& [k, v] : in.entries()) {
    (void)v;
    XGW_REQUIRE_KIND(
        is_runtime_key(k) || is_serve_key(k),
        "serve: key '" + k +
            "' cannot be canonicalized into a cache key (file-based inputs "
            "and side outputs defeat content addressing)",
        ErrorKind::kValidation);
  }

  s.material = in.require_string("material");
  s.supercell = in.get_int("supercell", 1);
  s.has_vacancy = in.has("vacancy");
  if (s.has_vacancy) s.vacancy = in.get_int("vacancy", 0);
  s.vacuum = in.get_double("vacuum", 16.0);
  s.psi_cutoff = in.get_double("psi_cutoff", -1.0);
  s.n_bands = in.get_int("n_bands", -1);
  s.pseudobands = in.get_bool("pseudobands", false);
  s.pseudobands_nxi = in.get_int("pseudobands_nxi", 3);

  s.eps_cutoff = in.get_double("eps_cutoff", -1.0);
  s.eta = in.get_double("eta", 1e-3);
  s.coulomb = in.get_string("coulomb", "spherical_average");

  s.nv_block = in.get_int("nv_block", 8);
  double budget_mb = default_budget_mb;
  if (in.has("memory_budget_mb") || in.has("memory_budget_machine"))
    budget_mb = resolve_memory_budget_mb(in);
  if (budget_mb > 0.0) {
    mem::PlannerInput pin;
    pin.budget_bytes = mem::mb(budget_mb);
    pin.nv = dims.nv;
    pin.nc = dims.nc;
    pin.ng = dims.ng;
    pin.ncols = dims.ng;
    pin.nfreq = 1;
    pin.threads = 1;
    pin.fixed_bytes = 0;
    s.nv_block = mem::plan(pin).nv_block;
  }

  if (s.job == "sigma") {
    s.sigma_method = in.get_string("sigma_method", "gpp");
    XGW_REQUIRE_KIND(
        s.sigma_method == "gpp" || s.sigma_method == "space_time",
        "serve: unknown sigma_method '" + s.sigma_method + "'",
        ErrorKind::kValidation);
    // The batch executor runs the GPP route only. Accepting a space_time
    // spec here would compute GPP numbers and file them under this job's
    // keys — a poisoned cache every later run would trust. Reject instead.
    XGW_REQUIRE_KIND(s.sigma_method == "gpp",
                     "serve: sigma_method 'space_time' is not servable yet "
                     "(batch executor runs the GPP route; run space-time "
                     "jobs through xgw_run)",
                     ErrorKind::kValidation);
    s.n_tau = in.get_int("n_tau", 14);
    s.n_e_points = in.get_int("n_e_points", 3);
    s.e_step = in.get_double("e_step", 0.02);
    s.bands = in.get_int_list("sigma_bands");
    if (s.bands.empty()) s.bands = {dims.nv - 1, dims.nv};
  } else {
    s.n_freq = in.has("n_freq") ? in.get_int("n_freq", 8) : 0;
    if (s.n_freq > 0)
      s.freqs = gauss_legendre_semi_infinite(s.n_freq, 1.0).nodes;
  }
  return s;
}

std::string canonical_stage_spec(const ResolvedSpec& s, Stage stage,
                                 idx band, idx freq_index) {
  Fields f;
  switch (stage) {
    case Stage::kMf:
      add_mf_fields(s, f);
      break;
    case Stage::kMtxel:
      XGW_REQUIRE(band >= 0, "mtx key needs a band");
      add_mf_fields(s, f);
      f.emplace_back("band", std::to_string(band));
      f.emplace_back("eps_cutoff", canon_double(s.eps_cutoff));
      break;
    case Stage::kChi:
      add_chi_fields(s, f);
      f.emplace_back("freq", "static");
      break;
    case Stage::kEps:
      add_chi_fields(s, f);
      f.emplace_back("coulomb", s.coulomb);
      f.emplace_back("freq", "static");
      break;
    case Stage::kEpsFreq: {
      XGW_REQUIRE(freq_index >= 0 &&
                      freq_index < static_cast<idx>(s.freqs.size()),
                  "epsf key needs a frequency index");
      add_chi_fields(s, f);
      f.emplace_back("coulomb", s.coulomb);
      f.emplace_back("axis", "imaginary");
      f.emplace_back(
          "freq",
          canon_double(s.freqs[static_cast<std::size_t>(freq_index)]));
      f.emplace_back("freq_index", std::to_string(freq_index));
      f.emplace_back("n_freq", std::to_string(s.n_freq));
      break;
    }
    case Stage::kSigmaBand:
      XGW_REQUIRE(band >= 0, "sig key needs a band");
      add_chi_fields(s, f);
      f.emplace_back("coulomb", s.coulomb);
      f.emplace_back("freq", "static");
      f.emplace_back("band", std::to_string(band));
      f.emplace_back("e_step", canon_double(s.e_step));
      f.emplace_back("n_e_points", std::to_string(s.n_e_points));
      break;
    // Space-time stages (NEW cases only — every pre-existing canonical
    // text above stays byte-identical). They carry the method tag and the
    // minimax order so no space-time entry can ever collide with a GPP or
    // full-frequency one, even if the method-blind fields match.
    case Stage::kChiTau:
      XGW_REQUIRE(freq_index >= 0, "chit key needs a tau index");
      add_chi_fields(s, f);
      f.emplace_back("axis", "imaginary_time");
      f.emplace_back("n_tau", std::to_string(s.n_tau));
      f.emplace_back("sigma_method", "space_time");
      f.emplace_back("tau_index", std::to_string(freq_index));
      break;
    case Stage::kWTau:
      add_chi_fields(s, f);
      f.emplace_back("axis", "imaginary_time");
      f.emplace_back("coulomb", s.coulomb);
      f.emplace_back("n_tau", std::to_string(s.n_tau));
      f.emplace_back("sigma_method", "space_time");
      break;
    case Stage::kSigmaStBand:
      XGW_REQUIRE(band >= 0, "sigst key needs a band");
      add_chi_fields(s, f);
      f.emplace_back("band", std::to_string(band));
      f.emplace_back("coulomb", s.coulomb);
      f.emplace_back("n_tau", std::to_string(s.n_tau));
      f.emplace_back("sigma_method", "space_time");
      break;
  }
  std::sort(f.begin(), f.end());
  std::string text = "schema xgw-cas-key-v1\nstage ";
  text += stage_prefix(stage);
  text += '\n';
  for (const auto& [k, v] : f) {
    text += k;
    text += ' ';
    text += v;
    text += '\n';
  }
  return text;
}

std::string cache_key(const ResolvedSpec& s, Stage stage, idx band,
                      idx freq_index) {
  return std::string(stage_prefix(stage)) + "-" +
         obs::fnv1a_hex(canonical_stage_spec(s, stage, band, freq_index));
}

JobSpec load_job(const std::string& path) {
  JobSpec j;
  j.path = path;
  j.name = std::filesystem::path(path).stem().string();
  j.input = InputFile::load(path, known_input_keys());
  return j;
}

std::vector<JobSpec> load_manifest(const std::string& path) {
  std::vector<JobSpec> jobs;
  for (const std::string& p : read_job_manifest(path))
    jobs.push_back(load_job(p));
  return jobs;
}

}  // namespace xgw::serve
