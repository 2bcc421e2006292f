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

/// A key is servable when the table marks it keyed or runtime. Runtime
/// keys never reach the canonical spec, so a rerun with a checkpoint
/// directory or a different worker count hits the same entries. In
/// particular `checkpoint`: a cached sub-result SUPERSEDES a restart file —
/// the CAS already restarts at per-band and per-frequency granularity.
bool is_servable_key(const std::string& k) {
  for (const InputKey& e : input_keys())
    if (k == e.name) return e.role != KeyRole::kDriverOnly;
  return false;
}

using Fields = std::vector<std::pair<std::string, std::string>>;

void add_mf_fields(const ResolvedSpec& s, Fields& f) {
  const JobInput& in = s.input;
  f.emplace_back("material", in.material);
  f.emplace_back("n_bands", std::to_string(in.params.n_bands));
  f.emplace_back("pseudobands", in.pseudobands ? "1" : "0");
  f.emplace_back("pseudobands_nxi",
                 std::to_string(in.pseudobands_options.n_xi));
  f.emplace_back("psi_cutoff", canon_double(in.params.psi_cutoff));
  f.emplace_back("supercell", std::to_string(in.supercell));
  f.emplace_back("vacancy",
                 in.vacancy ? std::to_string(*in.vacancy) : "none");
  f.emplace_back("vacuum", canon_double(in.vacuum));
}

void add_chi_fields(const ResolvedSpec& s, Fields& f) {
  add_mf_fields(s, f);
  f.emplace_back("eps_cutoff", canon_double(s.input.params.eps_cutoff));
  f.emplace_back("eta", canon_double(s.input.params.eta));
  f.emplace_back("nv_block", std::to_string(s.nv_block));
  f.emplace_back("q", "0");
}

}  // namespace

ResolvedSpec resolve_spec(const InputFile& in, JobInput job,
                          const SpecDims& dims) {
  XGW_REQUIRE_KIND(job.job == "sigma" || job.job == "epsilon",
                   "serve: job '" + job.job +
                       "' is not servable (sigma and epsilon specs only; "
                       "run others through xgw_run batch mode)",
                   ErrorKind::kValidation);
  for (const auto& [k, v] : in.entries()) {
    (void)v;
    XGW_REQUIRE_KIND(
        is_servable_key(k),
        "serve: key '" + k +
            "' cannot be canonicalized into a cache key (file-based inputs "
            "and side outputs defeat content addressing)",
        ErrorKind::kValidation);
  }
  // The batch executor runs the GPP route only. Accepting a space_time
  // spec here would compute GPP numbers and file them under this job's
  // keys — a poisoned cache every later run would trust. Reject instead.
  XGW_REQUIRE_KIND(job.job != "sigma" || job.sigma_method == "gpp",
                   "serve: sigma_method 'space_time' is not servable yet "
                   "(batch executor runs the GPP route; run space-time "
                   "jobs through xgw_run)",
                   ErrorKind::kValidation);

  idx nv_block = job.params.nv_block;
  if (job.memory_budget_mb > 0.0) {
    mem::PlannerInput pin;
    pin.budget_bytes = mem::mb(job.memory_budget_mb);
    pin.nv = dims.nv;
    pin.nc = dims.nc;
    pin.ng = dims.ng;
    pin.ncols = dims.ng;
    pin.nfreq = 1;
    pin.threads = 1;
    pin.fixed_bytes = 0;
    nv_block = mem::plan(pin).nv_block;
  }
  ResolvedSpec s{std::move(job), nv_block, {}, {}};
  if (s.input.job == "sigma") {
    s.bands = s.input.sigma_bands;
    if (s.bands.empty()) s.bands = {dims.nv - 1, dims.nv};
  } else if (s.input.n_freq > 0) {
    s.freqs = gauss_legendre_semi_infinite(s.input.n_freq, 1.0).nodes;
  }
  return s;
}

ResolvedSpec resolve_spec(const InputFile& in, const SpecDims& dims) {
  return resolve_spec(in, read_job_input(in), dims);
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
      f.emplace_back("eps_cutoff", canon_double(s.input.params.eps_cutoff));
      break;
    case Stage::kChi:
      add_chi_fields(s, f);
      f.emplace_back("freq", "static");
      break;
    case Stage::kEps:
      add_chi_fields(s, f);
      f.emplace_back("coulomb", coulomb_name(s.input.params.coulomb));
      f.emplace_back("freq", "static");
      break;
    case Stage::kEpsFreq: {
      XGW_REQUIRE(freq_index >= 0 &&
                      freq_index < static_cast<idx>(s.freqs.size()),
                  "epsf key needs a frequency index");
      add_chi_fields(s, f);
      f.emplace_back("coulomb", coulomb_name(s.input.params.coulomb));
      f.emplace_back("axis", "imaginary");
      f.emplace_back(
          "freq",
          canon_double(s.freqs[static_cast<std::size_t>(freq_index)]));
      f.emplace_back("freq_index", std::to_string(freq_index));
      f.emplace_back("n_freq", std::to_string(s.input.n_freq));
      break;
    }
    case Stage::kSigmaBand:
      XGW_REQUIRE(band >= 0, "sig key needs a band");
      add_chi_fields(s, f);
      f.emplace_back("coulomb", coulomb_name(s.input.params.coulomb));
      f.emplace_back("freq", "static");
      f.emplace_back("band", std::to_string(band));
      f.emplace_back("e_step", canon_double(s.input.e_step));
      f.emplace_back("n_e_points", std::to_string(s.input.n_e_points));
      break;
    // Space-time stages (NEW cases only — every pre-existing canonical
    // text above stays byte-identical). They carry the method tag and the
    // minimax order so no space-time entry can ever collide with a GPP or
    // full-frequency one, even if the method-blind fields match.
    case Stage::kChiTau:
      XGW_REQUIRE(freq_index >= 0, "chit key needs a tau index");
      add_chi_fields(s, f);
      f.emplace_back("axis", "imaginary_time");
      f.emplace_back("n_tau", std::to_string(s.input.n_tau));
      f.emplace_back("sigma_method", "space_time");
      f.emplace_back("tau_index", std::to_string(freq_index));
      break;
    case Stage::kWTau:
      add_chi_fields(s, f);
      f.emplace_back("axis", "imaginary_time");
      f.emplace_back("coulomb", coulomb_name(s.input.params.coulomb));
      f.emplace_back("n_tau", std::to_string(s.input.n_tau));
      f.emplace_back("sigma_method", "space_time");
      break;
    case Stage::kSigmaStBand:
      XGW_REQUIRE(band >= 0, "sigst key needs a band");
      add_chi_fields(s, f);
      f.emplace_back("band", std::to_string(band));
      f.emplace_back("coulomb", coulomb_name(s.input.params.coulomb));
      f.emplace_back("n_tau", std::to_string(s.input.n_tau));
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
