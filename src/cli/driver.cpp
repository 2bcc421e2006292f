#include "cli/driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>

#include <span>

#include "bse/bse.h"
#include "common/error.h"
#include "common/quadrature.h"
#include "common/validate.h"
#include "core/cohsex.h"
#include "core/evgw.h"
#include "core/rpa.h"
#include "core/sigma_ff.h"
#include "core/sigma_st.h"
#include "gwpt/gwpt.h"
#include "gwpt/phonons.h"
#include "io/binio.h"
#include "io/iohooks.h"
#include "la/autotune.h"
#include "la/gemm.h"
#include "mf/bandstructure.h"
#include "mem/planner.h"
#include "mem/spill.h"
#include "mem/tracker.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "perf/machines.h"
#include "perf/progmodel.h"
#include "pseudobands/pseudobands.h"
#include "sched/executor.h"

namespace xgw {

const std::vector<std::string>& known_input_keys() {
  static const std::vector<std::string> keys{
      "job",         "material",     "supercell",    "vacancy",
      "substitution","psi_cutoff",   "eps_cutoff",   "coulomb",
      "n_bands",     "eta",          "nv_block",     "sigma_bands",
      "n_e_points",  "e_step",       "n_freq",       "subspace_fraction",
      "pseudobands", "pseudobands_nxi", "scissors",  "bse_nval",
      "bse_ncond",   "output_wfn",   "input_wfn",    "output_epsmat",
      "evgw_max_iter", "evgw_mixing", "rpa_n_freq",  "band_segments",
      "vacuum",      "checkpoint",
      "trace",       "trace_detail", "metrics",      "run_report",
      "peak_gflops", "mem_gbps",     "memory_budget_mb",
      "memory_budget_machine",       "spill_dir",    "validate",
      "io_retry_attempts",           "io_retry_backoff_ms",
      "spill_verify", "sched_workers",
      "sigma_method", "n_tau",
  };
  return keys;
}

namespace {

EpmModel build_material(const InputFile& in) {
  const std::string name = in.require_string("material");
  const idx n = in.get_int("supercell", 1);
  EpmModel model = [&] {
    if (name == "silicon" || name == "si") return EpmModel::silicon(n);
    if (name == "lih") return EpmModel::lih(n);
    if (name == "bn") return EpmModel::bn(n);
    if (name == "bn_monolayer")
      return EpmModel::bn_monolayer(n, in.get_double("vacuum", 16.0));
    XGW_REQUIRE(false, "unknown material '" + name + "'");
    return EpmModel::silicon(1);
  }();
  if (in.has("vacancy")) model = model.with_vacancy(in.get_int("vacancy", 0));
  return model;
}

GwParameters build_params(const InputFile& in) {
  GwParameters p;
  p.psi_cutoff = in.get_double("psi_cutoff", -1.0);
  p.eps_cutoff = in.get_double("eps_cutoff", -1.0);
  p.n_bands = in.get_int("n_bands", -1);
  p.eta = in.get_double("eta", 1e-3);
  p.nv_block = in.get_int("nv_block", 8);
  const std::string c = in.get_string("coulomb", "spherical_average");
  if (c == "spherical_average")
    p.coulomb = CoulombScheme::kSphericalAverage;
  else if (c == "spherical_truncate")
    p.coulomb = CoulombScheme::kSphericalTruncate;
  else if (c == "slab")
    p.coulomb = CoulombScheme::kSlabTruncate;
  else if (c == "exclude_head")
    p.coulomb = CoulombScheme::kExcludeHead;
  else
    XGW_REQUIRE(false, "unknown coulomb scheme '" + c + "'");
  return p;
}

std::vector<idx> sigma_bands(const InputFile& in, const GwCalculation& gw) {
  std::vector<idx> bands = in.get_int_list("sigma_bands");
  if (bands.empty())
    bands = {gw.n_valence() - 1, gw.n_valence()};
  return bands;
}

void maybe_compress(const InputFile& in, GwCalculation& gw) {
  if (!in.get_bool("pseudobands", false)) return;
  PseudobandsOptions opt;
  opt.n_xi = in.get_int("pseudobands_nxi", 3);
  gw.set_wavefunctions(build_pseudobands(gw.wavefunctions(), opt));
}

void print_header(std::ostream& os, const GwCalculation& gw) {
  os << "system: N_G^psi = " << gw.n_g_psi() << ", N_G = " << gw.n_g()
     << ", N_b = " << gw.n_bands() << ", N_v = " << gw.n_valence() << "\n";
}

/// Memory budget in MB: `memory_budget_mb` wins; otherwise
/// `memory_budget_machine` uses the named platform's per-GPU HBM capacity.
/// 0 = no budget (everything stays in-core, no blocking pressure).
double resolve_budget_mb(const InputFile& in) {
  double budget = in.get_double("memory_budget_mb", 0.0);
  if (budget <= 0.0 && in.has("memory_budget_machine"))
    budget = machine_by_name(in.require_string("memory_budget_machine"))
                 .hbm_per_gpu /
             (1024.0 * 1024.0);
  return budget;
}

/// Solve the NV-Block / CHI-Freq plan for this calculation's Table-2 sizes
/// under the resolved budget, charging the bytes already live (wavefunctions,
/// cached stages) as the fixed floor.
mem::MemPlan plan_for(const GwCalculation& gw, double budget_mb, idx nfreq) {
  mem::PlannerInput pin;
  pin.budget_bytes = mem::mb(budget_mb);
  pin.nv = gw.n_valence();
  pin.nc = gw.n_bands() - gw.n_valence();
  pin.ng = gw.n_g();
  pin.ncols = gw.n_g();
  pin.nfreq = nfreq;
  pin.threads = xgw_num_threads();
  pin.fixed_bytes = mem::tracker().current_bytes();
  return mem::plan(pin);
}

/// Apply the budget to a job that runs CHI_SUM through GwCalculation (the
/// planner's nv_block changes results only at roundoff level, so this
/// shapes memory, not physics).
void apply_budget(const InputFile& in, GwCalculation& gw, idx nfreq,
                  std::ostream& os) {
  const double budget_mb = resolve_budget_mb(in);
  if (budget_mb <= 0.0) return;
  const mem::MemPlan plan = plan_for(gw, budget_mb, nfreq);
  gw.set_nv_block(plan.nv_block);
  os << "mem_plan " << plan.describe() << "\n";
}

int job_bands(const InputFile& in, std::ostream& os) {
  const EpmModel model = build_material(in);
  const idx segs = in.get_int("band_segments", 12);
  const auto bands = band_path(model, fcc_lgx_path(), segs,
                               model.n_valence_bands() + 4,
                               in.get_double("psi_cutoff", -1.0));
  os << "# k_path";
  for (idx b = 0; b < model.n_valence_bands() + 4; ++b) os << " band" << b;
  os << "\n" << std::fixed << std::setprecision(4);
  for (const BandsAtK& bk : bands) {
    os << bk.path_length;
    for (double e : bk.energy) os << " " << e * kHartreeToEv;
    os << "\n";
  }
  const GapInfo g = path_gaps(bands, model.n_valence_bands());
  os << "indirect_gap_eV " << g.indirect * kHartreeToEv << "\n"
     << "direct_gap_eV " << g.direct * kHartreeToEv << "\n";
  return 0;
}

int job_epsilon(const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(in), build_params(in));
  if (in.has("input_wfn"))
    gw.set_wavefunctions(read_wavefunctions(in.require_string("input_wfn")));
  maybe_compress(in, gw);
  print_header(os, gw);
  apply_budget(in, gw, in.has("n_freq") ? in.get_int("n_freq", 8) : 1, os);
  os << std::fixed << std::setprecision(6);
  os << "epsinv_head " << gw.epsinv0()(0, 0).real() << "\n";
  if (in.has("n_freq")) {
    // Imaginary-axis frequency sweep with restart: an interrupted job
    // rerun with the same input resumes where it stopped.
    const QuadratureRule rule =
        gauss_legendre_semi_infinite(in.get_int("n_freq", 8), 1.0);
    ChiOptions copt;
    copt.eta = gw.params().eta;
    copt.nv_block = gw.params().nv_block;
    copt.imaginary_axis = true;
    const auto epsinv = epsilon_inverse_multi(
        gw.mtxel(), gw.wavefunctions(), gw.coulomb(),
        std::span<const double>(rule.nodes), copt,
        in.get_string("checkpoint", ""));
    for (std::size_t k = 0; k < epsinv.size(); ++k)
      os << "epsinv_head(i*" << rule.nodes[k] << ") "
         << epsinv[k](0, 0).real() << "\n";
  }
  if (in.has("output_wfn"))
    write_wavefunctions(in.require_string("output_wfn"), gw.wavefunctions());
  if (in.has("output_epsmat"))
    write_matrix(in.require_string("output_epsmat"), gw.epsinv0());
  os << gw.timers().report();
  return 0;
}

/// Space-time (minimax i tau / i omega) route for job `sigma`, selected
/// with `sigma_method space_time`. The memory budget goes to StOptions
/// (build_st_screening runs its own planner pass) instead of apply_budget.
int run_sigma_st(const InputFile& in, GwCalculation& gw, std::ostream& os) {
  StOptions so;
  so.n_tau = in.get_int("n_tau", 14);
  so.eta = gw.params().eta;
  so.chi.nv_block = gw.params().nv_block;
  so.memory_budget_mb = resolve_budget_mb(in);
  so.spill_dir = in.get_string("spill_dir", "xgw_spill");
  if (in.has("n_tau")) os << "n_tau " << so.n_tau << "\n";
  const StScreening scr = build_st_screening(gw, so);
  if (scr.wtau.spilling())
    os << "mem_spill resident_mb "
       << static_cast<double>(scr.wtau.pool()->budget_bytes()) /
              (1024.0 * 1024.0)
       << "\n";
  const auto res = sigma_st_diag(gw, scr, sigma_bands(in, gw), so);
  // Deterministic counters (exact-gated by bench_spacetime / CI smoke).
  os << "st_grid_n_tau " << scr.n_tau << "\n"
     << "st_tau_batches " << scr.tau_batches << "\n";
  os << std::fixed << std::setprecision(4);
  os << "band   E_MF(eV)   SigX(eV)   SigC(eV)   Z      E_QP(eV)\n";
  for (const StResult& r : res)
    os << r.band << "  " << r.e_mf * kHartreeToEv << "  "
       << r.sigma_x.real() * kHartreeToEv << "  "
       << r.sigma_c.real() * kHartreeToEv << "  " << r.z << "  "
       << r.e_qp * kHartreeToEv << "\n";
  os << gw.timers().report();
  return 0;
}

int job_sigma(const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(in), build_params(in));
  if (in.has("input_wfn"))
    gw.set_wavefunctions(read_wavefunctions(in.require_string("input_wfn")));
  maybe_compress(in, gw);
  print_header(os, gw);
  const std::string method = in.get_string("sigma_method", "gpp");
  XGW_REQUIRE(method == "gpp" || method == "space_time",
              "unknown sigma_method '" + method + "'");
  if (in.has("sigma_method")) os << "sigma_method " << method << "\n";
  if (method == "space_time") return run_sigma_st(in, gw, os);
  apply_budget(in, gw, 1, os);
  const auto qp = gw.sigma_diag(
      sigma_bands(in, gw), in.get_int("n_e_points", 3),
      in.get_double("e_step", 0.02), GppKernelVariant::kOptimized, nullptr,
      in.get_string("checkpoint", ""));
  os << std::fixed << std::setprecision(4);
  os << "band   E_MF(eV)   SX(eV)   CH(eV)   Z      E_QP(eV)\n";
  for (const QpResult& r : qp)
    os << r.band << "  " << r.e_mf * kHartreeToEv << "  "
       << r.sigma.sx.real() * kHartreeToEv << "  "
       << r.sigma.ch.real() * kHartreeToEv << "  " << r.z << "  "
       << r.e_qp * kHartreeToEv << "\n";
  os << gw.timers().report();
  return 0;
}

int job_sigma_offdiag(const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(in), build_params(in));
  maybe_compress(in, gw);
  print_header(os, gw);
  const std::vector<idx> bands = sigma_bands(in, gw);
  const auto e_full = gw.dyson_full_solve(bands, in.get_int("n_e_points", 12));
  os << std::fixed << std::setprecision(4);
  os << "full Dyson quasiparticle energies (eV):\n";
  for (double e : e_full) os << "  " << e * kHartreeToEv << "\n";
  return 0;
}

int job_ff(const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(in), build_params(in));
  maybe_compress(in, gw);
  print_header(os, gw);
  FfOptions fo;
  fo.n_freq = in.get_int("n_freq", 24);
  fo.subspace_fraction = in.get_double("subspace_fraction", 0.0);
  fo.chi.nv_block = in.get_int("nv_block", fo.chi.nv_block);
  fo.memory_budget_mb = resolve_budget_mb(in);
  fo.spill_dir = in.get_string("spill_dir", "xgw_spill");
  const FfScreening scr = build_ff_screening(gw, fo);
  if (scr.bv.spilling())
    os << "mem_spill resident_mb "
       << static_cast<double>(scr.bv.pool()->budget_bytes()) /
              (1024.0 * 1024.0)
       << "\n";
  const auto res = sigma_ff_diag(gw, scr, sigma_bands(in, gw));
  os << std::fixed << std::setprecision(4);
  os << "band   E_MF(eV)   SigX(eV)   SigC(eV)   E_QP(eV)\n";
  for (const FfResult& r : res)
    os << r.band << "  " << r.e_mf * kHartreeToEv << "  "
       << r.sigma_x.real() * kHartreeToEv << "  "
       << r.sigma_c.real() * kHartreeToEv << "  " << r.e_qp * kHartreeToEv
       << "\n";
  return 0;
}

int job_cohsex(const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(in), build_params(in));
  print_header(os, gw);
  const auto res = cohsex_diag(gw, sigma_bands(in, gw));
  os << std::fixed << std::setprecision(4);
  os << "band   SEX(eV)   COH(eV)   total(eV)\n";
  const auto bands = sigma_bands(in, gw);
  for (std::size_t i = 0; i < res.size(); ++i)
    os << bands[i] << "  " << res[i].sex.real() * kHartreeToEv << "  "
       << res[i].coh.real() * kHartreeToEv << "  "
       << res[i].total().real() * kHartreeToEv << "\n";
  return 0;
}

int job_evgw(const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(in), build_params(in));
  print_header(os, gw);
  EvGwOptions opt;
  opt.max_iter = in.get_int("evgw_max_iter", 8);
  opt.mixing = in.get_double("evgw_mixing", 0.7);
  const EvGwResult res = evgw(gw, sigma_bands(in, gw), opt);
  os << std::fixed << std::setprecision(4);
  for (std::size_t it = 0; it < res.history.size(); ++it) {
    os << "iter " << it << ":";
    for (const QpResult& r : res.history[it])
      os << "  " << r.e_qp * kHartreeToEv;
    os << "\n";
  }
  os << (res.converged ? "converged" : "NOT converged") << " after "
     << res.iterations << " iterations\n";
  return res.converged ? 0 : 2;
}

int job_rpa(const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(in), build_params(in));
  print_header(os, gw);
  RpaOptions opt;
  opt.n_freq = in.get_int("rpa_n_freq", 16);
  opt.subspace_fraction = in.get_double("subspace_fraction", 0.0);
  const RpaResult res = rpa_correlation_energy(gw, opt);
  os << std::setprecision(8);
  os << "E_c_RPA_Ha " << res.e_c << "\n";
  os << "E_c_RPA_eV " << res.e_c * kHartreeToEv << "\n";
  if (res.n_eig_used > 0) os << "subspace_n_eig " << res.n_eig_used << "\n";
  return 0;
}

int job_bse(const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(in), build_params(in));
  print_header(os, gw);
  BseOptions opt;
  opt.n_val = in.get_int("bse_nval", 3);
  opt.n_cond = in.get_int("bse_ncond", 3);
  opt.scissors = in.get_double("scissors", 0.0);
  BseCalculation bse(gw, opt);
  const BseResult res = bse.solve();
  const double qp_gap = gw.wavefunctions().gap() + opt.scissors;
  os << std::fixed << std::setprecision(4);
  os << "qp_gap_eV " << qp_gap * kHartreeToEv << "\n";
  for (int s = 0; s < std::min<idx>(6, res.n_pairs()); ++s)
    os << "exciton " << s << " "
       << res.energy[static_cast<std::size_t>(s)] * kHartreeToEv
       << " eV (binding "
       << (qp_gap - res.energy[static_cast<std::size_t>(s)]) * kHartreeToEv *
              1e3
       << " meV)\n";
  return 0;
}

int job_gwpt(const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(in), build_params(in));
  print_header(os, gw);
  const std::vector<idx> bands = sigma_bands(in, gw);
  GwptOptions go;
  go.n_e_points = in.get_int("n_e_points", 2);
  GwptCalculation gwpt(gw, go);
  os << std::fixed << std::setprecision(4);
  const idx natoms = gw.hamiltonian().model().crystal().n_atoms();
  for (idx a = 0; a < natoms; ++a)
    for (int ax = 0; ax < 3; ++ax) {
      const GwptResult r = gwpt.run_perturbation({a, ax}, bands);
      double gd = 0.0, gg = 0.0;
      for (idx i = 0; i < r.g_dfpt.rows(); ++i)
        for (idx j = 0; j < r.g_dfpt.cols(); ++j)
          if (i != j && std::abs(r.g_dfpt(i, j)) > gd) {
            gd = std::abs(r.g_dfpt(i, j));
            gg = std::abs(r.g_gw(i, j));
          }
      os << "atom " << a << " axis " << ax << "  |g_DFPT| "
         << gd * kHartreeToEv << " eV/Bohr  |g_GW| " << gg * kHartreeToEv
         << " eV/Bohr\n";
    }
  return 0;
}

int job_phonons(const InputFile& in, std::ostream& os) {
  const EpmModel model = build_material(in);
  const double cutoff = in.get_double("psi_cutoff", model.default_cutoff());
  const DMatrix phi = force_constants(model, cutoff);
  const PhononModes modes = phonon_modes(model, phi);
  os << std::fixed << std::setprecision(3);
  os << "Gamma phonon modes (meV):\n";
  for (idx nu = 0; nu < modes.n_modes(); ++nu)
    os << "  mode " << nu << "  "
       << modes.omega[static_cast<std::size_t>(nu)] * kHartreeToEv * 1e3
       << (std::abs(modes.omega[static_cast<std::size_t>(nu)]) < 2e-4
               ? "  (acoustic)\n"
               : "\n");
  return 0;
}

int dispatch_job(const std::string& job, const InputFile& in,
                 std::ostream& os) {
  if (job == "bands") return job_bands(in, os);
  if (job == "epsilon") return job_epsilon(in, os);
  if (job == "sigma") return job_sigma(in, os);
  if (job == "sigma_offdiag") return job_sigma_offdiag(in, os);
  if (job == "ff") return job_ff(in, os);
  if (job == "cohsex") return job_cohsex(in, os);
  if (job == "evgw") return job_evgw(in, os);
  if (job == "rpa") return job_rpa(in, os);
  if (job == "bse") return job_bse(in, os);
  if (job == "gwpt") return job_gwpt(in, os);
  if (job == "phonons") return job_phonons(in, os);
  XGW_REQUIRE(false, "unknown job '" + job + "'");
  return 1;
}

/// Canonical text form of the parsed input (sorted keys) — what the run
/// report's config hash is computed over, so two inputs that parse to the
/// same configuration hash identically regardless of formatting.
std::string canonical_config(const InputFile& in) {
  std::string cfg;
  for (const auto& [k, v] : in.entries()) {
    cfg += k;
    cfg += ' ';
    cfg += v;
    cfg += '\n';
  }
  return cfg;
}

}  // namespace

EpmModel build_material_from_input(const InputFile& in) {
  return build_material(in);
}

GwParameters build_params_from_input(const InputFile& in) {
  return build_params(in);
}

double resolve_memory_budget_mb(const InputFile& in) {
  return resolve_budget_mb(in);
}

std::vector<std::string> read_job_manifest(const std::string& path) {
  std::ifstream is(path);
  XGW_REQUIRE(is.good(), "cannot open manifest '" + path + "'");
  const std::filesystem::path base = std::filesystem::path(path).parent_path();
  std::vector<std::string> paths;
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const std::size_t e = line.find_last_not_of(" \t\r");
    std::filesystem::path p(line.substr(b, e - b + 1));
    if (p.is_relative()) p = base / p;
    paths.push_back(p.string());
  }
  XGW_REQUIRE(!paths.empty(), "manifest '" + path + "' lists no input files");
  return paths;
}

int run_job_files(const std::vector<std::string>& paths, std::ostream& os) {
  XGW_REQUIRE(!paths.empty(), "run_job_files: no input files");
  int worst = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    os << "=== job " << i + 1 << "/" << paths.size() << " " << paths[i]
       << " ===\n";
    int rc = 0;
    std::string err;
    try {
      rc = run_job(InputFile::load(paths[i], known_input_keys()), os);
    } catch (const Error& e) {
      rc = 1;
      err = e.what();
    }
    os << "job " << i + 1 << "/" << paths.size() << " " << paths[i] << " rc "
       << rc;
    if (!err.empty()) os << " error " << err;
    os << "\n";
    worst = std::max(worst, rc);
  }
  return worst;
}

int run_job(const InputFile& in, std::ostream& os) {
  const std::string job = in.require_string("job");

  // Only the GPP Sigma band loop and the imaginary-axis epsilon sweep keep
  // restart files; anywhere else a `checkpoint` key would be silently
  // ignored and the user would learn it only after a kill.
  if (in.has("checkpoint")) {
    const std::string method = in.get_string("sigma_method", "gpp");
    const bool restarts = (job == "sigma" && method == "gpp") ||
                          (job == "epsilon" && in.has("n_freq"));
    XGW_REQUIRE_KIND(
        restarts,
        "input key 'checkpoint' has no effect for job '" + job + "'" +
            (job == "sigma" ? " with sigma_method " + method : "") +
            ": only job sigma with sigma_method gpp and job epsilon with "
            "n_freq write restart files",
        ErrorKind::kValidation);
  }

  // Robustness knobs. Each is assigned unconditionally from
  // input-or-default so one run never inherits the previous run's modes
  // (run_job is re-entered in-process by tests and batch drivers).
  set_validate_mode(parse_validate_mode(in.get_string("validate", "error")));
  {
    io::IoRetryPolicy rp;  // defaults = seed behavior (retries disabled)
    rp.max_attempts = static_cast<int>(
        in.get_int("io_retry_attempts", rp.max_attempts));
    XGW_REQUIRE(rp.max_attempts >= 1, "io_retry_attempts must be >= 1");
    rp.backoff_base_s =
        in.get_double("io_retry_backoff_ms", rp.backoff_base_s * 1e3) * 1e-3;
    XGW_REQUIRE(rp.backoff_base_s >= 0.0,
                "io_retry_backoff_ms must be >= 0");
    io::set_io_retry_policy(rp);
    if (in.has("io_retry_attempts") || in.has("io_retry_backoff_ms"))
      os << "io_retry attempts " << rp.max_attempts << " backoff_ms "
         << rp.backoff_base_s * 1e3 << "\n";
  }
  mem::set_spill_verify(
      mem::parse_spill_verify(in.get_string("spill_verify", "size")));
  {
    // 0 = fall back to XGW_SCHED_WORKERS / serial; results are bitwise
    // identical at any worker count, so this is a speed knob, not physics.
    const idx workers = in.get_int("sched_workers", 0);
    XGW_REQUIRE(workers >= 0, "sched_workers must be >= 0");
    sched::Executor::set_default_workers(static_cast<int>(workers));
    if (in.has("sched_workers"))
      os << "sched_workers " << sched::Executor::default_workers() << "\n";
  }
  if (in.has("validate"))
    os << "validate_mode " << to_string(validate_mode()) << "\n";
  if (in.has("spill_verify"))
    os << "spill_verify " << mem::to_string(mem::spill_verify()) << "\n";

  const std::string trace_path = in.get_string("trace", "");
  const std::string metrics_path = in.get_string("metrics", "");
  const std::string report_path = in.get_string("run_report", "");
  const bool observe = !trace_path.empty() || !report_path.empty();
  if (observe) {
    const idx detail = in.get_int("trace_detail", obs::detail_level::kKernel);
    XGW_REQUIRE(detail >= obs::detail_level::kStage &&
                    detail <= obs::detail_level::kFine,
                "trace_detail must be 1 (stage), 2 (kernel) or 3 (fine)");
    obs::recorder().enable(static_cast<int>(detail));
  }

  int rc;
  {
    const std::string stage = "job:" + job;
    obs::Span span(stage.c_str(), "stage", obs::detail_level::kStage);
    rc = dispatch_job(job, in, os);
  }

  if (observe) {
    obs::recorder().disable();
    os << obs::recorder().breakdown();
  }
  if (!trace_path.empty()) {
    XGW_REQUIRE(obs::recorder().write_chrome_trace(trace_path),
                "run_job: cannot write trace to " + trace_path);
    os << "trace_written " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    obs::record_mem_gauges();
    XGW_REQUIRE(obs::metrics().write_json(metrics_path),
                "run_job: cannot write metrics to " + metrics_path);
    os << "metrics_written " << metrics_path << "\n";
  }
  if (!report_path.empty()) {
    double peak = in.get_double("peak_gflops", 0.0);
    const double bw = in.get_double("mem_gbps", 0.0);
    // No nominal peak in the job file: fall back to the MEASURED FMA peak
    // from the autotune probe so report efficiencies are relative to what
    // this machine can actually execute, not a datasheet number.
    if (peak <= 0.0) peak = la::autotune_result().fma_peak_gflops;
    obs::RunReportDoc doc = obs::build_run_report(
        obs::recorder(), job, canonical_config(in), peak, bw);
    if (peak > 0.0 && bw > 0.0) {
      // Stamp the packed split-GEMM engine ceiling (K = one KC block with
      // the default panel reuse) next to the measured stage rates.
      const KernelRoofline kr =
          split_gemm_roofline(peak * 1e9, bw * 1e9, gemm_tiling().kc);
      doc.split_gemm_roofline_gflops = kr.attainable_flops / 1e9;
    }
    XGW_REQUIRE(doc.write(report_path),
                "run_job: cannot write run report to " + report_path);
    os << "run_report_written " << report_path << "\n";
  }
  return rc;
}

}  // namespace xgw
