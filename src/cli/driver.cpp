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

namespace {

// Table order is the order `xgw_run --help` lists the keys in.
constexpr InputKey kInputKeys[] = {
    {"job", KeyRole::kKeyed},
    {"material", KeyRole::kKeyed},
    {"supercell", KeyRole::kKeyed},
    {"vacancy", KeyRole::kKeyed},
    {"psi_cutoff", KeyRole::kKeyed},
    {"eps_cutoff", KeyRole::kKeyed},
    {"coulomb", KeyRole::kKeyed},
    {"n_bands", KeyRole::kKeyed},
    {"eta", KeyRole::kKeyed},
    {"nv_block", KeyRole::kKeyed},
    {"sigma_bands", KeyRole::kKeyed},
    {"n_e_points", KeyRole::kKeyed},
    {"e_step", KeyRole::kKeyed},
    {"n_freq", KeyRole::kKeyed},
    {"subspace_fraction", KeyRole::kDriverOnly},
    {"pseudobands", KeyRole::kKeyed},
    {"pseudobands_nxi", KeyRole::kKeyed},
    {"scissors", KeyRole::kDriverOnly},
    {"bse_nval", KeyRole::kDriverOnly},
    {"bse_ncond", KeyRole::kDriverOnly},
    {"output_wfn", KeyRole::kDriverOnly},
    {"input_wfn", KeyRole::kDriverOnly},
    {"output_epsmat", KeyRole::kDriverOnly},
    {"evgw_max_iter", KeyRole::kDriverOnly},
    {"evgw_mixing", KeyRole::kDriverOnly},
    {"rpa_n_freq", KeyRole::kDriverOnly},
    {"band_segments", KeyRole::kDriverOnly},
    {"vacuum", KeyRole::kKeyed},
    {"checkpoint", KeyRole::kRuntime},
    {"trace", KeyRole::kRuntime},
    {"trace_detail", KeyRole::kRuntime},
    {"metrics", KeyRole::kRuntime},
    {"run_report", KeyRole::kRuntime},
    {"peak_gflops", KeyRole::kRuntime},
    {"mem_gbps", KeyRole::kRuntime},
    {"memory_budget_mb", KeyRole::kRuntime},
    {"memory_budget_machine", KeyRole::kRuntime},
    {"spill_dir", KeyRole::kRuntime},
    {"validate", KeyRole::kRuntime},
    {"io_retry_attempts", KeyRole::kRuntime},
    {"io_retry_backoff_ms", KeyRole::kRuntime},
    {"spill_verify", KeyRole::kRuntime},
    {"sched_workers", KeyRole::kRuntime},
    {"sigma_method", KeyRole::kKeyed},
    {"n_tau", KeyRole::kKeyed},
};

}  // namespace

std::span<const InputKey> input_keys() { return kInputKeys; }

const std::vector<std::string>& known_input_keys() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const InputKey& k : kInputKeys) v.emplace_back(k.name);
    return v;
  }();
  return names;
}

namespace {

constexpr std::pair<const char*, CoulombScheme> kCoulombNames[] = {
    {"spherical_average", CoulombScheme::kSphericalAverage},
    {"spherical_truncate", CoulombScheme::kSphericalTruncate},
    {"slab", CoulombScheme::kSlabTruncate},
    {"exclude_head", CoulombScheme::kExcludeHead},
};

CoulombScheme parse_coulomb(const std::string& name) {
  for (const auto& [n, scheme] : kCoulombNames)
    if (name == n) return scheme;
  XGW_REQUIRE(false, "unknown coulomb scheme '" + name + "'");
  return CoulombScheme::kSphericalAverage;
}

}  // namespace

const char* coulomb_name(CoulombScheme s) {
  for (const auto& [n, scheme] : kCoulombNames)
    if (s == scheme) return n;
  return "?";
}

JobInput read_job_input(const InputFile& in) {
  JobInput j{};
  j.job = in.require_string("job");
  j.material = in.require_string("material");
  j.supercell = in.get_int("supercell", 1);
  if (in.has("vacancy")) j.vacancy = in.get_int("vacancy", 0);
  j.vacuum = in.get_double("vacuum", 16.0);

  GwParameters& p = j.params;
  p.psi_cutoff = in.get_double("psi_cutoff", p.psi_cutoff);
  p.eps_cutoff = in.get_double("eps_cutoff", p.eps_cutoff);
  p.n_bands = in.get_int("n_bands", p.n_bands);
  p.eta = in.get_double("eta", p.eta);
  p.nv_block = in.get_int("nv_block", p.nv_block);
  if (in.has("coulomb")) p.coulomb = parse_coulomb(in.require_string("coulomb"));

  j.pseudobands = in.get_bool("pseudobands", false);
  j.pseudobands_options.n_xi =
      in.get_int("pseudobands_nxi", j.pseudobands_options.n_xi);

  j.sigma_method = in.get_string("sigma_method", "gpp");
  XGW_REQUIRE_KIND(j.sigma_method == "gpp" || j.sigma_method == "space_time",
                   "unknown sigma_method '" + j.sigma_method + "'",
                   ErrorKind::kValidation);
  j.n_tau = in.get_int("n_tau", StOptions{}.n_tau);
  const idx n_e_default = j.job == "sigma_offdiag" ? 12
                          : j.job == "gwpt" ? GwptOptions{}.n_e_points
                                            : 3;
  j.n_e_points = in.get_int("n_e_points", n_e_default);
  j.e_step = in.get_double("e_step", 0.02);
  j.sigma_bands = in.get_int_list("sigma_bands");
  j.n_freq = in.get_int("n_freq", j.job == "ff" ? FfOptions{}.n_freq : 0);
  XGW_REQUIRE(j.n_freq >= 0, "input key 'n_freq' must be >= 0");
  j.ff_eta = in.get_double("eta", FfOptions{}.eta);

  // `memory_budget_mb` wins; otherwise `memory_budget_machine` uses the
  // named platform's per-GPU HBM capacity.
  j.memory_budget_mb = in.get_double("memory_budget_mb", 0.0);
  if (j.memory_budget_mb <= 0.0 && in.has("memory_budget_machine"))
    j.memory_budget_mb =
        machine_by_name(in.require_string("memory_budget_machine"))
            .hbm_per_gpu /
        (1024.0 * 1024.0);
  return j;
}

EpmModel build_material(const JobInput& in) {
  const std::string& name = in.material;
  const idx n = in.supercell;
  EpmModel model = [&] {
    if (name == "silicon" || name == "si") return EpmModel::silicon(n);
    if (name == "lih") return EpmModel::lih(n);
    if (name == "bn") return EpmModel::bn(n);
    if (name == "bn_monolayer") return EpmModel::bn_monolayer(n, in.vacuum);
    XGW_REQUIRE(false, "unknown material '" + name + "'");
    return EpmModel::silicon(1);
  }();
  if (in.vacancy) model = model.with_vacancy(*in.vacancy);
  return model;
}

namespace {

std::vector<idx> sigma_bands(const JobInput& ji, const GwCalculation& gw) {
  if (!ji.sigma_bands.empty()) return ji.sigma_bands;
  return {gw.n_valence() - 1, gw.n_valence()};
}

void maybe_compress(const JobInput& ji, GwCalculation& gw) {
  if (!ji.pseudobands) return;
  gw.set_wavefunctions(
      build_pseudobands(gw.wavefunctions(), ji.pseudobands_options));
}

void print_header(std::ostream& os, const GwCalculation& gw) {
  os << "system: N_G^psi = " << gw.n_g_psi() << ", N_G = " << gw.n_g()
     << ", N_b = " << gw.n_bands() << ", N_v = " << gw.n_valence() << "\n";
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
void apply_budget(const JobInput& ji, GwCalculation& gw, idx nfreq,
                  std::ostream& os) {
  if (ji.memory_budget_mb <= 0.0) return;
  const mem::MemPlan plan = plan_for(gw, ji.memory_budget_mb, nfreq);
  gw.set_nv_block(plan.nv_block);
  os << "mem_plan " << plan.describe() << "\n";
}

int job_bands(const JobInput& ji, const InputFile& in, std::ostream& os) {
  const EpmModel model = build_material(ji);
  const idx segs = in.get_int("band_segments", 12);
  const auto bands = band_path(model, fcc_lgx_path(), segs,
                               model.n_valence_bands() + 4,
                               ji.params.psi_cutoff);
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

int job_epsilon(const JobInput& ji, const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(ji), ji.params);
  if (in.has("input_wfn"))
    gw.set_wavefunctions(read_wavefunctions(in.require_string("input_wfn")));
  maybe_compress(ji, gw);
  print_header(os, gw);
  apply_budget(ji, gw, std::max<idx>(ji.n_freq, 1), os);
  os << std::fixed << std::setprecision(6);
  os << "epsinv_head " << gw.epsinv0()(0, 0).real() << "\n";
  if (ji.n_freq > 0) {
    // Imaginary-axis frequency sweep with restart: an interrupted job
    // rerun with the same input resumes where it stopped.
    const QuadratureRule rule = gauss_legendre_semi_infinite(ji.n_freq, 1.0);
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
int run_sigma_st(const JobInput& ji, const InputFile& in, GwCalculation& gw,
                 std::ostream& os) {
  StOptions so;
  so.n_tau = ji.n_tau;
  so.eta = gw.params().eta;
  so.chi.nv_block = gw.params().nv_block;
  so.memory_budget_mb = ji.memory_budget_mb;
  so.spill_dir = in.get_string("spill_dir", so.spill_dir);
  if (in.has("n_tau")) os << "n_tau " << so.n_tau << "\n";
  const StScreening scr = build_st_screening(gw, so);
  if (scr.wtau.spilling())
    os << "mem_spill resident_mb "
       << static_cast<double>(scr.wtau.pool()->budget_bytes()) /
              (1024.0 * 1024.0)
       << "\n";
  const auto res = sigma_st_diag(gw, scr, sigma_bands(ji, gw), so);
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

int job_sigma(const JobInput& ji, const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(ji), ji.params);
  if (in.has("input_wfn"))
    gw.set_wavefunctions(read_wavefunctions(in.require_string("input_wfn")));
  maybe_compress(ji, gw);
  print_header(os, gw);
  if (in.has("sigma_method")) os << "sigma_method " << ji.sigma_method << "\n";
  if (ji.sigma_method == "space_time") return run_sigma_st(ji, in, gw, os);
  apply_budget(ji, gw, 1, os);
  const auto qp = gw.sigma_diag(sigma_bands(ji, gw), ji.n_e_points, ji.e_step,
                                GppKernelVariant::kOptimized, nullptr,
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

int job_sigma_offdiag(const JobInput& ji, const InputFile&, std::ostream& os) {
  GwCalculation gw(build_material(ji), ji.params);
  maybe_compress(ji, gw);
  print_header(os, gw);
  const auto e_full = gw.dyson_full_solve(sigma_bands(ji, gw), ji.n_e_points);
  os << std::fixed << std::setprecision(4);
  os << "full Dyson quasiparticle energies (eV):\n";
  for (double e : e_full) os << "  " << e * kHartreeToEv << "\n";
  return 0;
}

int job_ff(const JobInput& ji, const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(ji), ji.params);
  maybe_compress(ji, gw);
  print_header(os, gw);
  FfOptions fo;
  fo.n_freq = ji.n_freq;
  fo.eta = ji.ff_eta;
  fo.subspace_fraction = in.get_double("subspace_fraction", fo.subspace_fraction);
  fo.chi.nv_block = ji.params.nv_block;
  fo.memory_budget_mb = ji.memory_budget_mb;
  fo.spill_dir = in.get_string("spill_dir", fo.spill_dir);
  const FfScreening scr = build_ff_screening(gw, fo);
  if (scr.bv.spilling())
    os << "mem_spill resident_mb "
       << static_cast<double>(scr.bv.pool()->budget_bytes()) /
              (1024.0 * 1024.0)
       << "\n";
  const auto res = sigma_ff_diag(gw, scr, sigma_bands(ji, gw), ji.ff_eta);
  os << std::fixed << std::setprecision(4);
  os << "band   E_MF(eV)   SigX(eV)   SigC(eV)   E_QP(eV)\n";
  for (const FfResult& r : res)
    os << r.band << "  " << r.e_mf * kHartreeToEv << "  "
       << r.sigma_x.real() * kHartreeToEv << "  "
       << r.sigma_c.real() * kHartreeToEv << "  " << r.e_qp * kHartreeToEv
       << "\n";
  return 0;
}

int job_cohsex(const JobInput& ji, const InputFile&, std::ostream& os) {
  GwCalculation gw(build_material(ji), ji.params);
  print_header(os, gw);
  const auto bands = sigma_bands(ji, gw);
  const auto res = cohsex_diag(gw, bands);
  os << std::fixed << std::setprecision(4);
  os << "band   SEX(eV)   COH(eV)   total(eV)\n";
  for (std::size_t i = 0; i < res.size(); ++i)
    os << bands[i] << "  " << res[i].sex.real() * kHartreeToEv << "  "
       << res[i].coh.real() * kHartreeToEv << "  "
       << res[i].total().real() * kHartreeToEv << "\n";
  return 0;
}

int job_evgw(const JobInput& ji, const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(ji), ji.params);
  print_header(os, gw);
  EvGwOptions opt;
  opt.max_iter = in.get_int("evgw_max_iter", 8);
  opt.mixing = in.get_double("evgw_mixing", 0.7);
  const EvGwResult res = evgw(gw, sigma_bands(ji, gw), opt);
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

int job_rpa(const JobInput& ji, const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(ji), ji.params);
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

int job_bse(const JobInput& ji, const InputFile& in, std::ostream& os) {
  GwCalculation gw(build_material(ji), ji.params);
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

int job_gwpt(const JobInput& ji, const InputFile&, std::ostream& os) {
  GwCalculation gw(build_material(ji), ji.params);
  print_header(os, gw);
  const std::vector<idx> bands = sigma_bands(ji, gw);
  GwptOptions go;
  go.n_e_points = ji.n_e_points;
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

int job_phonons(const JobInput& ji, const InputFile&, std::ostream& os) {
  const EpmModel model = build_material(ji);
  // psi_cutoff <= 0 selects the model's default cutoff (PwHamiltonian).
  const DMatrix phi = force_constants(model, ji.params.psi_cutoff);
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

int dispatch_job(const JobInput& ji, const InputFile& in, std::ostream& os) {
  const std::string& job = ji.job;
  if (job == "bands") return job_bands(ji, in, os);
  if (job == "epsilon") return job_epsilon(ji, in, os);
  if (job == "sigma") return job_sigma(ji, in, os);
  if (job == "sigma_offdiag") return job_sigma_offdiag(ji, in, os);
  if (job == "ff") return job_ff(ji, in, os);
  if (job == "cohsex") return job_cohsex(ji, in, os);
  if (job == "evgw") return job_evgw(ji, in, os);
  if (job == "rpa") return job_rpa(ji, in, os);
  if (job == "bse") return job_bse(ji, in, os);
  if (job == "gwpt") return job_gwpt(ji, in, os);
  if (job == "phonons") return job_phonons(ji, in, os);
  XGW_REQUIRE(false, "unknown job '" + job + "'");
  return 1;
}

bool is_gpp_sigma(const JobInput& j) {
  return j.job == "sigma" && j.sigma_method == "gpp";
}

bool reads_memory_budget(const JobInput& j) {
  return j.job == "epsilon" || j.job == "sigma" || j.job == "ff";
}

/// A key that only some jobs read, and (for the error message) which.
struct JobScopedKey {
  const char* name;
  const char* readers;
  bool (*read_by)(const JobInput&);
};

constexpr JobScopedKey kJobScopedKeys[] = {
    {"checkpoint",
     "job sigma with sigma_method gpp and job epsilon with n_freq write "
     "restart files",
     [](const JobInput& j) {
       return is_gpp_sigma(j) || (j.job == "epsilon" && j.n_freq > 0);
     }},
    {"pseudobands", "jobs epsilon, sigma, sigma_offdiag and ff read it",
     [](const JobInput& j) {
       return j.job == "epsilon" || j.job == "sigma" ||
              j.job == "sigma_offdiag" || j.job == "ff";
     }},
    {"memory_budget_mb", "jobs epsilon, sigma and ff read it",
     &reads_memory_budget},
    {"memory_budget_machine", "jobs epsilon, sigma and ff read it",
     &reads_memory_budget},
    {"e_step", "job sigma with sigma_method gpp reads it", &is_gpp_sigma},
};

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
  const JobInput ji = read_job_input(in);
  const std::string& job = ji.job;

  // A key that only some jobs read is rejected by every other job before
  // any compute: the user would otherwise learn that it did nothing only
  // from the results (or, for `checkpoint`, after a kill).
  for (const JobScopedKey& k : kJobScopedKeys)
    XGW_REQUIRE_KIND(
        !in.has(k.name) || k.read_by(ji),
        std::string("input key '") + k.name + "' has no effect for job '" +
            job + "'" +
            (job == "sigma" ? " with sigma_method " + ji.sigma_method : "") +
            ": only " + k.readers,
        ErrorKind::kValidation);

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
    rc = dispatch_job(ji, in, os);
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
