// xgw_benchmark — runs the benchmark workloads; see benchmark/README.md.
//
//   xgw_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--write-reference PATH]
//
// Prints `<workload> <metric> <value> <unit> n=<samples>` per metric and,
// as the last line, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.

#include <omp.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "benchkit/machine.h"
#include "benchkit/stats.h"
#include "common/error.h"
#include "harness.h"
#include "la/autotune.h"
#include "la/simd.h"
#include "obs/json.h"
#include "obs/report.h"
#include "sched/executor.h"

namespace fs = std::filesystem;
namespace json = xgw::obs::json;

namespace xgwb {

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;  ///< empty: all four, in one process
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;  ///< 1 rep per workload, no 1-thread runs, 5 replays
  std::string write_reference;
};

int usage() {
  std::cerr << "usage: xgw_benchmark [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] "
               "[--write-reference PATH]\nworkloads:";
  for (const Workload& w : all_workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (a == "--smoke") {
      o.smoke = o.trace = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      o.workload = argv[++i];
      if (!find_workload(o.workload)) return false;
    } else if (a == "--seed") {
      const char* v = argv[++i];
      o.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (a == "--seconds") {
      const char* v = argv[++i];
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0.0)) return false;
    } else if (a == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (a == "--write-reference") {
      o.write_reference = argv[++i];
      o.smoke = o.trace = true;
    } else {
      return false;
    }
  }
  // The reference covers every workload; writing it from one would drop
  // the others.
  return o.write_reference.empty() || o.workload.empty();
}

/// T = min(nproc, 4): every timed process and the traced pass use it.
int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Result lines of a serve batch (band rows and epsilon heads): what a warm
/// replay must reproduce byte for byte.
std::string serve_result_lines(const std::string& out) {
  std::istringstream is(out);
  std::string lines;
  for (std::string l; std::getline(is, l);)
    if (l.rfind("band ", 0) == 0 || l.rfind("epsinv_head ", 0) == 0)
      lines += l + "\n";
  return lines;
}

struct Context {
  Options opt;
  int threads = 1;
  int nproc = 1;
  std::string out_root;
  const Reference* ref = nullptr;  ///< null while writing the reference
  std::string reference_text;      ///< --write-reference output
};

/// One workload's run: metrics, counts, problems and provenance.
struct WorkloadRun {
  std::vector<Metric> e2e, layers;
  std::vector<Metric> info;  ///< printed, not in the JSON line
  int attempted = 0, failed = 0;
  std::vector<std::string> problems;
  json::Value provenance = json::Value::make_object();
};

EnvOverrides env_for(int threads, const std::string& home) {
  const std::string t = std::to_string(threads);
  return {{"OMP_NUM_THREADS", t}, {"XGW_SCHED_WORKERS", t},
          {"XGW_NUM_THREADS", t}, {"HOME", home},
          {"XGW_AUTOTUNE_CACHE", ""}, {"XGW_AUTOTUNE", ""}};
}

json::Value timing_json(const xgw::bench::TimingStats& s) {
  json::Value v = json::Value::make_object();
  json::Value& samples = v.set("samples", json::Value::make_array());
  for (double x : s.samples) samples.push(json::Value::make_number(x));
  v.set("median_s", json::Value::make_number(s.median_s));
  v.set("mad_s", json::Value::make_number(s.mad_s));
  v.set("ci_lo_s", json::Value::make_number(s.ci_lo_s));
  v.set("ci_hi_s", json::Value::make_number(s.ci_hi_s));
  return v;
}

json::Value tile_json(const xgw::la::AutotuneResult& r) {
  json::Value v = json::Value::make_object();
  v.set("isa", json::Value::make_string(xgw::la::simd_isa_name(r.isa)));
  for (const auto& [k, x] :
       {std::pair<const char*, double>{"mr", r.mr}, {"nr", r.nr},
        {"mc", static_cast<double>(r.mc)}, {"kc", static_cast<double>(r.kc)},
        {"nc", static_cast<double>(r.nc)},
        {"fma_peak_gflops", r.fma_peak_gflops}})
    v.set(k, json::Value::make_number(x));
  return v;
}

/// Keeps `threads` cores busy for `seconds`. After the machine idles, the
/// next seconds of work run slow (a GPP job took 6.2 s after 40 s idle and
/// 4.8 s right after; a 20 ms priming job did not help, a 2 s spin did),
/// so no process is timed before the cores have been loaded.
void warm_up(int threads, double seconds) {
  const auto t0 = Clock::now();
#pragma omp parallel num_threads(threads)
  while (seconds_since(t0) < seconds) {
  }
}

class WorkloadRunner {
 public:
  WorkloadRunner(const Workload& w, Context& ctx) : w_(w), ctx_(ctx) {}

  WorkloadRun run() {
    const Options& o = ctx_.opt;
    dir_ = ctx_.out_root + "/runs/" + w_.name;
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    if (!o.smoke) warm_up(ctx_.threads, 2.0);
    const std::vector<double> setup = set_up(o.smoke ? 1 : 5);

    work_ = dir_ + "/work";
    home_ = work_ + "/home";
    fs::create_directories(home_ + "/.cache");
    inputs_ = write_inputs(w_, o.seed, work_);
    pin_autotune();

    if (w_.route == Route::kServe)
      timed_serve();
    else
      timed_jobs();

    add_timing(out_.e2e, "wall_s", wall_T_);
    add_timing(out_.e2e, "rerun_s", rerun_);
    out_.e2e.push_back({"peak_rss_mb",
                        static_cast<double>(max_rss_kb_) / 1024.0, "MB",
                        processes_});
    add_timing(out_.e2e, "setup_s", setup);
    if (rerun_.size() >= 100) {
      // The highest percentile with ten samples beyond it.
      std::vector<double> sorted = rerun_;
      std::sort(sorted.begin(), sorted.end());
      out_.info.push_back({"rerun_p90_s", sorted[(sorted.size() * 9 + 9) / 10 - 1],
                           "s", sorted.size()});
    }

    if (o.trace) {
      traced();
      if (!o.smoke) {
        const std::vector<double> serial{serial_baseline()};
        add_timing(out_.layers, "sched.wall_1t_s", serial);
        const double speedup = serial[0] / xgw::bench::median(wall_T_);
        out_.layers.push_back({"sched.speedup", speedup, "ratio", 1});
        out_.layers.push_back({"sched.efficiency", speedup / ctx_.threads,
                               "ratio", 1});
      }
    }
    provenance();
    return std::move(out_);
  }

 private:
  /// One set-up: write the inputs into a fresh directory and run the
  /// cold-start job there with an empty HOME, so every per-machine cache
  /// (today the GEMM autotune probe) is rebuilt. Median over `reps`.
  std::vector<double> set_up(int reps) {
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
      const std::string d = dir_ + "/setup" + std::to_string(i);
      fs::create_directories(d + "/home");
      const auto t0 = Clock::now();
      write_inputs(w_, ctx_.opt.seed, d);
      const ProcResult r =
          run_process({XGW_RUN_PATH, write_cold_start_input(d)},
                      env_for(ctx_.threads, d + "/home"), d, d + "/setup.out");
      times.push_back(seconds_since(t0));
      account(r, {}, "set-up " + std::to_string(i));
    }
    return times;
  }

  /// Autotune tiles vary between probes, so the timed processes dispatch
  /// one fixed tile: the ISA's static default, stamped with this run's
  /// measured FMA peak. Parent and change then run the same kernels.
  void pin_autotune() {
    const xgw::la::SimdIsa isa = xgw::la::detected_simd_isa();
    xgw::la::AutotuneResult probed;
    XGW_REQUIRE(xgw::la::load_autotune_cache(
                    dir_ + "/setup0/home/.cache/xgw_autotune.json", isa,
                    &probed),
                "benchmark: the cold start left no autotune cache");
    xgw::la::AutotuneResult pinned = xgw::la::default_autotune(isa);
    pinned.fma_peak_gflops = probed.fma_peak_gflops;
    pinned.best_gflops = probed.best_gflops;
    const std::string path = home_ + "/.cache/xgw_autotune.json";
    xgw::la::save_autotune_cache(path, pinned);
    // The traced pass runs in this process and resolves the tile once, from
    // the first workload's file (every workload pins the same tile).
    setenv("XGW_AUTOTUNE_CACHE", path.c_str(), 1);
    json::Value at = json::Value::make_object();
    at.set("probed", tile_json(probed));
    at.set("pinned", tile_json(pinned));
    out_.provenance.set("autotune", std::move(at));
  }

  /// Counts one process and checks its exit code plus any answer problems.
  bool account(const ProcResult& r, std::vector<std::string> problems,
               const std::string& what) {
    ++out_.attempted;
    ++processes_;
    max_rss_kb_ = std::max(max_rss_kb_, r.max_rss_kb);
    if (r.exit_code != 0)
      problems.push_back("exit code " + std::to_string(r.exit_code));
    for (const std::string& p : problems)
      out_.problems.push_back(std::string(w_.name) + " " + what + ": " + p);
    if (!problems.empty()) ++out_.failed;
    return problems.empty();
  }

  std::vector<std::string> check(const std::vector<Answer>& a) {
    std::vector<std::string> problems;
    if (ctx_.ref) ctx_.ref->check_answers(w_.name, a, problems);
    return problems;
  }

  /// Keeps going until the budget is spent and the minimum sample counts
  /// are met; never starts a process the budget cannot fit once they are.
  /// Traced runs take only the minimums: their time goes to the traced pass
  /// and the serial baseline, and the end-to-end numbers come from the
  /// untraced runs.
  bool want_more(Clock::time_point t0, double next_estimate, bool minimums_met) {
    if (!minimums_met) return true;
    if (ctx_.opt.trace) return false;
    return seconds_since(t0) + next_estimate <= ctx_.opt.seconds;
  }

  std::size_t min_samples(std::size_t n) const {
    return ctx_.opt.smoke ? 1 : n;
  }

  /// One xgw_run process in the work directory; returns its wall time.
  double job(int threads) {
    const std::string out =
        work_ + "/job" + std::to_string(processes_) + ".out";
    const ProcResult r = run_process({XGW_RUN_PATH, inputs_.job},
                                     env_for(threads, home_), work_, out);
    answers_ = parse_job_output(read_file(out));
    account(r, check(answers_), fs::path(out).filename().string());
    return r.wall_s;
  }

  /// One xgw_serve_run process against `store`.
  std::pair<ProcResult, std::string> batch(int threads,
                                           const std::string& store) {
    const std::string out =
        work_ + "/batch" + std::to_string(processes_) + ".out";
    const ProcResult r = run_process(
        {XGW_SERVE_RUN_PATH, "--store", store, "--workers",
         std::to_string(threads), inputs_.job},
        env_for(threads, home_), work_, out);
    return {r, read_file(out)};
  }

  /// A batch on a fresh empty store; returns its wall time, leaves the
  /// filled store in `store` and its result lines in `lines`.
  double cold_batch(int threads, std::string& store, std::string& lines) {
    store = work_ + "/store" + std::to_string(processes_);
    fs::remove_all(store);
    auto [r, text] = batch(threads, store);
    answers_ = parse_serve_output(text);
    account(r, check(answers_), "cold batch in " + store);
    lines = serve_result_lines(text);
    return r.wall_s;
  }

  /// GW workloads: xgw_run at T threads, every process in the same
  /// directory, so each one after the first resubmits the request where it
  /// was just answered (rerun_s; xgw_run keeps no results, so today that
  /// costs a full job).
  void timed_jobs() {
    const auto t0 = Clock::now();
    while (want_more(t0, wall_T_.empty() ? 0.0 : wall_T_.back(),
                     wall_T_.size() >= min_samples(3)))
      wall_T_.push_back(job(ctx_.threads));
    rerun_.assign(wall_T_.begin() + (wall_T_.size() > 1 ? 1 : 0),
                  wall_T_.end());
  }

  /// Serve: a cold batch on an empty store, then warm replays against it,
  /// each of which must reproduce the cold result lines byte for byte.
  void timed_serve() {
    const std::size_t replays = ctx_.opt.trace ? 5 : 50;
    const auto t0 = Clock::now();
    for (;;) {
      const double estimate =
          (wall_T_.empty() ? 0.0 : wall_T_.back()) +
          static_cast<double>(replays) * (rerun_.empty() ? 0.0 : rerun_.back());
      if (!want_more(t0, estimate, wall_T_.size() >= min_samples(2))) break;
      std::string store, lines;
      wall_T_.push_back(cold_batch(ctx_.threads, store, lines));
      for (std::size_t k = 0; k < replays; ++k) {
        auto [r, text] = batch(ctx_.threads, store);
        std::vector<std::string> problems;
        if (serve_result_lines(text) != lines)
          problems.push_back("warm replay differs from its cold pass");
        if (account(r, problems, "warm replay on " + store))
          rerun_.push_back(r.wall_s);
      }
    }
  }

  /// The plain serial baseline: the workload's request at one thread and
  /// one scheduler worker (traced runs only; it feeds sched.*).
  double serial_baseline() {
    if (w_.route != Route::kServe) return job(1);
    std::string store, lines;
    return cold_batch(1, store, lines);
  }

  void traced() {
    static int run_id = 0;
    const std::string scratch = dir_ + "/traced";
    fs::create_directories(scratch);
    TracedResult tr =
        traced_pass(w_, inputs_, scratch, ctx_.threads, ++run_id);
    ++out_.attempted;
    std::vector<std::string> problems = tr.problems;
    if (tr.answers.size() != answers_.size() ||
        !std::equal(tr.answers.begin(), tr.answers.end(), answers_.begin(),
                    [](const Answer& a, const Answer& b) {
                      return a.key == b.key && a.text == b.text;
                    }))
      problems.push_back("in-process answers differ from the subprocess's");
    if (ctx_.ref) ctx_.ref->check_counters(w_.name, tr.counters, problems);

    // The written trace must account for the traced wall exactly: the
    // top-level stage spans plus the unattributed remainder.
    json::Value doc;
    std::string err;
    XGW_REQUIRE(json::parse(tr.trace_json, doc, err), "benchmark: trace: " + err);
    double wall = 0.0, stages = 0.0, run = -1.0;
    for (const json::Value& s : doc.find("spans")->arr) {
      const double d = s.find("end_s")->number - s.find("start_s")->number;
      if (s.find("name")->str == "run" && s.find("parent")->number < 0) {
        wall = d;
        run = s.find("id")->number;
      } else if (s.find("parent")->number == run) {
        stages += d;
      }
    }
    const double unattributed = tr.wall_s - tr.stage_sum_s;
    if (std::abs(stages + unattributed - wall) > 1e-9 * wall)
      problems.push_back("stage spans + trace.unattributed_s != trace.wall_s");
    if (!problems.empty()) ++out_.failed;
    for (const std::string& p : problems)
      out_.problems.push_back(std::string(w_.name) + " traced pass: " + p);

    std::cout << w_.name << " # " << tr.separation << "\n";
    out_.layers = tr.layers;
    out_.layers.push_back({"trace.overhead_frac",
                           tr.wall_s / xgw::bench::median(wall_T_) - 1.0,
                           "ratio", wall_T_.size()});
    const std::string path = ctx_.out_root + "/results/trace-" + w_.name +
                             "-seed" + std::to_string(ctx_.opt.seed) + ".json";
    std::ofstream(path) << tr.trace_json;
    if (!ctx_.opt.write_reference.empty())
      ctx_.reference_text += Reference::format(w_.name, answers_, tr.counters);
  }

  void add_timing(std::vector<Metric>& into, const char* name,
                  const std::vector<double>& samples) {
    const xgw::bench::TimingStats s = xgw::bench::summarize(samples);
    into.push_back({name, s.median_s, "s", samples.size()});
    timings_.set(name, timing_json(s));
  }

  void provenance() {
    json::Value& p = out_.provenance;
    json::Value& files = p.set("input_fnv1a", json::Value::make_object());
    for (const std::string& f : inputs_.files)
      files.set(fs::path(f).filename().string(),
                json::Value::make_string(xgw::obs::fnv1a_hex(read_file(f))));
    p.set("timings", std::move(timings_));
    json::Value& probs = p.set("problems", json::Value::make_array());
    for (const std::string& s : out_.problems)
      probs.push(json::Value::make_string(s));
  }

  const Workload& w_;
  Context& ctx_;
  WorkloadRun out_;
  std::string dir_, work_, home_;
  Inputs inputs_;
  std::vector<Answer> answers_;  ///< last subprocess answers
  std::vector<double> wall_T_, rerun_;
  long max_rss_kb_ = 0;
  std::size_t processes_ = 0;
  json::Value timings_ = json::Value::make_object();
};

void print_metrics(const std::string& workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::cout << workload << " " << m.name << " "
              << json::format_number(m.value) << " " << m.unit
              << " n=" << m.n << "\n";
}

json::Value machine_json(const Context& ctx) {
  const xgw::bench::MachineInfo& m = xgw::bench::machine_info();
  json::Value v = json::Value::make_object();
  v.set("git_sha", json::Value::make_string(m.git_sha));
  v.set("host", json::Value::make_string(m.host));
  v.set("cpu_model", json::Value::make_string(m.cpu_model));
  v.set("nproc", json::Value::make_number(ctx.nproc));
  v.set("threads", json::Value::make_number(ctx.threads));
  v.set("compiler", json::Value::make_string(m.compiler));
  v.set("build_type", json::Value::make_string(m.build_type));
  v.set("flags", json::Value::make_string(m.flags));
  v.set("seed", json::Value::make_number(static_cast<double>(ctx.opt.seed)));
  return v;
}

int run(const Options& opt) {
  Context ctx;
  ctx.opt = opt;
  ctx.nproc = cpus_available();
  ctx.threads = std::min(ctx.nproc, 4);
  ctx.out_root = XGW_BENCH_OUT_DIR;
  fs::create_directories(ctx.out_root + "/results");
  Reference ref;
  if (opt.write_reference.empty()) {
    ref = Reference::load(XGW_BENCH_REFERENCE);
    ctx.ref = &ref;
  }

  // The traced pass runs in this process at T threads and T workers.
  setenv("XGW_NUM_THREADS", std::to_string(ctx.threads).c_str(), 1);
  unsetenv("XGW_AUTOTUNE");
  omp_set_num_threads(ctx.threads);
  xgw::sched::Executor::set_default_workers(ctx.threads);

  std::vector<const Workload*> todo;
  if (!opt.workload.empty())
    todo.push_back(find_workload(opt.workload));
  else
    for (const Workload& w : all_workloads()) todo.push_back(&w);

  json::Value results = json::Value::make_object();
  results.set("schema", json::Value::make_string("xgw-benchmark-v1"));
  results.set("machine", machine_json(ctx));
  json::Value& per = results.set("workloads", json::Value::make_object());
  json::Value metrics = json::Value::make_object();
  int attempted = 0, failed = 0;
  bool correct = true;
  for (const Workload* w : todo) {
    WorkloadRun r = WorkloadRunner(*w, ctx).run();
    print_metrics(w->name, r.e2e);
    print_metrics(w->name, r.info);
    print_metrics(w->name, r.layers);
    for (const std::string& p : r.problems) std::cout << "FAILED " << p << "\n";
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && r.problems.empty();
    std::cout << w->name << " ops_failed_frac "
              << json::format_number(static_cast<double>(r.failed) / r.attempted)
              << " ratio n=" << r.attempted << "\n";
    for (const Metric& m : opt.trace ? r.layers : r.e2e) {
      json::Value v = json::Value::make_object();
      v.set("value", json::Value::make_number(m.value));
      v.set("unit", json::Value::make_string(m.unit));
      metrics.set(todo.size() == 1 ? m.name : std::string(w->name) + "." + m.name,
                  std::move(v));
    }
    json::Value& pw = per.set(w->name, std::move(r.provenance));
    json::Value& lines = pw.set("metrics", json::Value::make_array());
    for (const std::vector<Metric>* ms : {&r.e2e, &r.info, &r.layers})
      for (const Metric& m : *ms) {
        json::Value v = json::Value::make_object();
        v.set("name", json::Value::make_string(m.name));
        v.set("value", json::Value::make_number(m.value));
        v.set("unit", json::Value::make_string(m.unit));
        v.set("n", json::Value::make_number(static_cast<double>(m.n)));
        lines.push(std::move(v));
      }
  }
  const std::string tag = opt.workload.empty() ? "all" : opt.workload;
  std::ofstream(ctx.out_root + "/results/results-" + tag + "-seed" +
                std::to_string(opt.seed) + ".json")
      << json::dump(results, 1) << "\n";
  if (!opt.write_reference.empty()) {
    std::ofstream os(opt.write_reference);
    os << "# Reference answers and exact counters of the Si16 workloads "
          "(xgw_benchmark --write-reference).\n"
          "# <workload> band <b> <E_QP eV> | head <label> <eps^-1 head> | "
          "counter <name> <value>\n"
       << ctx.reference_text;
  }

  json::Value last = json::Value::make_object();
  last.set("correct", json::Value::make_bool(correct));
  last.set("attempted", json::Value::make_number(attempted));
  last.set("failed", json::Value::make_number(failed));
  last.set("metrics", std::move(metrics));
  std::cout << json::dump(last) << std::endl;
  return 0;
}

}  // namespace

}  // namespace xgwb

int main(int argc, char** argv) {
  xgwb::Options opt;
  if (!xgwb::parse_args(argc, argv, opt)) return xgwb::usage();
  try {
    return xgwb::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "xgw_benchmark: " << e.what() << "\n";
    return 1;
  }
}
