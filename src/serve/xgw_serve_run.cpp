// xgw_serve_run: batch serving CLI. Takes a manifest of .inp job specs,
// runs them through serve::run_batch against a persistent content-addressed
// sub-result store, and exits non-zero if any job failed.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.h"
#include "mem/spill.h"
#include "serve/batch.h"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] <manifest>\n"
      << "  <manifest>            text file, one job .inp path per line\n"
      << "                        ('#' comments; paths relative to the\n"
      << "                        manifest's directory)\n"
      << "options:\n"
      << "  --store DIR           CAS directory (default xgw_cas)\n"
      << "  --store-budget-mb N   CAS disk LRU budget (default unlimited)\n"
      << "  --workers N           executor workers (default auto)\n"
      << "  --verify MODE         CAS commit check: off|size|checksum\n"
      << "  --no-cache            compute everything, touch no store\n"
      << "  --metrics PATH        write metrics JSON after the batch\n"
      << "  --report PATH         write a run report after the batch\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xgw;
  serve::ServeOptions opt;
  std::string manifest;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << flag << " needs a value\n";
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (a == "--store") {
      opt.store_dir = need_value("--store");
    } else if (a == "--store-budget-mb") {
      opt.store_budget_mb = std::atof(need_value("--store-budget-mb"));
    } else if (a == "--workers") {
      opt.workers = std::atoi(need_value("--workers"));
    } else if (a == "--verify") {
      opt.verify = mem::parse_spill_verify(need_value("--verify"));
    } else if (a == "--no-cache") {
      opt.use_cache = false;
    } else if (a == "--metrics") {
      opt.metrics_path = need_value("--metrics");
    } else if (a == "--report") {
      opt.report_path = need_value("--report");
    } else if (a == "--help" || a == "-h") {
      return usage(argv[0]);
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << argv[0] << ": unknown option " << a << "\n";
      return usage(argv[0]);
    } else if (manifest.empty()) {
      manifest = a;
    } else {
      std::cerr << argv[0] << ": more than one manifest given\n";
      return usage(argv[0]);
    }
  }
  if (manifest.empty()) return usage(argv[0]);

  try {
    const serve::BatchReport rep =
        serve::run_manifest(manifest, opt, std::cout);
    return rep.all_ok() ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
