#include <fstream>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "harness.h"

namespace xgwb {

namespace {

using KeyValues = std::vector<std::pair<std::string, std::string>>;

// The pristine Si 2x2x2 supercell every workload shares (16 atoms,
// N_G^psi = 459, N_G = 283, N_b = 120, N_v = 32, MTXEL box 15^3), so stage
// costs compare directly across the three Sigma routes. 120 bands keep the
// 88- and 120-band MTXEL sweeps larger than the 64-entry band cache.
const KeyValues kSi16 = {{"material", "silicon"},
                         {"supercell", "2"},
                         {"eps_cutoff", "2.0"},
                         {"n_bands", "120"}};

// Sigma bands per route: the GPP window spans the gap (VBM 31, CBM 32).
constexpr idx kGppFirstBand = 24, kGppLastBand = 39;
const std::vector<idx> kGapBands = {31, 32};
// Serve: eight overlapping two-band GPP windows starting at bands 28..35.
constexpr idx kServeFirstWindow = 28, kServeWindows = 8;

template <typename T>
void shuffle(std::vector<T>& v, xgw::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

std::string join(const std::vector<idx>& v) {
  std::string s;
  for (idx b : v) {
    if (!s.empty()) s += ' ';
    s += std::to_string(b);
  }
  return s;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::trunc);
  os << text;
  XGW_REQUIRE(os.good(), "benchmark: cannot write " + path);
}

/// Writes `kv` (plus the Si16 keys) as an .inp with seed-shuffled key order.
std::string write_inp(const std::string& path, KeyValues kv, xgw::Rng& rng) {
  kv.insert(kv.end(), kSi16.begin(), kSi16.end());
  shuffle(kv, rng);
  std::string text;
  for (const auto& [k, v] : kv) text += k + " " + v + "\n";
  write_text(path, text);
  return path;
}

}  // namespace

// Why each workload was chosen: benchmark/README.md and BENCHMARK.json.
const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> w{
      {"gpp-sigma-si16", Route::kGpp},
      {"ff-epsilon-si16", Route::kFf},
      {"st-si16", Route::kSt},
      {"serve-si16-batch", Route::kServe},
  };
  return w;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads())
    if (name == w.name) return &w;
  return nullptr;
}

Inputs write_inputs(const Workload& w, std::uint64_t seed,
                    const std::string& dir) {
  xgw::Rng rng(seed);
  Inputs in;
  auto gw_job = [&](KeyValues kv, std::vector<idx> bands) {
    shuffle(bands, rng);
    kv.emplace_back("sigma_bands", join(bands));
    in.sigma_bands = bands;
    in.job = write_inp(dir + "/" + w.name + ".inp", std::move(kv), rng);
    in.files.push_back(in.job);
  };
  switch (w.route) {
    case Route::kGpp: {
      std::vector<idx> bands(kGppLastBand - kGppFirstBand + 1);
      std::iota(bands.begin(), bands.end(), kGppFirstBand);
      gw_job({{"job", "sigma"}, {"n_e_points", "5"}}, bands);
      break;
    }
    case Route::kFf:
      gw_job({{"job", "ff"}, {"n_freq", "32"}}, kGapBands);
      break;
    case Route::kSt:
      gw_job({{"job", "sigma"}, {"sigma_method", "space_time"}, {"n_tau", "14"}},
             kGapBands);
      break;
    case Route::kServe: {
      std::vector<std::string> names;
      for (idx i = 0; i < kServeWindows; ++i) {
        const idx first = kServeFirstWindow + i;
        std::vector<idx> bands{first, first + 1};
        shuffle(bands, rng);
        std::string name = "w";
        name += std::to_string(first);
        in.files.push_back(write_inp(
            dir + "/" + name + ".inp",
            {{"job", "sigma"}, {"n_e_points", "5"}, {"sigma_bands", join(bands)}},
            rng));
        names.push_back(name + ".inp");
      }
      in.files.push_back(write_inp(dir + "/eps.inp",
                                   {{"job", "epsilon"}, {"n_freq", "2"}}, rng));
      names.push_back("eps.inp");
      shuffle(names, rng);
      std::string manifest;
      for (const std::string& n : names) manifest += n + "\n";
      in.job = dir + "/jobs.manifest";
      write_text(in.job, manifest);
      in.files.push_back(in.job);
      break;
    }
  }
  return in;
}

std::string write_cold_start_input(const std::string& dir) {
  const std::string path = dir + "/cold_start.inp";
  write_text(path, "job epsilon\nmaterial silicon\nsupercell 1\n");
  return path;
}

}  // namespace xgwb
