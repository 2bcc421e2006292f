#include "perf/progmodel.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "la/gemm.h"

namespace xgw {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

std::string prog_model_name(ProgModel m) {
  switch (m) {
    case ProgModel::kCuda: return "CUDA";
    case ProgModel::kHip: return "HIP";
    case ProgModel::kSycl: return "SYCL";
    case ProgModel::kOpenAcc: return "OACC";
    case ProgModel::kOpenMpDagger: return "OMP+";  // the paper's OMP-dagger
    case ProgModel::kOpenMpOpt: return "OMP";
  }
  return "?";
}

ProgModel native_model(MachineKind machine) {
  switch (machine) {
    case MachineKind::kFrontier: return ProgModel::kHip;
    case MachineKind::kAurora: return ProgModel::kSycl;
    case MachineKind::kPerlmutter: return ProgModel::kCuda;
  }
  XGW_REQUIRE(false, "native_model: unknown machine");
  return ProgModel::kCuda;
}

bool prog_model_supported(MachineKind machine, ProgModel model) {
  switch (model) {
    case ProgModel::kCuda: return machine == MachineKind::kPerlmutter;
    case ProgModel::kHip: return machine == MachineKind::kFrontier;
    case ProgModel::kSycl: return machine == MachineKind::kAurora;
    case ProgModel::kOpenAcc:
      return machine != MachineKind::kAurora;  // no Intel OpenACC support
    case ProgModel::kOpenMpDagger:
    case ProgModel::kOpenMpOpt:
      return true;
  }
  return false;
}

double prog_model_factor(MachineKind machine, ProgModel model,
                         KernelClass kernel) {
  if (!prog_model_supported(machine, model)) return kInf;
  // Table 4, 4-node column, normalized to the native model's time.
  if (kernel == KernelClass::kGppDiag) {
    switch (machine) {
      case MachineKind::kPerlmutter:
        switch (model) {
          case ProgModel::kCuda: return 1.0;
          case ProgModel::kOpenAcc: return 3197.3 / 2928.3;   // 1.092
          case ProgModel::kOpenMpOpt: return 3268.7 / 2928.3; // 1.116
          case ProgModel::kOpenMpDagger: return 4186.3 / 2928.3;
          default: return kInf;
        }
      case MachineKind::kFrontier:
        switch (model) {
          case ProgModel::kHip: return 1.0;
          case ProgModel::kOpenAcc: return 2111.9 / 1382.5;   // 1.528
          case ProgModel::kOpenMpDagger: return 2562.1 / 1382.5;
          case ProgModel::kOpenMpOpt: return 8.0;  // compiler pitfall (loop seq)
          default: return kInf;
        }
      case MachineKind::kAurora:
        switch (model) {
          case ProgModel::kSycl: return 1.0;
          case ProgModel::kOpenMpOpt: return 2877.2 / 1416.0; // 2.032
          case ProgModel::kOpenMpDagger: return 3621.1 / 1416.0;
          default: return kInf;
        }
    }
  } else {  // GW-FF (offloaded library calls dominate; open models only)
    switch (machine) {
      case MachineKind::kPerlmutter:
        return model == ProgModel::kOpenAcc ? 1.0
               : model == ProgModel::kOpenMpDagger ? 528.2 / 528.2
                                                   : 1.0;
      case MachineKind::kFrontier:
        return 1.0;  // OACC 354.4 s baseline
      case MachineKind::kAurora:
        return model == ProgModel::kOpenMpOpt ? 364.7 / 364.7 : 1.0;
    }
  }
  return kInf;
}

KernelRoofline split_gemm_roofline(double peak_flops, double mem_bandwidth,
                                   idx k, idx b_reuse) {
  XGW_REQUIRE(peak_flops > 0.0 && mem_bandwidth > 0.0 && k > 0,
              "split_gemm_roofline: peak, bandwidth, k must be positive");
  XGW_REQUIRE(b_reuse >= 1, "split_gemm_roofline: b_reuse must be >= 1");
  const GemmTiling t = gemm_tiling();
  const double mc = static_cast<double>(t.mc);
  const double nc = static_cast<double>(t.nc);
  const double kd = static_cast<double>(k);
  const double k_blocks = std::ceil(kd / static_cast<double>(t.kc));

  // FLOPs for one (MC x NC) C tile over the full K sweep.
  const double flops = 8.0 * mc * nc * kd;
  // Main-memory traffic (bytes, 16 per complex double): A panel streamed,
  // packed-B panel amortized over b_reuse row panels, C tile read+written
  // once per K block (the engine's l0-outer accumulation).
  const double bytes = 16.0 * (mc * kd + kd * nc / static_cast<double>(b_reuse) +
                               2.0 * mc * nc * k_blocks);

  KernelRoofline r;
  r.arithmetic_intensity = flops / bytes;
  r.attainable_flops =
      std::min(peak_flops, r.arithmetic_intensity * mem_bandwidth);
  r.compute_bound = r.arithmetic_intensity * mem_bandwidth >= peak_flops;
  return r;
}

}  // namespace xgw
