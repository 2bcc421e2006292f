#include "runtime/chaos.h"

#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xgw {

namespace {

/// Exception-safe save/restore of the process-wide knobs a chaos run
/// temporarily owns (retry policy, spill verification mode).
class ScopedRunConfig {
 public:
  ScopedRunConfig(const io::IoRetryPolicy& policy, mem::SpillVerify verify)
      : prev_policy_(io::io_retry_policy()),
        prev_verify_(mem::spill_verify()) {
    io::set_io_retry_policy(policy);
    mem::set_spill_verify(verify);
  }
  ~ScopedRunConfig() {
    io::set_io_retry_policy(prev_policy_);
    mem::set_spill_verify(prev_verify_);
  }
  ScopedRunConfig(const ScopedRunConfig&) = delete;
  ScopedRunConfig& operator=(const ScopedRunConfig&) = delete;

 private:
  io::IoRetryPolicy prev_policy_;
  mem::SpillVerify prev_verify_;
};

std::uint64_t recovered_total() {
  std::uint64_t total = 0;
  for (const char* name : kIoFaultNames)
    total += obs::metrics().counter_value(std::string("fault/io/recovered/") +
                                          name);
  return total;
}

}  // namespace

ChaosReport run_ff_chaos(GwCalculation& gw, const ChaosSpec& spec) {
  XGW_REQUIRE(!spec.bands.empty(), "run_ff_chaos: empty band set");
  XGW_REQUIRE(spec.max_stage_attempts >= 1,
              "run_ff_chaos: max_stage_attempts must be >= 1");

  ScopedRunConfig cfg(spec.retry, spec.spill_verify);
  IoFaultInjector inj(spec.faults.io);
  io::ScopedIoHooks hooks(spec.faults.io.enabled() ? &inj : nullptr);

  const std::uint64_t recovered_before = recovered_total();

  ChaosReport rep;

  // --- FF epsilon stage: the spill-heavy half --------------------------
  // Every eviction, page-in and re-materialization of the B^k v store runs
  // beneath the injector here.
  FfScreening scr = build_ff_screening(gw, spec.ff);
  rep.spill_used = scr.bv.spilling();

  // --- sigma band loop under compute faults ----------------------------
  // Bands are independent and one-at-a-time evaluation is bitwise
  // identical to the batch (sigma_diag's per-band restart files rest on
  // the same property), so a band stage
  // is the natural re-execution unit: a crashed or validation-rejected
  // attempt is simply re-run, and the retry reproduces the fault-free
  // bits. NaN-poisoned results are caught AT THE STAGE BOUNDARY — the
  // validate-where-corruption-enters rule — never merged.
  FaultInjector cf(spec.faults);
  const bool compute_chaos = spec.faults.enabled();
  for (std::size_t i = 0; i < spec.bands.size(); ++i) {
    for (int attempt = 0;; ++attempt) {
      const FaultKind k = compute_chaos
                              ? cf.decide(static_cast<idx>(i), attempt)
                              : FaultKind::kNone;
      try {
        if (k == FaultKind::kCrash) {
          ++rep.compute_faults;
          throw RankFailure(static_cast<idx>(i), attempt, k);
        }
        std::vector<FfResult> one =
            sigma_ff_diag(gw, scr, {spec.bands[i]}, spec.sigma_eta);
        FfResult r = one.front();
        if (k == FaultKind::kCorrupt) {
          ++rep.compute_faults;
          r.e_qp = std::numeric_limits<double>::quiet_NaN();
        } else if (k == FaultKind::kStraggle) {
          ++rep.compute_faults;  // correct but slow: no retry needed
        }
        if (!std::isfinite(r.e_qp) || !std::isfinite(r.z))
          throw RankFailure(static_cast<idx>(i), attempt,
                            FaultKind::kCorrupt);
        rep.results.push_back(r);
        break;
      } catch (const RankFailure& f) {
        ++rep.stage_retries;
        if (obs::trace_enabled())
          obs::recorder().record_instant(
              "chaos_stage_retry", "fault",
              "\"band\":" + std::to_string(spec.bands[i]) +
                  ",\"attempt\":" + std::to_string(attempt + 1) +
                  ",\"kind\":\"" + to_string(f.kind()) + "\"");
        if (attempt + 1 >= spec.max_stage_attempts)
          throw Error("chaos: band " + std::to_string(spec.bands[i]) +
                      " exhausted its compute retry budget (" +
                      std::to_string(spec.max_stage_attempts) +
                      " attempts): " + f.what());
      }
    }
  }

  // --- report ----------------------------------------------------------
  rep.schedule = inj.schedule();
  rep.io_injected = inj.injected();
  rep.stalled_s = inj.stalled_s();
  rep.io_recovered = recovered_total() - recovered_before;
  if (const mem::SpillPool* p = scr.bv.pool()) {
    rep.degraded = p->degraded();
    rep.rematerializations = p->rematerializations();
    rep.rewrites = p->rewrites();
  }
  log_info("chaos: ", rep.io_injected, " storage faults injected, ",
           rep.io_recovered, " recovered, ", rep.compute_faults,
           " compute faults, ", rep.stage_retries, " stage retries",
           rep.degraded ? " (pool degraded in-core)" : "");
  return rep;
}

}  // namespace xgw
