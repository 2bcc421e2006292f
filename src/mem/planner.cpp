#include "mem/planner.h"

#include <algorithm>

#include "common/error.h"
#include "common/types.h"

namespace xgw::mem {

namespace {

constexpr std::size_t kElem = sizeof(cplx);

double to_mb(std::size_t b) {
  return static_cast<double>(b) / (1024.0 * 1024.0);
}

std::size_t epsinv_set_bytes(const PlannerInput& in) {
  return static_cast<std::size_t>(in.nfreq) *
         static_cast<std::size_t>(in.ng) * static_cast<std::size_t>(in.ng) *
         kElem;
}

}  // namespace

std::size_t chi_workspace_bytes(const PlannerInput& in, idx nv_block,
                                idx freq_batch) {
  // Mirrors the allocations of chi_multi (core/chi.cpp) one for one.
  const auto nc = static_cast<std::size_t>(in.nc);
  const auto ng = static_cast<std::size_t>(in.ng);
  const auto ncols = static_cast<std::size_t>(in.ncols > 0 ? in.ncols : in.ng);
  const auto nvb = static_cast<std::size_t>(std::max<idx>(1, nv_block));
  const auto fb = static_cast<std::size_t>(std::max<idx>(1, freq_batch));
  // One scaled-M workspace per team member; the frequency loop only forms a
  // team when it has more than one frequency to distribute.
  const auto nthreads =
      fb > 1 ? static_cast<std::size_t>(std::max(1, in.threads)) : 1;

  std::size_t b = 0;
  b += fb * ncols * ncols * kElem;        // chi accumulators (the results)
  // m_pw: per-valence M rows; under a subspace (ncols < ng) the whole
  // valence block is held at once for the batched Transf projection.
  b += (ncols < ng ? nvb : 1) * nc * ng * kElem;
  b += nvb * nc * ncols * kElem;          // m_block: NV-Block pair workspace
  b += nthreads * nvb * nc * ncols * kElem;  // per-thread scaled copies
  b += nc * sizeof(idx);                  // conduction band list
  return b;
}

std::string MemPlan::describe() const {
  std::string s = "nv_block=" + std::to_string(nv_block) +
                  " freq_batch=" + std::to_string(freq_batch);
  char buf[64];
  std::snprintf(buf, sizeof(buf), " planned_peak_mb=%.1f",
                to_mb(planned_peak_bytes));
  s += buf;
  if (fits_in_core) s += " (in-core, no blocking)";
  if (needs_spill) {
    std::snprintf(buf, sizeof(buf), " spill_resident_mb=%.1f",
                  to_mb(spill_resident_bytes));
    s += " + out-of-core spill";
    s += buf;
  }
  return s;
}

MemPlan plan(const PlannerInput& in) {
  XGW_REQUIRE(in.nv >= 1 && in.nc >= 1 && in.ng >= 1,
              "mem::plan: need nv, nc, ng >= 1");
  XGW_REQUIRE(in.nfreq >= 1, "mem::plan: need nfreq >= 1");
  MemPlan p;

  const std::size_t unblocked =
      in.fixed_bytes + chi_workspace_bytes(in, in.nv, in.nfreq);

  // No budget, or everything fits: the no-blocking fast path (monolithic
  // pair block, all frequencies in one CHI-Freq pass).
  if (in.budget_bytes == 0 || unblocked <= in.budget_bytes) {
    p.nv_block = in.nv;
    p.freq_batch = in.nfreq;
    p.fits_in_core = true;
    p.planned_peak_bytes = unblocked;
    return p;
  }

  auto total_at = [&](idx nvb, idx fb) {
    return in.fixed_bytes + chi_workspace_bytes(in, nvb, fb);
  };

  const std::size_t minimal = total_at(1, 1);
  if (minimal > in.budget_bytes) {
    if (!in.allow_spill) {
      throw Error(
          "mem::plan: memory budget " +
          std::to_string(static_cast<long long>(to_mb(in.budget_bytes))) +
          " MB is below the minimal CHI working set " +
          std::to_string(static_cast<long long>(to_mb(minimal) + 1.0)) +
          " MB (nv_block=1, freq_batch=1, N_c=" + std::to_string(in.nc) +
          ", N_G=" + std::to_string(in.ng) +
          "); raise memory_budget_mb to at least that, shrink the basis, or "
          "allow out-of-core spill");
    }
    p.nv_block = 1;
    p.freq_batch = 1;
    p.needs_spill = true;
    p.planned_peak_bytes = minimal;
    p.spill_resident_bytes = std::max<std::size_t>(
        static_cast<std::size_t>(in.ng) * static_cast<std::size_t>(in.ng) *
            kElem,
        in.budget_bytes / 2);
    return p;
  }

  // Maximize the frequency batch first (each extra CHI-Freq PASS re-pays
  // MTXEL/Transf), then grow nv_block into the remaining budget (bigger
  // rank-k updates). Both are monotonic in bytes, so binary search.
  idx fb_lo = 1, fb_hi = in.nfreq;
  while (fb_lo < fb_hi) {
    const idx mid = fb_lo + (fb_hi - fb_lo + 1) / 2;
    if (total_at(1, mid) <= in.budget_bytes)
      fb_lo = mid;
    else
      fb_hi = mid - 1;
  }
  p.freq_batch = fb_lo;

  idx nv_lo = 1, nv_hi = in.nv;
  while (nv_lo < nv_hi) {
    const idx mid = nv_lo + (nv_hi - nv_lo + 1) / 2;
    if (total_at(mid, p.freq_batch) <= in.budget_bytes)
      nv_lo = mid;
    else
      nv_hi = mid - 1;
  }
  p.nv_block = nv_lo;
  p.planned_peak_bytes = total_at(p.nv_block, p.freq_batch);

  // The full ε^{-1}(ω) frequency set is a PRODUCT, not workspace: when it
  // cannot sit alongside the working set, the run pages it via mem/spill.
  if (in.nfreq > 1) {
    const std::size_t leftover = in.budget_bytes - p.planned_peak_bytes;
    if (epsinv_set_bytes(in) > leftover) {
      p.needs_spill = true;
      p.spill_resident_bytes = std::max<std::size_t>(
          static_cast<std::size_t>(in.ng) * static_cast<std::size_t>(in.ng) *
              kElem,
          leftover);
    }
  }
  return p;
}

}  // namespace xgw::mem
