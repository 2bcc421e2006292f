// 3-D FFT engine layer series: time per transform and model GFLOP/s on the
// boxes the GW pipeline actually transforms (the Si16 MTXEL product box and
// the Si16 plane-wave Hamiltonian box) plus 16^3 / 24^3 / 32^3 cubes.
// Counters (box shape, transforms per call, model FLOPs at 5 N log2 N per
// transform) are exact-gated by the CI perf gate; wall time is advisory.
// Each timed call is one forward + one normalized backward transform, so
// the buffer returns to its input scale and no copy enters the timing.

#include <cmath>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fft/fft.h"
#include "mf/epm.h"
#include "mf/hamiltonian.h"
#include "pw/gvectors.h"

using namespace xgw;
using namespace xgw::bench;

int main() {
  std::printf("xgw — 3-D FFT engine (batched iterative mixed radix)\n");

  // Si16 (silicon 2x2x2 supercell) at the model's default wavefunction
  // cutoff with a 2 Ha eps cutoff: the boxes of the repo benchmark.
  const EpmModel si16 = EpmModel::silicon(2);
  const PwHamiltonian ham(si16);
  const GSphere eps_sphere(si16.crystal().lattice(), 2.0);

  const struct {
    const char* name;
    FftBox box;
  } boxes[] = {
      {"mtxel_si16", product_box(ham.sphere(), eps_sphere)},
      {"hamiltonian_si16", ham.box()},
      {"cube16", {16, 16, 16}},
      {"cube24", {24, 24, 24}},
      {"cube32", {32, 32, 32}},
  };

  Suite suite("fft");
  Table table({"box", "N", "ms / transform", "model GFLOP/s", "reps"});
  for (const auto& [name, box] : boxes) {
    const Fft3d fft(box);
    const auto n = static_cast<std::size_t>(box.size());
    std::vector<cplx> pristine(n);
    for (std::size_t i = 0; i < n; ++i)
      pristine[i] = cplx{std::sin(0.1 * static_cast<double>(i)),
                         std::cos(0.3 * static_cast<double>(i))};
    std::vector<cplx> x = pristine;

    constexpr int kTransformsPerCall = 2;
    const TimingStats t = run_timed([&] {
      fft.forward(x.data());
      fft.backward_normalized(x.data());
    });
    double err = 0.0;  // round-trip drift after every timed call
    for (std::size_t i = 0; i < n; ++i)
      err = std::max(err, std::abs(x[i] - pristine[i]));

    // Rounded to an integer so a last-ulp libm difference in log2 cannot
    // move the exact-gated counter.
    const double size = static_cast<double>(box.size());
    const double model_flops =
        static_cast<double>(std::llround(5.0 * size * std::log2(size)));
    const double ms = t.median_s / kTransformsPerCall * 1e3;
    const double gflops = model_flops / (ms * 1e-3) * 1e-9;
    const std::string shape = std::to_string(box.n1) + "x" +
                              std::to_string(box.n2) + "x" +
                              std::to_string(box.n3);
    suite.series(std::string("fft3d/") + name + "/" + shape)
        .counter("n1", static_cast<double>(box.n1))
        .counter("n2", static_cast<double>(box.n2))
        .counter("n3", static_cast<double>(box.n3))
        .counter("transforms_per_call", kTransformsPerCall)
        .counter("model_flops_per_call", kTransformsPerCall * model_flops)
        .value("ms_per_transform", ms)
        .value("gflops_model", gflops)
        .value("roundtrip_max_err", err)
        .time(t);
    table.row({std::string(name) + " " + shape, fmt_int(box.size()),
               fmt(ms, 4), fmt(gflops, 2),
               fmt_int(static_cast<long long>(t.samples.size()))});
  }
  section("3-D transforms (BENCH_fft.json)");
  table.print();
  suite.write("BENCH_fft.json");
  return 0;
}
