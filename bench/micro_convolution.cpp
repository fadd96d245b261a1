// Micro benchmarks for the complexity claims of section IV-F, factor (B):
// the cost of one convolution as a function of the number of impulses, for
// both the plain and the deadline-truncated variants, plus the O(|tail|)
// chance_if_appended fast path used by PAM. The PET rows time the
// section V-A recipe: one gamma/histogram cell, and a whole scenario.
#include <benchmark/benchmark.h>

#include "pet/pet_builder.hpp"
#include "prob/convolution.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace taskdrop;

Pmf make_pmf(int impulses, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Tick, double>> points;
  points.reserve(static_cast<std::size_t>(impulses));
  for (int i = 0; i < impulses; ++i) {
    points.emplace_back(5 * (i + 10), rng.uniform01());
  }
  Pmf pmf = Pmf::from_impulses(std::move(points), 5);
  pmf.normalize();
  return pmf;
}

void BM_Convolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Pmf a = make_pmf(n, 1);
  const Pmf b = make_pmf(n, 2);
  for (auto _ : state) {
    // This bench measures the allocating kernel on purpose, as the
    // workspace baseline. layering-allow(direct-convolve)
    benchmark::DoNotOptimize(convolve(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Convolve)->RangeMultiplier(2)->Range(8, 512)->Complexity();

void BM_DeadlineConvolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Pmf pred = make_pmf(n, 3);
  const Pmf exec = make_pmf(n, 4);
  // Deadline in the middle of the predecessor support: half the mass
  // convolves, half passes through.
  const Tick deadline = (pred.min_time() + pred.max_time()) / 2;
  for (auto _ : state) {
    // layering-allow(direct-convolve): allocating-kernel baseline.
    benchmark::DoNotOptimize(deadline_convolve(pred, exec, deadline));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DeadlineConvolve)->RangeMultiplier(2)->Range(8, 512)->Complexity();

void BM_GammaPetCell(benchmark::State& state) {
  // Cost of building one PET cell with the paper's recipe (500 samples).
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gamma_execution_pmf(rng, 125.0, 10.0, 500, 5));
  }
}
BENCHMARK(BM_GammaPetCell)->Repetitions(5);

void BM_MakeScenario(benchmark::State& state, ScenarioKind kind) {
  // One whole PET build as a trial or a serve daemon pays for it at set-up:
  // 96 cells for spec_hc, 16 for video.
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_scenario(kind, 42));
  }
}
BENCHMARK_CAPTURE(BM_MakeScenario, spec_hc, ScenarioKind::SpecHC)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_MakeScenario, video, ScenarioKind::Video)
    ->Repetitions(5);

}  // namespace

BENCHMARK_MAIN();
