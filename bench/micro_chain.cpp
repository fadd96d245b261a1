// Micro benchmarks for the incremental completion-chain machinery on deep
// queues — the regime the (cell x trial) sweep grids of PR 2 multiply: one
// mapping event probes every machine's tail (chance_if_appended), appends
// one task (a single suffix re-convolution under dirty-index tracking), and
// occasionally re-roots a provisional window chain (the droppers' Eqs. 4-6
// walk, allocation-free through a PmfWorkspace).
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "online/system_state.hpp"
#include "prob/convolution.hpp"
// layering-allow(fft-plan): the wide-PMF benches toggle the crossover gate
// directly to measure direct-vs-FFT on the same inputs.
#include "prob/fft.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace taskdrop;

const Scenario& scenario() {
  static const Scenario s = make_scenario(ScenarioKind::SpecHC, 42);
  return s;
}

std::unique_ptr<SystemState> make_queue(
    int depth, CompletionModel::Options options = {}) {
  const Scenario& scn = scenario();
  auto system = std::make_unique<SystemState>(
      scn.pet, std::vector<MachineTypeId>{0}, depth + 2, /*now=*/0, options);
  const double mean = scn.pet.mean_overall();
  for (int i = 0; i < depth; ++i) {
    system->enqueue(0, static_cast<TaskTypeId>(i % scn.pet.task_type_count()),
                    static_cast<Tick>(mean * (2.0 + i)));
  }
  return system;
}

/// PAM's phase-1 probe against an already-cached deep tail. With the
/// revision-keyed appended-distribution cache a repeated probe is a pure
/// memo lookup, independent of the tail PMF's support width.
void BM_DeepChanceIfAppended(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  auto system = make_queue(depth);
  const auto deadline =
      static_cast<Tick>(scenario().pet.mean_overall() * (depth + 4.0));
  system->model(0).instantaneous_robustness();  // warm the chain cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(system->model(0).chance_if_appended(0, deadline));
  }
}
BENCHMARK(BM_DeepChanceIfAppended)->RangeMultiplier(2)->Range(8, 64);

/// A phase-1 scan shape: many *distinct* deadlines against one warm tail.
/// Each first touch of a lattice cell folds only the O(|exec|) unsaturated
/// window on top of the cached saturated prefix; repeats are O(1).
void BM_DeepAppendedScan(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  auto system = make_queue(depth);
  const double mean = scenario().pet.mean_overall();
  system->model(0).instantaneous_robustness();  // warm the chain cache
  const auto base = static_cast<Tick>(mean * depth);
  for (auto _ : state) {
    double sum = 0.0;
    for (Tick d = 0; d < 64; ++d) {
      sum += system->model(0).chance_if_appended(0, base + 3 * d);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DeepAppendedScan)->RangeMultiplier(2)->Range(8, 64);

/// The common mapping-event mutation at depth: append one task and query
/// only the new tail. Dirty-index tracking makes this a single
/// deadline-truncated convolution regardless of queue depth.
void BM_DeepIncrementalAppend(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto deadline =
      static_cast<Tick>(scenario().pet.mean_overall() * (depth + 4.0));
  for (auto _ : state) {
    state.PauseTiming();
    auto system = make_queue(depth);
    system->model(0).instantaneous_robustness();  // warm the chain cache
    state.ResumeTiming();
    system->enqueue(0, 0, deadline);
    benchmark::DoNotOptimize(
        system->model(0).chance(system->machine(0).queue.size() - 1));
  }
}
BENCHMARK(BM_DeepIncrementalAppend)->RangeMultiplier(2)->Range(8, 64);

/// The proactive heuristic's provisional-drop window (Eqs. 4-6): re-root a
/// chain at a mid-queue predecessor and re-convolve an eta-deep window,
/// entirely inside a reused workspace.
void BM_DeepWindowChance(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  auto system = make_queue(depth);
  CompletionModel& model = system->model(0);
  model.instantaneous_robustness();  // warm the chain cache
  const auto pos = static_cast<std::size_t>(depth / 2);
  PmfWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        window_chance_sum(model.predecessor(pos), system->machine(0),
                          *system->view().tasks, scenario().pet, pos + 1,
                          pos + 2, nullptr, &ws));
  }
}
BENCHMARK(BM_DeepWindowChance)->RangeMultiplier(2)->Range(8, 64);

/// Dense random PMF with `bins` lattice points — the wide-support regime
/// (deep provisional chains, heavy-tailed execution histograms) where the
/// O(n*m) direct kernel stops being free.
Pmf wide_pmf(std::size_t bins, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Tick, double>> points;
  points.reserve(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    points.emplace_back(static_cast<Tick>(i + 8), rng.uniform01());
  }
  Pmf pmf = Pmf::from_impulses(std::move(points), 1);
  pmf.normalize();
  return pmf;
}

/// RAII pin of the FFT crossover gate, so a bench measures one kernel
/// unconditionally and the process-global default is restored afterwards.
struct FftGatePin {
  explicit FftGatePin(std::size_t min_bins) : saved(fft_min_bins()) {
    set_fft_min_bins(min_bins);
  }
  ~FftGatePin() { set_fft_min_bins(saved); }
  std::size_t saved;
};

/// Direct-vs-FFT on equal-width operands: the crossover curve. The per-size
/// ratio of the two registrations is what kDefaultFftMinBins documents.
void BM_WideConvolve(benchmark::State& state, bool use_fft) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  const Pmf a = wide_pmf(bins, 101);
  const Pmf b = wide_pmf(bins, 202);
  const FftGatePin pin(use_fft ? 2 : 0);
  PmfWorkspace ws;
  Pmf out;
  for (auto _ : state) {
    convolve_into(a, b, ws, out);
    benchmark::DoNotOptimize(out.mass_before(static_cast<Tick>(bins)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK_CAPTURE(BM_WideConvolve, direct, false)
    ->RangeMultiplier(2)
    ->Range(64, 8192)
    ->Complexity();
BENCHMARK_CAPTURE(BM_WideConvolve, fft, true)
    ->RangeMultiplier(2)
    ->Range(64, 8192)
    ->Complexity();

/// Deadline-truncated variant on wide operands, deadline mid-support so
/// half the predecessor mass convolves and half passes through — the Eq. 1
/// shape the chain walks actually execute.
void BM_WideDeadlineConvolve(benchmark::State& state, bool use_fft) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  const Pmf pred = wide_pmf(bins, 303);
  const Pmf exec = wide_pmf(bins, 404);
  const Tick deadline = (pred.min_time() + pred.max_time()) / 2;
  const FftGatePin pin(use_fft ? 2 : 0);
  PmfWorkspace ws;
  Pmf out;
  for (auto _ : state) {
    deadline_convolve_into(pred, exec, deadline, ws, out);
    benchmark::DoNotOptimize(out.mass_before(deadline));
  }
}
BENCHMARK_CAPTURE(BM_WideDeadlineConvolve, direct, false)
    ->RangeMultiplier(2)
    ->Range(512, 8192);
BENCHMARK_CAPTURE(BM_WideDeadlineConvolve, fft, true)
    ->RangeMultiplier(2)
    ->Range(512, 8192);

/// Conditioned clock advance on a running deep queue: with chain-keeping
/// the set_now inside the keep window is a revision bump and the query a
/// memo hit; the paranoid registration rebuilds the whole chain per step —
/// exactly what every mapping event paid before this optimisation.
void BM_ConditionedAdvance(benchmark::State& state, bool paranoid) {
  const int depth = static_cast<int>(state.range(0));
  CompletionModel::Options options;
  options.condition_running = true;
  options.paranoid_rebuild = paranoid;
  for (auto _ : state) {
    state.PauseTiming();
    auto system = make_queue(depth, options);
    system->set_running(0, 0);
    system->model(0).instantaneous_robustness();  // warm the chain cache
    state.ResumeTiming();
    double sum = 0.0;
    for (Tick t = 1; t <= 32; ++t) {
      system->set_now(t);
      sum += system->model(0).instantaneous_robustness();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK_CAPTURE(BM_ConditionedAdvance, keep, false)
    ->RangeMultiplier(2)
    ->Range(8, 64);
BENCHMARK_CAPTURE(BM_ConditionedAdvance, rebuild, true)
    ->RangeMultiplier(2)
    ->Range(8, 64);

/// The failure-path fix: a head start on an up machine of a *volatile*
/// fleet. Chain-keeping recognises the start as the cached slot-0 root and
/// answers the tail query from the memo; the paranoid registration is the
/// old blanket invalidate, which re-convolves the entire queue.
void BM_VolatileHeadStart(benchmark::State& state, bool paranoid) {
  const int depth = static_cast<int>(state.range(0));
  CompletionModel::Options options;
  options.paranoid_rebuild = paranoid;
  for (auto _ : state) {
    state.PauseTiming();
    auto system = make_queue(depth, options);
    system->model(0).instantaneous_robustness();  // warm the chain cache
    state.ResumeTiming();
    system->set_running(0, 0);
    benchmark::DoNotOptimize(
        system->model(0).chance(static_cast<std::size_t>(depth) - 1));
  }
}
BENCHMARK_CAPTURE(BM_VolatileHeadStart, keep, false)
    ->RangeMultiplier(2)
    ->Range(8, 64);
BENCHMARK_CAPTURE(BM_VolatileHeadStart, rebuild, true)
    ->RangeMultiplier(2)
    ->Range(8, 64);

}  // namespace

BENCHMARK_MAIN();
