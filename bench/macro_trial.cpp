// Macro benchmarks: full run_trial end-to-end, scenario x mapper x level.
//
// The micro_* benches time individual prob-layer kernels; these time the
// quantity the sweep grids actually multiply — one complete simulated
// trial (trace generation, every mapping event, dropper passes, metric
// reduction) — so mapping-event-level optimisations (the appended-
// distribution cache, the O(1) batch queue, tail-mean memoisation) are
// judged on trial throughput rather than kernel latency. Scenarios and
// cost models are built once per configuration outside the timed loop;
// each iteration runs trial 0 of the configuration, the same work a sweep
// cell performs per trial.
#include <benchmark/benchmark.h>

#include "cost/cost_model.hpp"
#include "exp/experiment.hpp"

namespace {

using namespace taskdrop;

struct TrialCase {
  const char* name;
  ScenarioKind scenario;
  const char* mapper;
  const char* dropper;
  int n_tasks;
  double oversubscription;
  int candidate_window;
  bool conditioned = false;
  /// Mean time between failures; 0 disables failure injection.
  double mtbf = 0.0;
  double mttr = 0.0;
  /// Forces invalidate-and-rebuild instead of the chain-keeping fast
  /// paths — the A/B partner that quantifies what the keeps buy.
  bool paranoid = false;
  /// Per-machine queue depth; deeper queues make every full-chain rebuild
  /// proportionally more expensive, which is the regime the keeps target.
  int queue_capacity = 6;
};

// The paper-shaped cases run PAM/MM with the proactive heuristic at the
// figures' 3.0-oversubscription level. PAM_deep is the mapper-bound
// regime the appended-distribution cache targets: reactive-only dropping,
// heavy oversubscription (the batch stays thousands of tasks deep) and a
// 1024-deep candidate window, so nearly all trial time is phase-1/phase-2
// scanning.
constexpr TrialCase kCases[] = {
    {"spec_hc/PAM/1k", ScenarioKind::SpecHC, "PAM", "heuristic", 1000, 3.0,
     256},
    {"spec_hc/PAM/4k", ScenarioKind::SpecHC, "PAM", "heuristic", 4000, 3.0,
     256},
    {"spec_hc/PAM/10k", ScenarioKind::SpecHC, "PAM", "heuristic", 10000, 3.0,
     256},
    {"spec_hc/PAM_deep/5k", ScenarioKind::SpecHC, "PAM", "reactive", 5000,
     20.0, 1024},
    {"spec_hc/MM/10k", ScenarioKind::SpecHC, "MM", "heuristic", 10000, 3.0,
     256},
    {"video/PAM/4k", ScenarioKind::Video, "PAM", "heuristic", 4000, 3.0, 256},
    {"video/MM/4k", ScenarioKind::Video, "MM", "heuristic", 4000, 3.0, 256},
    // Chain-keeping A/B pairs. *_cond runs with condition_running (every
    // clock advance used to invalidate and rebuild each running machine's
    // chain); *_fail runs a volatile fleet (every head start used to
    // blanket-invalidate). The paranoid twin of each pair forces the old
    // invalidate-and-rebuild behaviour, so keep/paranoid on the same line
    // of BENCH_macro.json is the speedup the keeps buy at trial
    // granularity. PAM_cond is the paper-shaped mix (proactive heuristic
    // dropper, so A/B-identical mapper+dropper scanning dilutes the
    // ratio); PAM_cond_thr swaps in the cheap threshold dropper, leaving
    // chain maintenance as the dominant cost — the regime a failure-first
    // robustness study (MTBF/MTTR sweeps) would run in — where the keeps
    // are worth ~2-3x.
    {"spec_hc/PAM_cond/4k", ScenarioKind::SpecHC, "PAM", "heuristic", 4000,
     6.0, 256, /*conditioned=*/true, 0.0, 0.0, /*paranoid=*/false,
     /*queue_capacity=*/24},
    {"spec_hc/PAM_cond_paranoid/4k", ScenarioKind::SpecHC, "PAM", "heuristic",
     4000, 6.0, 256, /*conditioned=*/true, 0.0, 0.0, /*paranoid=*/true,
     /*queue_capacity=*/24},
    {"spec_hc/PAM_cond_thr/4k", ScenarioKind::SpecHC, "PAM", "threshold",
     4000, 16.0, 256, /*conditioned=*/true, 0.0, 0.0, /*paranoid=*/false,
     /*queue_capacity=*/24},
    {"spec_hc/PAM_cond_thr_paranoid/4k", ScenarioKind::SpecHC, "PAM",
     "threshold", 4000, 16.0, 256, /*conditioned=*/true, 0.0, 0.0,
     /*paranoid=*/true, /*queue_capacity=*/24},
    {"spec_hc/PAM_fail/4k", ScenarioKind::SpecHC, "PAM", "threshold", 4000,
     12.0, 256, /*conditioned=*/false, /*mtbf=*/20000.0, /*mttr=*/2000.0,
     /*paranoid=*/false, /*queue_capacity=*/48},
    {"spec_hc/PAM_fail_paranoid/4k", ScenarioKind::SpecHC, "PAM", "threshold",
     4000, 12.0, 256, /*conditioned=*/false, /*mtbf=*/20000.0,
     /*mttr=*/2000.0, /*paranoid=*/true, /*queue_capacity=*/48},
};

void BM_RunTrial(benchmark::State& state, const TrialCase& c) {
  ExperimentConfig config;
  config.scenario = c.scenario;
  config.mapper = c.mapper;
  config.dropper = DropperConfig::from_spec(c.dropper);
  config.workload.n_tasks = c.n_tasks;
  config.workload.oversubscription = c.oversubscription;
  config.candidate_window = c.candidate_window;
  config.condition_running = c.conditioned;
  config.paranoid_invalidate = c.paranoid;
  config.queue_capacity = c.queue_capacity;
  if (c.mtbf > 0.0) {
    config.failures.enabled = true;
    config.failures.mean_time_between_failures = c.mtbf;
    config.failures.mean_time_to_repair = c.mttr;
  }
  config.trials = 1;
  const Scenario scenario = build_scenario(config);
  const CostModel cost_model(scenario.profile.cost_per_hour);
  for (auto _ : state) {
    const TrialMetrics metrics =
        run_trial(config, scenario, cost_model, /*trial=*/0);
    benchmark::DoNotOptimize(metrics);
  }
  state.SetItemsProcessed(state.iterations() * c.n_tasks);
}

[[maybe_unused]] const int kRegistered = [] {
  for (const TrialCase& c : kCases) {
    // Five repetitions, gated on their median by bench/check_threshold.py:
    // repetitions of one binary spread by up to a half on a 4-vCPU VM
    // (spec_hc/PAM_cond/4k read 87 to 129 ms).
    benchmark::RegisterBenchmark(c.name, BM_RunTrial, c)
        ->Unit(benchmark::kMillisecond)
        ->Repetitions(5);
  }
  return 0;
}();

}  // namespace

BENCHMARK_MAIN();
