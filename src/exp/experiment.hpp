#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/aggregate.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace taskdrop {

/// Declarative description of one experimental configuration: a scenario,
/// a mapper+dropper pair, a workload level and a trial count. This is the
/// unit every figure of section V sweeps over.
struct ExperimentConfig {
  ScenarioKind scenario = ScenarioKind::SpecHC;
  std::string mapper = "PAM";
  DropperConfig dropper = DropperConfig::heuristic();
  DropperEngagement engagement = DropperEngagement::EveryMappingEvent;
  bool condition_running = false;
  /// Forces the conservative invalidate-and-rebuild completion-model paths
  /// instead of the chain-keeping fast paths. Decision-neutral by
  /// construction — exists for bitwise A/B regression tests and the macro
  /// benchmarks that quantify what the keeps buy.
  bool paranoid_invalidate = false;

  WorkloadConfig workload;
  int queue_capacity = 6;
  /// Failure-injection extension (off by default).
  FailureModel failures;
  /// Approximate-computing extension. Enabled automatically when the
  /// dropper kind is Approx; can also be enabled standalone.
  ApproxModel approx;
  int trials = 8;
  std::uint64_t seed = 42;
  /// Warm-up/cool-down exclusion (section V-A: first and last 100 tasks).
  int exclude_head = 100;
  int exclude_tail = 100;
  int candidate_window = 256;

  bool operator==(const ExperimentConfig&) const = default;
};

struct ExperimentResult {
  std::vector<TrialMetrics> trials;
  Summary robustness;       ///< % tasks completed on time
  Summary utility;          ///< approx-weighted robustness (== robustness
                            ///< when the approx extension is off)
  Summary normalized_cost;  ///< Fig. 9 metric
  Summary reactive_share;   ///< % of queue drops that were reactive
};

/// Runs all trials of one configuration, in parallel across hardware
/// threads. Trial i uses workload seed derive(seed, i) and execution seed
/// derive(seed, 1000 + i); results are bitwise reproducible for a fixed
/// toolchain regardless of thread scheduling. Throws std::invalid_argument
/// for trials < 1 and for unknown mapper/dropper names.
///
/// `prebuilt` lets a sweep share one Scenario (the PET matrix depends only
/// on (scenario, seed), so figures build it once).
ExperimentResult run_experiment(const ExperimentConfig& config,
                                const Scenario* prebuilt = nullptr);

/// One trial of `config` against a prebuilt scenario — the kernel shared by
/// run_experiment and the SweepRunner, so a sweep cell and a standalone
/// run_experiment on the same config are bitwise-identical by construction.
/// `cost_model` must be built from `scenario.profile.cost_per_hour`.
/// When `replay` is non-null the trial's full environment trace and
/// decision stream are recorded into it (see Engine::set_replay_log) — the
/// differential replay suite records paper-config trials this way.
TrialMetrics run_trial(const ExperimentConfig& config,
                       const Scenario& scenario, const CostModel& cost_model,
                       std::size_t trial, ReplayLog* replay = nullptr);

/// Reduces per-trial metrics into the summaries of ExperimentResult.
ExperimentResult summarize_trials(std::vector<TrialMetrics> trials);

/// The scenario a config would build (for sharing across a sweep).
Scenario build_scenario(const ExperimentConfig& config);

}  // namespace taskdrop
