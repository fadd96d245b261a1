#include "exp/experiment.hpp"

#include <optional>
#include <stdexcept>

#include "cost/cost_model.hpp"
#include "util/thread_pool.hpp"

namespace taskdrop {

Scenario build_scenario(const ExperimentConfig& config) {
  return make_scenario(config.scenario, config.seed);
}

EngineConfig ExperimentConfig::engine_config(std::size_t trial) const {
  EngineConfig engine;
  engine.queue_capacity = queue_capacity;
  engine.engagement = engagement;
  engine.condition_running = condition_running;
  engine.paranoid_invalidate = paranoid_invalidate;
  engine.exec_seed = Rng::derive(seed, 1000 + trial)();
  engine.failures = failures;
  engine.failures.seed = Rng::derive(seed, 2000 + trial)();
  engine.approx = approx;
  if (dropper.kind == DropperConfig::Kind::Approx) engine.approx.enabled = true;
  return engine;
}

TrialMetrics run_trial(const ExperimentConfig& config,
                       const Scenario& scenario, const CostModel& cost_model,
                       std::size_t trial, ReplayLog* replay) {
  WorkloadConfig workload = config.workload;
  workload.seed = Rng::derive(config.seed, trial)();

  const Trace trace =
      generate_trace(scenario.pet, scenario.machine_count(), workload);

  auto mapper = make_mapper(config.mapper, config.candidate_window);
  auto dropper = make_dropper(config.dropper);

  const EngineConfig engine_config = config.engine_config(trial);
  Engine engine(scenario.pet, scenario.profile.machine_types, *mapper,
                *dropper, engine_config);
  engine.set_replay_log(replay);
  const SimResult result = engine.run(trace);
  return compute_trial_metrics(result, cost_model, config.exclude_head,
                               config.exclude_tail,
                               engine_config.approx.utility_weight);
}

ExperimentResult summarize_trials(std::vector<TrialMetrics> trials) {
  ExperimentResult out;
  out.robustness = summarize(series(trials, &TrialMetrics::robustness_pct));
  out.utility = summarize(series(trials, &TrialMetrics::utility_pct));
  out.normalized_cost =
      summarize(series(trials, &TrialMetrics::normalized_cost));
  out.reactive_share =
      summarize(series(trials, &TrialMetrics::reactive_drop_share_pct));
  out.trials = std::move(trials);
  return out;
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const Scenario* prebuilt) {
  if (config.trials < 1) {
    throw std::invalid_argument("experiment trials must be >= 1, got " +
                                std::to_string(config.trials));
  }
  std::optional<Scenario> local;
  const Scenario* scenario = prebuilt;
  // Validate the mapper/dropper names on the calling thread: an exception
  // escaping a pool worker would std::terminate instead of reaching the
  // caller's catch.
  make_mapper(config.mapper, config.candidate_window);
  make_dropper(config.dropper);

  if (scenario == nullptr) {
    local.emplace(build_scenario(config));
    scenario = &*local;
  }
  const CostModel cost_model(scenario->profile.cost_per_hour);

  std::vector<TrialMetrics> trials(static_cast<std::size_t>(config.trials));
  ThreadPool::parallel_for(trials.size(), [&](std::size_t trial) {
    trials[trial] = run_trial(config, *scenario, cost_model, trial);
  });

  return summarize_trials(std::move(trials));
}

}  // namespace taskdrop
