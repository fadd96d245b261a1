#include "online/replay.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "exp/experiment.hpp"
#include "online/online_scheduler.hpp"
#include "sched/registry.hpp"
#include "workload/scenario.hpp"

namespace taskdrop {
namespace {

/// Differential replay: record one engine-driven trial's environment trace,
/// feed it back through a freshly constructed OnlineScheduler via the
/// wall-clock callback API, and require the decision stream and every
/// per-task outcome to be bit-identical. This is the lockdown proving the
/// engine is just one driver of the same decision kernels.
struct ReplayCase {
  std::string name;
  ExperimentConfig config;
};

ExperimentConfig paper_config(ScenarioKind scenario, const std::string& mapper,
                              DropperConfig dropper, int n_tasks,
                              double oversubscription, std::uint64_t seed) {
  ExperimentConfig config;
  config.scenario = scenario;
  config.mapper = mapper;
  config.dropper = dropper;
  config.workload.n_tasks = n_tasks;
  config.workload.oversubscription = oversubscription;
  config.seed = seed;
  return config;
}

std::vector<ReplayCase> replay_cases() {
  std::vector<ReplayCase> cases;
  cases.push_back({"spec_hc_pam_heuristic",
                   paper_config(ScenarioKind::SpecHC, "PAM",
                                DropperConfig::heuristic(), 600, 3.0, 11)});
  cases.push_back({"video_mm_threshold",
                   paper_config(ScenarioKind::Video, "MM",
                                DropperConfig::threshold(), 500, 2.5, 12)});
  {
    // Deferring mapper: PAMD leaves unmapped tasks in the batch queue, so
    // the replay exercises ExpireUnmapped decisions and Advance events
    // (drain-time mapping wakeups).
    ReplayCase c{"spec_hc_pamd_deferring",
                 paper_config(ScenarioKind::SpecHC, "PAMD",
                              DropperConfig::heuristic(), 500, 4.0, 13)};
    cases.push_back(c);
  }
  {
    // Failure injection: machine_down/machine_up callbacks, LostToFailure
    // decisions, stale completions replayed as Advance events.
    ReplayCase c{"spec_hc_failures",
                 paper_config(ScenarioKind::SpecHC, "PAM",
                              DropperConfig::heuristic(), 500, 3.0, 14)};
    c.config.failures.enabled = true;
    c.config.failures.mean_time_between_failures = 4000.0;
    c.config.failures.mean_time_to_repair = 800.0;
    cases.push_back(c);
  }
  {
    // OnDeadlineMiss engagement: the dropper-invocation gating depends on
    // deadline_miss_pending_ crossing the callback boundary correctly.
    ReplayCase c{"spec_hc_on_miss",
                 paper_config(ScenarioKind::SpecHC, "PAM",
                              DropperConfig::heuristic(), 500, 3.0, 15)};
    c.config.engagement = DropperEngagement::OnDeadlineMiss;
    cases.push_back(c);
  }
  {
    // Approximate-computing extension: Downgrade decisions plus the
    // time-scaled PET on both the decision and the sampling side.
    ReplayCase c{"video_approx",
                 paper_config(ScenarioKind::Video, "PAM",
                              DropperConfig::approximate(), 400, 3.0, 16)};
    c.config.approx.enabled = true;
    cases.push_back(c);
  }
  {
    // Conditioned-running ablation: chain rebuilds on every start.
    ReplayCase c{"spec_hc_conditioned",
                 paper_config(ScenarioKind::SpecHC, "MSD",
                              DropperConfig::optimal(), 300, 3.0, 17)};
    c.config.condition_running = true;
    cases.push_back(c);
  }
  return cases;
}

TEST(OnlineReplay, ReproducesEngineDecisionsBitIdentically) {
  for (const ReplayCase& test_case : replay_cases()) {
    SCOPED_TRACE(test_case.name);
    const Scenario scenario = build_scenario(test_case.config);
    const CostModel cost_model(scenario.profile.cost_per_hour);

    ReplayLog log;
    run_trial(test_case.config, scenario, cost_model, 0, &log);
    ASSERT_FALSE(log.events.empty());
    ASSERT_FALSE(log.decisions.empty());

    auto mapper = make_mapper(test_case.config.mapper,
                              test_case.config.candidate_window);
    auto dropper = make_dropper(test_case.config.dropper);
    OnlineScheduler scheduler(
        scenario.pet, scenario.profile.machine_types, *mapper, *dropper,
        test_case.config.engine_config(0).online_config());
    const std::vector<Decision> replayed = replay_decisions(scheduler, log);

    ASSERT_EQ(replayed.size(), log.decisions.size());
    for (std::size_t i = 0; i < replayed.size(); ++i) {
      ASSERT_EQ(replayed[i], log.decisions[i])
          << "decision " << i << ": engine {" << log.decisions[i]
          << "} vs replay {" << replayed[i] << "}";
    }
  }
}

TEST(OnlineReplay, ReproducesPerTaskOutcomesAndMetrics) {
  for (const ReplayCase& test_case : replay_cases()) {
    SCOPED_TRACE(test_case.name);
    const Scenario scenario = build_scenario(test_case.config);
    const CostModel cost_model(scenario.profile.cost_per_hour);

    ReplayLog log;
    const TrialMetrics engine_metrics =
        run_trial(test_case.config, scenario, cost_model, 0, &log);

    auto mapper = make_mapper(test_case.config.mapper,
                              test_case.config.candidate_window);
    auto dropper = make_dropper(test_case.config.dropper);
    OnlineScheduler scheduler(
        scenario.pet, scenario.profile.machine_types, *mapper, *dropper,
        test_case.config.engine_config(0).online_config());
    replay_decisions(scheduler, log);

    // Rebuild the SimResult from the replayed scheduler and require the
    // figure metrics to match exactly — the decision streams agreeing is
    // necessary but not sufficient; times and busy accounting must too.
    SimResult replayed;
    replayed.machine_types = scenario.profile.machine_types;
    for (const Machine& machine : scheduler.machines()) {
      replayed.busy_ticks.push_back(machine.busy_ticks);
      EXPECT_TRUE(machine.queue.empty());
    }
    replayed.makespan = scheduler.now();
    replayed.mapping_events = scheduler.mapping_events();
    replayed.dropper_invocations = scheduler.dropper_invocations();
    replayed.tasks = scheduler.take_tasks();

    for (const Task& task : replayed.tasks) {
      EXPECT_TRUE(is_terminal(task.state)) << to_string(task.state);
    }

    const double utility_weight =
        test_case.config.engine_config(0).approx.utility_weight;
    const TrialMetrics replay_metrics = compute_trial_metrics(
        replayed, cost_model, test_case.config.exclude_head,
        test_case.config.exclude_tail, utility_weight);
    EXPECT_EQ(engine_metrics.robustness_pct, replay_metrics.robustness_pct);
    EXPECT_EQ(engine_metrics.utility_pct, replay_metrics.utility_pct);
    EXPECT_EQ(engine_metrics.normalized_cost, replay_metrics.normalized_cost);
    EXPECT_EQ(engine_metrics.reactive_drop_share_pct,
              replay_metrics.reactive_drop_share_pct);
  }
}

TEST(OnlineReplay, RecordedDecisionsCoverEveryTerminalTask) {
  // Sanity on the log itself: every task must end in exactly one terminal
  // decision, so a consumer of the stream can account for the whole trace.
  ReplayCase test_case{"spec_hc_pam_heuristic",
                       paper_config(ScenarioKind::SpecHC, "PAM",
                                    DropperConfig::heuristic(), 400, 3.0, 21)};
  const Scenario scenario = build_scenario(test_case.config);
  const CostModel cost_model(scenario.profile.cost_per_hour);
  ReplayLog log;
  run_trial(test_case.config, scenario, cost_model, 0, &log);

  std::vector<int> terminal_count(log.tasks.size(), 0);
  for (const Decision& decision : log.decisions) {
    if (is_terminal(decision.kind)) {
      ++terminal_count[static_cast<std::size_t>(decision.task)];
    }
  }
  for (std::size_t i = 0; i < terminal_count.size(); ++i) {
    EXPECT_EQ(terminal_count[i], 1) << "task " << i;
  }
}

TEST(OnlineReplay, RejectsReusedScheduler) {
  const ExperimentConfig config = paper_config(
      ScenarioKind::SpecHC, "PAM", DropperConfig::heuristic(), 50, 2.0, 22);
  const Scenario scenario = build_scenario(config);
  const CostModel cost_model(scenario.profile.cost_per_hour);
  ReplayLog log;
  run_trial(config, scenario, cost_model, 0, &log);

  auto mapper = make_mapper(config.mapper, config.candidate_window);
  auto dropper = make_dropper(config.dropper);
  OnlineScheduler scheduler(scenario.pet, scenario.profile.machine_types,
                            *mapper, *dropper,
                            config.engine_config(0).online_config());
  replay_decisions(scheduler, log);
  EXPECT_THROW(replay_decisions(scheduler, log), std::invalid_argument);
}

}  // namespace
}  // namespace taskdrop
