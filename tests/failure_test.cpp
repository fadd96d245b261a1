// Failure-injection extension tests (section VI future work: resource
// failure as a compound uncertainty source).
#include <gtest/gtest.h>

#include "core/null_dropper.hpp"
#include "core/proactive_heuristic_dropper.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

SimResult run_with_failures(double mtbf, double mttr, std::uint64_t seed,
                            int n_tasks = 300, bool paranoid = false,
                            bool conditioned = false) {
  const Scenario scenario = make_scenario(ScenarioKind::SpecHC, seed);
  WorkloadConfig workload;
  workload.n_tasks = n_tasks;
  workload.oversubscription = 2.0;
  workload.seed = seed;
  const Trace trace =
      generate_trace(scenario.pet, scenario.machine_count(), workload);
  auto mapper = make_mapper("PAM");
  ProactiveHeuristicDropper dropper;
  EngineConfig config;
  config.exec_seed = seed;
  config.failures.enabled = mtbf > 0.0;
  config.failures.mean_time_between_failures = mtbf;
  config.failures.mean_time_to_repair = mttr;
  config.failures.seed = seed ^ 0xF;
  config.paranoid_invalidate = paranoid;
  config.condition_running = conditioned;
  Engine engine(scenario.pet, scenario.profile.machine_types, *mapper, dropper,
                config);
  return engine.run(trace);
}

/// Full-result bitwise comparison: every per-task outcome and every
/// machine's billed time must match exactly.
void expect_results_identical(const SimResult& a, const SimResult& b,
                              const char* what) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size()) << what;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    ASSERT_EQ(a.tasks[i].state, b.tasks[i].state) << what << " task " << i;
    ASSERT_EQ(a.tasks[i].machine, b.tasks[i].machine) << what << " task " << i;
    ASSERT_EQ(a.tasks[i].start_time, b.tasks[i].start_time)
        << what << " task " << i;
    ASSERT_EQ(a.tasks[i].finish_time, b.tasks[i].finish_time)
        << what << " task " << i;
    ASSERT_EQ(a.tasks[i].drop_time, b.tasks[i].drop_time)
        << what << " task " << i;
  }
  ASSERT_EQ(a.busy_ticks, b.busy_ticks) << what;
}

TEST(FailureInjection, SimulationDrainsAndConservesTasks) {
  const SimResult result = run_with_failures(5000.0, 1000.0, 11);
  EXPECT_EQ(result.counts().total(), 300);
  for (const Task& task : result.tasks) {
    EXPECT_TRUE(is_terminal(task.state));
  }
}

TEST(FailureInjection, FrequentFailuresLoseTasksAndRobustness) {
  const SimResult healthy = run_with_failures(0.0, 0.0, 12);
  const SimResult flaky = run_with_failures(4000.0, 2000.0, 12);
  EXPECT_EQ(healthy.counts().lost_to_failure, 0);
  EXPECT_GT(flaky.counts().lost_to_failure, 0);
  EXPECT_LT(flaky.robustness_pct(0, 0), healthy.robustness_pct(0, 0));
}

TEST(FailureInjection, LostTasksWereRunningWhenKilled) {
  const SimResult result = run_with_failures(4000.0, 2000.0, 13);
  for (const Task& task : result.tasks) {
    if (task.state == TaskState::LostToFailure) {
      EXPECT_NE(task.start_time, kNeverTick);  // it had started
      EXPECT_GE(task.drop_time, task.start_time);
      EXPECT_GE(task.machine, 0);
    }
  }
}

TEST(FailureInjection, PartialExecutionIsBilled) {
  // A deterministic 10-tick task killed mid-run must contribute the elapsed
  // portion to busy_ticks, not the full duration.
  const PetMatrix pet = pet_of({{{{10, 1.0}}}});
  const Trace trace = {{0, 0, 1000}};
  auto mapper = make_mapper("FCFS");
  NullDropper dropper;
  EngineConfig config;
  config.failures.enabled = true;
  // Mean up-time 4 ticks: the machine almost surely fails before tick 10.
  config.failures.mean_time_between_failures = 4.0;
  config.failures.mean_time_to_repair = 5.0;
  config.failures.seed = 3;
  Engine engine(pet, {0}, *mapper, dropper, config);
  const SimResult result = engine.run(trace);
  if (result.tasks[0].state == TaskState::LostToFailure) {
    EXPECT_GT(result.busy_ticks[0], 0);
    EXPECT_LT(result.busy_ticks[0], 10);
  } else {
    // The failure happened to land after completion; then billing is full.
    EXPECT_EQ(result.busy_ticks[0], 10);
  }
}

TEST(FailureInjection, DownMachineAcceptsNoAssignments) {
  // One machine that fails almost immediately and repairs slowly, plus a
  // healthy one: all completed tasks must have run on a machine while it
  // was up (machine 0 completes nothing before its first recovery window).
  const SimResult result = run_with_failures(500.0, 50000.0, 14, 100);
  // Sanity: the run drains despite machines spending most time down.
  EXPECT_EQ(result.counts().total(), 100);
}

TEST(FailureInjection, DeterministicGivenSeeds) {
  const SimResult a = run_with_failures(4000.0, 2000.0, 15);
  const SimResult b = run_with_failures(4000.0, 2000.0, 15);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].state, b.tasks[i].state);
    EXPECT_EQ(a.tasks[i].finish_time, b.tasks[i].finish_time);
  }
}

TEST(FailureInjection, ProactiveDroppingStillHelpsUnderFailures) {
  const Scenario scenario = make_scenario(ScenarioKind::SpecHC, 16);
  WorkloadConfig workload;
  workload.n_tasks = 600;
  workload.oversubscription = 3.0;
  workload.seed = 16;
  const Trace trace =
      generate_trace(scenario.pet, scenario.machine_count(), workload);

  auto run_one = [&](bool proactive) {
    auto mapper = make_mapper("PAM");
    auto dropper = make_dropper(proactive ? DropperConfig::heuristic()
                                          : DropperConfig::reactive_only());
    EngineConfig config;
    config.exec_seed = 16;
    config.failures.enabled = true;
    config.failures.mean_time_between_failures = 20000.0;
    config.failures.mean_time_to_repair = 2000.0;
    config.failures.seed = 77;
    Engine engine(scenario.pet, scenario.profile.machine_types, *mapper,
                  *dropper, config);
    return engine.run(trace).robustness_pct();
  };
  EXPECT_GT(run_one(true), run_one(false));
}

TEST(FailureInjection, ChainKeepDecisionsBitIdenticalToParanoidInvalidate) {
  // The chain-keep fast paths (notify_head_started on starts in a failing
  // fleet, the conditioned set_now keep) are pure cache
  // optimisations: against the paranoid invalidate-and-rebuild scheduler
  // they must produce the same SimResult bit for bit, failures included.
  for (const bool conditioned : {false, true}) {
    const char* what = conditioned ? "conditioned" : "unconditioned";
    const SimResult keep =
        run_with_failures(4000.0, 2000.0, 21, 300, /*paranoid=*/false,
                          conditioned);
    const SimResult paranoid =
        run_with_failures(4000.0, 2000.0, 21, 300, /*paranoid=*/true,
                          conditioned);
    expect_results_identical(keep, paranoid, what);
  }
}

TEST(FailureInjection, VolatileFlagAloneKeepsDecisionsIdentical) {
  // Satellite regression for the old blanket invalidate at task_started:
  // a fleet *declared* volatile (failures enabled) whose machines happen to
  // stay up the whole run must decide exactly like the paranoid rebuild —
  // the keep is exercised on every start, the failure path never fires.
  const double kQuietMtbf = 1e12;
  const SimResult keep =
      run_with_failures(kQuietMtbf, 1000.0, 22, 250, /*paranoid=*/false);
  const SimResult paranoid =
      run_with_failures(kQuietMtbf, 1000.0, 22, 250, /*paranoid=*/true);
  EXPECT_EQ(keep.counts().lost_to_failure, 0);
  expect_results_identical(keep, paranoid, "volatile-only");
}

TEST(FailureInjection, RecoveryRestartsTheQueue) {
  // Machine fails while running, recovers, and still finishes later work:
  // some tasks must complete even with failures on a single machine.
  const PetMatrix pet = pet_of({{{{5, 1.0}}}});
  Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(TaskSpec{0, i * 10, i * 10 + 500});
  }
  auto mapper = make_mapper("FCFS");
  NullDropper dropper;
  EngineConfig config;
  config.failures.enabled = true;
  config.failures.mean_time_between_failures = 30.0;
  config.failures.mean_time_to_repair = 10.0;
  config.failures.seed = 9;
  Engine engine(pet, {0}, *mapper, dropper, config);
  const SimResult result = engine.run(trace);
  EXPECT_EQ(result.counts().total(), 20);
  EXPECT_GT(result.counts().completed_on_time, 0);
  EXPECT_GT(result.counts().lost_to_failure, 0);
}

}  // namespace
}  // namespace taskdrop
