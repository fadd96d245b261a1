#include "core/proactive_heuristic_dropper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/null_dropper.hpp"
#include "online/system_state.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

/// Task types on one machine type:
///   0 "big":    {10: 1.0}
///   1 "small":  {1: 1.0}
///   2 "medium": {5: 1.0}
///   3 "coin":   {2: 0.5, 20: 0.5}
PetMatrix dropper_pet() {
  return pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}, {{{5, 1.0}}},
                 {{{2, 0.5}, {20, 0.5}}}});
}

TEST(HeuristicDropper, DropsHopelessHeadThatBlocksSuccessors) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  // Head: big task that cannot finish by 5 (chance 0) but would occupy the
  // machine for 10 ticks, dooming both small successors.
  const TaskId big = system.enqueue(0, /*type=*/0, /*deadline=*/5);
  system.enqueue(0, /*type=*/1, /*deadline=*/3);
  system.enqueue(0, /*type=*/1, /*deadline=*/4);

  ProactiveHeuristicDropper dropper;  // eta=2, beta=1
  dropper.run(system.view(), system);

  ASSERT_EQ(system.dropped().size(), 1u);
  EXPECT_EQ(system.dropped().front(), big);
  // The survivors are now certain to succeed.
  EXPECT_NEAR(system.model(0).chance(0), 1.0, 1e-12);
  EXPECT_NEAR(system.model(0).chance(1), 1.0, 1e-12);
}

TEST(HeuristicDropper, NeverDropsTheLastTask) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  // A single hopeless task: its influence zone is null (section IV-D), so
  // proactive dropping must leave it alone.
  system.enqueue(0, /*type=*/0, /*deadline=*/2);
  ProactiveHeuristicDropper dropper;
  dropper.run(system.view(), system);
  EXPECT_TRUE(system.dropped().empty());
  EXPECT_EQ(system.machine(0).queue.size(), 1u);
}

TEST(HeuristicDropper, NeverDropsTheRunningTask) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  const TaskId running = system.enqueue(0, /*type=*/0, /*deadline=*/5);
  system.enqueue(0, /*type=*/1, /*deadline=*/3);
  system.enqueue(0, /*type=*/1, /*deadline=*/4);
  system.set_running(0, /*run_start=*/0);

  ProactiveHeuristicDropper dropper;
  dropper.run(system.view(), system);
  // The hopeless running task is untouchable (no preemption); at most the
  // pending tasks may go. The first queued position must still hold it.
  EXPECT_EQ(system.machine(0).queue.front(), running);
  for (TaskId dropped : system.dropped()) EXPECT_NE(dropped, running);
}

TEST(HeuristicDropper, LargeBetaDisablesDropping) {
  // Note the queue must carry *some* robustness: Eq. 8 with a zero
  // keep-sum (R_keep = 0) confirms a drop for any beta, because any gain
  // beats beta * 0 — dropping is then strictly beneficial no matter how
  // conservative the factor. With positive keep-sum, beta -> infinity
  // disables dropping as section IV-E describes.
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  system.enqueue(0, 3, 3);  // coin: chance 0.5
  system.enqueue(0, 1, 4);
  system.enqueue(0, 1, 5);
  ProactiveHeuristicDropper dropper(
      ProactiveHeuristicDropper::Params{2, 1e9});
  dropper.run(system.view(), system);
  EXPECT_TRUE(system.dropped().empty());
}

TEST(HeuristicDropper, BetaGatesMarginalGains) {
  const PetMatrix pet = dropper_pet();
  // Head "coin" task (delta=3): chance 0.5. Two small successors with
  // deadlines 4 and 5: each has chance 0.5 behind the coin, 1.0 without it.
  // Eq. 8: gain 2.0 vs beta * keep 1.5 -> drops at beta=1, not at beta=1.5.
  for (const double beta : {1.0, 1.5}) {
    SystemState system(pet, {0}, 6);
    system.enqueue(0, 3, 3);
    system.enqueue(0, 1, 4);
    system.enqueue(0, 1, 5);
    ProactiveHeuristicDropper dropper(
        ProactiveHeuristicDropper::Params{2, beta});
    dropper.run(system.view(), system);
    if (beta == 1.0) {
      EXPECT_EQ(system.dropped().size(), 1u) << "beta " << beta;
    } else {
      EXPECT_TRUE(system.dropped().empty()) << "beta " << beta;
    }
  }
}

TEST(HeuristicDropper, EffectiveDepthOneMissesDeeperGains) {
  const PetMatrix pet = dropper_pet();
  // Head: medium task (5 ticks, deadline 4 -> own chance 0, still occupies
  // the machine until 5). Successor 1 (deadline 7) succeeds either way;
  // successor 2 (deadline 3) succeeds only if the head is dropped.
  // eta=1 sees no gain; eta=2 sees it (the paper's Fig. 5 argument for
  // eta=1 being "not effective").
  for (const int eta : {1, 2}) {
    SystemState system(pet, {0}, 6);
    system.enqueue(0, 2, 4);
    system.enqueue(0, 1, 7);
    system.enqueue(0, 1, 3);
    ProactiveHeuristicDropper dropper(
        ProactiveHeuristicDropper::Params{eta, 1.0});
    dropper.run(system.view(), system);
    if (eta == 1) {
      EXPECT_TRUE(system.dropped().empty()) << "eta " << eta;
    } else {
      EXPECT_EQ(system.dropped().size(), 1u) << "eta " << eta;
    }
  }
}

TEST(HeuristicDropper, SinglePassReexaminesShiftedPosition) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  // Two risky coin tasks (deadline 3: each succeeds with 0.5 alone, dooms
  // everything behind it on the slow branch) ahead of two certain smalls.
  // Dropping the first coin is worthwhile; the second coin then shifts into
  // the examined position and must be evaluated — and dropped — in the same
  // pass.
  system.enqueue(0, 3, 3);
  system.enqueue(0, 3, 3);
  system.enqueue(0, 1, 4);
  system.enqueue(0, 1, 5);
  ProactiveHeuristicDropper dropper;
  dropper.run(system.view(), system);
  EXPECT_EQ(system.dropped().size(), 2u);
  EXPECT_EQ(system.machine(0).queue.size(), 2u);
  EXPECT_NEAR(system.model(0).instantaneous_robustness(), 2.0, 1e-12);
}

TEST(HeuristicDropper, SecondRunOnUnchangedQueueIsIdempotent) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  system.enqueue(0, 0, 5);
  system.enqueue(0, 1, 3);
  system.enqueue(0, 1, 4);
  ProactiveHeuristicDropper dropper;
  dropper.run(system.view(), system);
  const std::size_t after_first = system.dropped().size();
  dropper.run(system.view(), system);
  EXPECT_EQ(system.dropped().size(), after_first);
}

TEST(HeuristicDropper, FreshDropperReachesSameFixpoint) {
  // The version-skip memoisation must not change decisions: a brand-new
  // dropper (no memo) on the post-pass queue finds nothing to drop either.
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  system.enqueue(0, 0, 5);
  system.enqueue(0, 3, 6);
  system.enqueue(0, 1, 3);
  system.enqueue(0, 1, 4);
  ProactiveHeuristicDropper first;
  first.run(system.view(), system);
  const std::size_t dropped = system.dropped().size();
  ProactiveHeuristicDropper fresh;
  fresh.run(system.view(), system);
  EXPECT_EQ(system.dropped().size(), dropped);
}

TEST(HeuristicDropper, NoDropsWhenEveryTaskIsCertain) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  for (int i = 0; i < 5; ++i) {
    system.enqueue(0, /*type=*/1, /*deadline=*/100 + i);
  }
  ProactiveHeuristicDropper dropper;
  dropper.run(system.view(), system);
  EXPECT_TRUE(system.dropped().empty());
}

TEST(HeuristicDropper, WindowClampsWhenFewerSuccessorsThanEta) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  system.enqueue(0, 0, 5);  // hopeless head
  system.enqueue(0, 1, 3);  // single successor
  ProactiveHeuristicDropper dropper(ProactiveHeuristicDropper::Params{5, 1.0});
  dropper.run(system.view(), system);
  EXPECT_EQ(system.dropped().size(), 1u);
}

TEST(HeuristicDropper, MultiMachinePassCoversAllQueues) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0, 0}, 6);
  system.enqueue(0, 0, 5);
  system.enqueue(0, 1, 3);
  system.enqueue(0, 1, 4);
  system.enqueue(1, 0, 5);
  system.enqueue(1, 1, 3);
  system.enqueue(1, 1, 4);
  ProactiveHeuristicDropper dropper;
  dropper.run(system.view(), system);
  EXPECT_EQ(system.dropped().size(), 2u);
  EXPECT_EQ(system.machine(0).queue.size(), 2u);
  EXPECT_EQ(system.machine(1).queue.size(), 2u);
}

/// Reference for the memoised heuristic: the same single pass with a
/// direct window_chance_sum walk per position (no memo) and its own
/// examined-revision skip. The memoised dropper must match it decision for
/// decision.
class DirectWindowDropper final : public Dropper {
 public:
  std::string_view name() const override { return "DirectWindow"; }

  void run(SystemView& view, SchedulerOps& ops) override {
    const ProactiveHeuristicDropper::Params params;
    const auto eta = static_cast<std::size_t>(params.effective_depth);
    examined_.resize(view.machines->size(), ~std::uint64_t{0});
    for (Machine& machine : *view.machines) {
      CompletionModel& model =
          (*view.models)[static_cast<std::size_t>(machine.id)];
      auto& examined = examined_[static_cast<std::size_t>(machine.id)];
      if (model.revision() == examined) continue;
      std::size_t pos = machine.first_pending_pos();
      while (pos + 1 < machine.queue.size()) {
        const std::size_t window_end =
            std::min(pos + eta, machine.queue.size() - 1);
        double keep_sum = 0.0;
        for (std::size_t n = pos; n <= window_end; ++n) {
          keep_sum += model.chance(n);
        }
        const double drop_sum = window_chance_sum(
            model.predecessor(pos), machine, *view.tasks, *view.pet, pos + 1,
            window_end, view.approx_pet, &ws_);
        if (drop_sum > params.beta * keep_sum) {
          ops.drop_queued_task(machine.id, pos);
        } else {
          ++pos;
        }
      }
      examined = model.revision();
    }
  }

 private:
  std::vector<std::uint64_t> examined_;
  PmfWorkspace ws_;
};

/// Decision stream of one seeded, oversubscribed SpecHC engine trial (PAM
/// mapper) with `dropper`.
std::vector<Decision> trial_decisions(Dropper& dropper, std::uint64_t seed,
                                      int queue_capacity, bool conditioned) {
  const Scenario scenario = make_scenario(ScenarioKind::SpecHC, seed);
  WorkloadConfig workload;
  workload.n_tasks = 600;
  workload.oversubscription = 6.0;
  workload.seed = seed;
  const Trace trace =
      generate_trace(scenario.pet, scenario.machine_count(), workload);
  auto mapper = make_mapper("PAM");
  EngineConfig config;
  config.queue_capacity = queue_capacity;
  config.condition_running = conditioned;
  config.exec_seed = seed + 1000;
  Engine engine(scenario.pet, scenario.profile.machine_types, *mapper,
                dropper, config);
  ReplayLog log;
  engine.set_replay_log(&log);
  engine.run(trace);
  return log.decisions;
}

TEST(HeuristicDropper, WindowMemoMatchesDirectWalkInEngineTrials) {
  // Conditioned 24-deep queues are the regime where the memo answers most
  // windows (the conditioned set_now keep bumps the revision without
  // touching the chain); unconditioned 6-deep queues are the paper's.
  struct Case {
    int queue_capacity;
    bool conditioned;
  };
  for (const Case c : {Case{24, true}, Case{6, false}}) {
    for (const std::uint64_t seed : {3u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "capacity " << c.queue_capacity << ", conditioned "
                   << c.conditioned << ", seed " << seed);
      DirectWindowDropper direct;
      ProactiveHeuristicDropper memoised;
      const std::vector<Decision> expected =
          trial_decisions(direct, seed, c.queue_capacity, c.conditioned);
      const std::vector<Decision> actual =
          trial_decisions(memoised, seed, c.queue_capacity, c.conditioned);
      ASSERT_EQ(actual.size(), expected.size());
      const auto proactive = std::count_if(
          expected.begin(), expected.end(), [](const Decision& d) {
            return d.kind == DecisionKind::DropProactive;
          });
      EXPECT_GT(proactive, 0) << "the trial never exercised Eq. 8";
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i], expected[i]) << "decision " << i;
      }
    }
  }
}

TEST(NullDropper, NeverDropsAnything) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  system.enqueue(0, 0, 2);  // hopeless
  system.enqueue(0, 1, 3);
  NullDropper dropper;
  dropper.run(system.view(), system);
  EXPECT_TRUE(system.dropped().empty());
  EXPECT_EQ(dropper.name(), "ReactDrop");
}

}  // namespace
}  // namespace taskdrop
