#include "core/optimal_dropper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/proactive_heuristic_dropper.hpp"
#include "online/system_state.hpp"
#include "prob/convolution.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

/// Same palette as dropper_test: big {10}, small {1}, medium {5},
/// coin {2: 0.5, 20: 0.5}.
PetMatrix dropper_pet() {
  return pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}, {{{5, 1.0}}},
                 {{{2, 0.5}, {20, 0.5}}}});
}

TEST(OptimalDropper, NoDropsWhenEverythingIsCertain) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  for (int i = 0; i < 5; ++i) {
    system.enqueue(0, /*type=*/1, /*deadline=*/100 + i);
  }
  OptimalDropper dropper;
  dropper.run(system.view(), system);
  EXPECT_TRUE(system.dropped().empty());
}

TEST(OptimalDropper, DropsHopelessBlockingHead) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  const TaskId big = system.enqueue(0, 0, 5);
  system.enqueue(0, 1, 3);
  system.enqueue(0, 1, 4);
  OptimalDropper dropper;
  dropper.run(system.view(), system);
  ASSERT_EQ(system.dropped().size(), 1u);
  EXPECT_EQ(system.dropped().front(), big);
  EXPECT_NEAR(system.model(0).instantaneous_robustness(), 2.0, 1e-12);
}

TEST(OptimalDropper, CollectiveDropBeatsGreedySinglePass) {
  // Section IV-D's motivating case: two consecutive hopeless big tasks
  // block two certain small ones. Dropping either big alone gains nothing
  // (the other still blocks), so the greedy heuristic keeps both; only the
  // *collective* view finds that dropping both rescues the smalls.
  const PetMatrix pet = dropper_pet();

  SystemState greedy(pet, {0}, 6);
  greedy.enqueue(0, 0, 5);
  greedy.enqueue(0, 0, 6);
  greedy.enqueue(0, 1, 3);
  greedy.enqueue(0, 1, 4);
  ProactiveHeuristicDropper heuristic;
  heuristic.run(greedy.view(), greedy);
  EXPECT_TRUE(greedy.dropped().empty());
  EXPECT_NEAR(greedy.model(0).instantaneous_robustness(), 0.0, 1e-12);

  SystemState optimal(pet, {0}, 6);
  optimal.enqueue(0, 0, 5);
  optimal.enqueue(0, 0, 6);
  optimal.enqueue(0, 1, 3);
  optimal.enqueue(0, 1, 4);
  OptimalDropper dropper;
  dropper.run(optimal.view(), optimal);
  EXPECT_EQ(optimal.dropped().size(), 2u);
  EXPECT_NEAR(optimal.model(0).instantaneous_robustness(), 2.0, 1e-12);
}

TEST(OptimalDropper, NeverDropsLastOrRunningTask) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  const TaskId running = system.enqueue(0, 0, 5);   // hopeless but running
  system.enqueue(0, 0, 6);                          // hopeless pending
  const TaskId last = system.enqueue(0, 0, 7);      // hopeless last
  system.set_running(0, 0);
  OptimalDropper dropper;
  dropper.run(system.view(), system);
  for (TaskId dropped : system.dropped()) {
    EXPECT_NE(dropped, running);
    EXPECT_NE(dropped, last);
  }
  EXPECT_EQ(system.machine(0).queue.front(), running);
  EXPECT_EQ(system.machine(0).queue.back(), last);
}

TEST(OptimalDropper, PrefersFewerDropsOnTies) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  // Certain small tasks with huge slack: dropping any subset only removes
  // successful tasks; robustness is maximised by the empty subset.
  system.enqueue(0, 1, 1000);
  system.enqueue(0, 1, 1001);
  system.enqueue(0, 1, 1002);
  OptimalDropper dropper;
  dropper.run(system.view(), system);
  EXPECT_TRUE(system.dropped().empty());
}

TEST(OptimalDropper, AtLeastAsGoodAsHeuristicOnRandomQueues) {
  const PetMatrix pet = dropper_pet();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const int depth = static_cast<int>(rng.uniform_int(2, 6));
    std::vector<std::pair<TaskTypeId, Tick>> specs;
    for (int i = 0; i < depth; ++i) {
      specs.emplace_back(static_cast<TaskTypeId>(rng.uniform_int(0, 3)),
                         rng.uniform_int(2, 30));
    }
    SystemState for_heuristic(pet, {0}, depth + 1);
    SystemState for_optimal(pet, {0}, depth + 1);
    for (const auto& [type, deadline] : specs) {
      for_heuristic.enqueue(0, type, deadline);
      for_optimal.enqueue(0, type, deadline);
    }
    ProactiveHeuristicDropper heuristic;
    heuristic.run(for_heuristic.view(), for_heuristic);
    OptimalDropper optimal;
    optimal.run(for_optimal.view(), for_optimal);
    EXPECT_GE(for_optimal.model(0).instantaneous_robustness() + 1e-9,
              for_heuristic.model(0).instantaneous_robustness())
        << "seed " << seed;
  }
}

/// The pre-PR direct evaluation: rebuild the surviving chain from scratch
/// for every subset, scanning masks in ascending order with the same
/// epsilon tie-break. The prefix-sharing enumeration must select the
/// identical subset on every queue.
std::vector<TaskId> reference_best_drops(SystemState& system) {
  const Machine& machine = system.machine(0);
  CompletionModel& model = system.model(0);
  const std::vector<Task>& tasks = *system.view().tasks;
  const PetMatrix& pet = *system.view().pet;

  std::vector<std::size_t> droppable;
  for (std::size_t pos = machine.first_pending_pos();
       pos + 1 < machine.queue.size(); ++pos) {
    droppable.push_back(pos);
  }
  if (droppable.empty()) return {};

  const auto robustness_without = [&](unsigned mask) {
    double sum = 0.0;
    Pmf chain;
    std::size_t start = machine.first_pending_pos();
    if (machine.running) {
      sum += model.chance(0);
      chain = model.completion(0);
    } else {
      chain = model.predecessor(start);
    }
    std::size_t bit = 0;
    for (std::size_t pos = start; pos < machine.queue.size(); ++pos) {
      const bool dropped = bit < droppable.size() && droppable[bit] == pos &&
                           ((mask >> bit) & 1u);
      if (bit < droppable.size() && droppable[bit] == pos) ++bit;
      if (dropped) continue;
      const Task& task = tasks[static_cast<std::size_t>(machine.queue[pos])];
      chain = deadline_convolve(
          chain, execution_pmf(task, machine.type, pet, nullptr),
          task.deadline);
      sum += chain.mass_before(task.deadline);
    }
    return sum;
  };

  unsigned best_mask = 0;
  int best_popcount = 0;
  double best_robustness = robustness_without(0u);
  const unsigned subsets = 1u << droppable.size();
  for (unsigned mask = 1; mask < subsets; ++mask) {
    const double r = robustness_without(mask);
    const int popcount = __builtin_popcount(mask);
    if (r > best_robustness + 1e-12 ||
        (r > best_robustness - 1e-12 && popcount < best_popcount)) {
      best_robustness = r;
      best_mask = mask;
      best_popcount = popcount;
    }
  }
  std::vector<TaskId> drops;
  for (std::size_t bit = 0; bit < droppable.size(); ++bit) {
    if ((best_mask >> bit) & 1u) {
      drops.push_back(machine.queue[droppable[bit]]);
    }
  }
  return drops;
}

TEST(OptimalDropper, MatchesDirectSubsetEvaluationOnRandomQueues) {
  const PetMatrix pet = dropper_pet();
  for (std::uint64_t seed = 500; seed < 560; ++seed) {
    Rng rng(seed);
    const int depth = static_cast<int>(rng.uniform_int(2, 6));
    std::vector<std::pair<TaskTypeId, Tick>> specs;
    for (int i = 0; i < depth; ++i) {
      specs.emplace_back(static_cast<TaskTypeId>(rng.uniform_int(0, 3)),
                         rng.uniform_int(2, 40));
    }
    const bool running = rng.uniform01() < 0.5;

    SystemState expected(pet, {0}, depth + 1);
    SystemState actual(pet, {0}, depth + 1);
    for (const auto& [type, deadline] : specs) {
      expected.enqueue(0, type, deadline);
      actual.enqueue(0, type, deadline);
    }
    if (running) {
      expected.set_running(0, 0);
      actual.set_running(0, 0);
    }

    const std::vector<TaskId> want = reference_best_drops(expected);
    OptimalDropper dropper;
    dropper.run(actual.view(), actual);
    // The dropper applies back-to-front; compare as sets of task ids.
    std::vector<TaskId> got = actual.dropped();
    std::sort(got.begin(), got.end());
    std::vector<TaskId> want_sorted = want;
    std::sort(want_sorted.begin(), want_sorted.end());
    EXPECT_EQ(got, want_sorted) << "seed " << seed;
  }
}

TEST(OptimalDropper, SecondRunOnUnchangedQueueIsIdempotent) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  system.enqueue(0, 0, 5);
  system.enqueue(0, 0, 6);
  system.enqueue(0, 1, 3);
  system.enqueue(0, 1, 4);
  OptimalDropper dropper;
  dropper.run(system.view(), system);
  const std::size_t after_first = system.dropped().size();
  dropper.run(system.view(), system);
  EXPECT_EQ(system.dropped().size(), after_first);
}

TEST(OptimalDropper, NeverDecreasesInstantaneousRobustness) {
  const PetMatrix pet = dropper_pet();
  for (std::uint64_t seed = 100; seed < 115; ++seed) {
    Rng rng(seed);
    const int depth = static_cast<int>(rng.uniform_int(2, 6));
    SystemState system(pet, {0}, depth + 1);
    for (int i = 0; i < depth; ++i) {
      system.enqueue(0, static_cast<TaskTypeId>(rng.uniform_int(0, 3)),
                     rng.uniform_int(2, 30));
    }
    const double before = system.model(0).instantaneous_robustness();
    OptimalDropper dropper;
    dropper.run(system.view(), system);
    EXPECT_GE(system.model(0).instantaneous_robustness() + 1e-9, before)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace taskdrop
