#include "core/threshold_dropper.hpp"

#include <gtest/gtest.h>

#include "online/system_state.hpp"
#include "test_util.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

/// big {10}, small {1}, coin {2: 0.5, 20: 0.5}.
PetMatrix dropper_pet() {
  return pet_of({{{{10, 1.0}}}, {{{1, 1.0}}}, {{{2, 0.5}, {20, 0.5}}}});
}

TEST(ThresholdDropper, StaticThresholdDropsBelowOnly) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  const TaskId coin = system.enqueue(0, /*type=*/2, /*deadline=*/3);  // 0.5
  system.enqueue(0, /*type=*/1, /*deadline=*/30);                     // ~1.0
  ThresholdDropper dropper(ThresholdDropper::Params{0.7, /*adaptive=*/false});
  dropper.run(system.view(), system);
  ASSERT_EQ(system.dropped().size(), 1u);
  EXPECT_EQ(system.dropped().front(), coin);
}

TEST(ThresholdDropper, KeepsTasksExactlyAtThreshold) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  system.enqueue(0, 2, 3);  // chance exactly 0.5
  system.enqueue(0, 1, 30);
  ThresholdDropper dropper(ThresholdDropper::Params{0.5, false});
  dropper.run(system.view(), system);
  EXPECT_TRUE(system.dropped().empty());  // drop requires chance < threshold
}

TEST(ThresholdDropper, AdaptiveThresholdBacksOffWhenQueuesAreEmpty) {
  const PetMatrix pet = dropper_pet();
  // 4 machines with capacity 6 = 24 slots; only 2 occupied -> fill = 1/12,
  // effective threshold = 0.5/12 < the coin's 0.5 chance.
  SystemState system(pet, {0, 0, 0, 0}, 6);
  system.enqueue(0, 2, 3);
  system.enqueue(0, 1, 30);
  ThresholdDropper dropper(ThresholdDropper::Params{0.5, /*adaptive=*/true});
  dropper.run(system.view(), system);
  EXPECT_TRUE(system.dropped().empty());
}

TEST(ThresholdDropper, AdaptiveThresholdBitesWhenSaturated) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 3);
  // Saturated single machine: fill = 1, effective = base.
  system.enqueue(0, 2, 3);   // 0.5 < 0.7 -> dropped
  system.enqueue(0, 1, 30);
  system.enqueue(0, 1, 31);
  ThresholdDropper dropper(ThresholdDropper::Params{0.7, true});
  dropper.run(system.view(), system);
  EXPECT_EQ(system.dropped().size(), 1u);
}

TEST(ThresholdDropper, ZeroBaseNeverDrops) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  system.enqueue(0, 0, 2);  // chance 0
  system.enqueue(0, 0, 3);  // chance 0
  ThresholdDropper dropper(ThresholdDropper::Params{0.0, false});
  dropper.run(system.view(), system);
  EXPECT_TRUE(system.dropped().empty());
}

TEST(ThresholdDropper, ReevaluatesSuccessorsAfterEachDrop) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  // Head: big task with deadline 5 (chance 0). Behind it a small task with
  // deadline 12: blocked it has chance 0 (starts at 10, finishes 11 < 12 —
  // actually succeeds!). Use deadline 8: start 10 >= 8 -> chance 0 blocked,
  // but once the big head is dropped it becomes certain. A naive
  // fixed-order scan would drop both; re-evaluation keeps the second.
  const TaskId big = system.enqueue(0, 0, 5);
  const TaskId small = system.enqueue(0, 1, 8);
  ThresholdDropper dropper(ThresholdDropper::Params{0.6, false});
  dropper.run(system.view(), system);
  ASSERT_EQ(system.dropped().size(), 1u);
  EXPECT_EQ(system.dropped().front(), big);
  EXPECT_EQ(system.machine(0).queue.front(), small);
  EXPECT_NEAR(system.model(0).chance(0), 1.0, 1e-12);
}

TEST(ThresholdDropper, MayDropTheLastTaskUnlikeProactive) {
  // The threshold family has no influence-zone reasoning: it prunes any
  // pending task below threshold, including the queue tail. This is a
  // behavioural contrast with the paper's mechanism (which excludes the
  // last task) worth pinning down.
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  system.enqueue(0, 1, 30);
  const TaskId hopeless_tail = system.enqueue(0, 0, 2);
  ThresholdDropper dropper(ThresholdDropper::Params{0.5, false});
  dropper.run(system.view(), system);
  ASSERT_EQ(system.dropped().size(), 1u);
  EXPECT_EQ(system.dropped().front(), hopeless_tail);
}

TEST(ThresholdDropper, SkipsRunningTask) {
  const PetMatrix pet = dropper_pet();
  SystemState system(pet, {0}, 6);
  const TaskId running = system.enqueue(0, 0, 2);  // hopeless, running
  system.enqueue(0, 1, 30);
  system.set_running(0, 0);
  ThresholdDropper dropper(ThresholdDropper::Params{0.9, false});
  dropper.run(system.view(), system);
  EXPECT_EQ(system.machine(0).queue.front(), running);
  for (TaskId dropped : system.dropped()) EXPECT_NE(dropped, running);
}

}  // namespace
}  // namespace taskdrop
