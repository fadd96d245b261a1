#include "online/online_scheduler.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/null_dropper.hpp"
#include "core/proactive_heuristic_dropper.hpp"
#include "sched/registry.hpp"
#include "test_util.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

/// Deterministic single-type PET: every execution takes exactly 5 ticks.
PetMatrix deterministic_pet() { return pet_of({{{{5, 1.0}}}}); }

std::vector<DecisionKind> kinds(const std::vector<Decision>& decisions) {
  std::vector<DecisionKind> out;
  out.reserve(decisions.size());
  for (const Decision& decision : decisions) out.push_back(decision.kind);
  return out;
}

/// Live-mode harness: a FCFS fleet of one machine with a 2-slot queue.
struct LiveFixture {
  PetMatrix pet = deterministic_pet();
  std::unique_ptr<Mapper> mapper = make_mapper("FCFS");
  NullDropper dropper;
  OnlineScheduler scheduler;

  explicit LiveFixture(int capacity = 2, OnlineConfig config = {})
      : scheduler(pet, {0}, *mapper, dropper,
                  [&] {
                    config.queue_capacity = capacity;
                    return config;
                  }()) {}
};

TEST(OnlineScheduler, ArrivalYieldsAssignAndStartOffer) {
  LiveFixture fx;
  TaskId id = -1;
  const auto& decisions = fx.scheduler.task_arrived(0, 0, 1000, &id);
  EXPECT_EQ(id, 0);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0], (Decision{DecisionKind::Assign, 0, 0, 0}));
  EXPECT_EQ(decisions[1], (Decision{DecisionKind::Start, 0, 0, 0}));
  // The start is advisory: the task is still Queued until confirmed.
  EXPECT_EQ(fx.scheduler.task(0).state, TaskState::Queued);
  fx.scheduler.task_started(0, 0, 0);
  EXPECT_EQ(fx.scheduler.task(0).state, TaskState::Running);
}

TEST(OnlineScheduler, StartOfferIsNotRepeatedWhileUnconfirmed) {
  LiveFixture fx;
  fx.scheduler.task_arrived(0, 0, 1000);
  // Further mapping events must not re-offer the same head.
  EXPECT_TRUE(fx.scheduler.advance(1).empty());
  EXPECT_TRUE(fx.scheduler.advance(2).empty());
  // Confirming late is fine (live mode): the task runs from t=2.
  fx.scheduler.task_started(2, 0, 0);
  EXPECT_EQ(fx.scheduler.task(0).start_time, 2);
  EXPECT_EQ(fx.scheduler.machine(0).run_start, 2);
}

TEST(OnlineScheduler, LapsedOfferIsReissuedForTheNewHead) {
  LiveFixture fx;
  fx.scheduler.task_arrived(0, 0, 10);
  // The offered head expires before the environment confirmed the start;
  // the next callback drops it and offers the new head instead.
  const auto& arrival2 = fx.scheduler.task_arrived(4, 0, 100);
  ASSERT_EQ(arrival2.size(), 1u);
  EXPECT_EQ(arrival2[0].kind, DecisionKind::Assign);
  const auto& decisions = fx.scheduler.advance(10);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0], (Decision{DecisionKind::DropReactive, 10, 0, 0}));
  EXPECT_EQ(decisions[1], (Decision{DecisionKind::Start, 10, 1, 0}));
}

TEST(OnlineScheduler, FinishEmitsTerminalRecordThenRefills) {
  LiveFixture fx;
  fx.scheduler.task_arrived(0, 0, 1000);
  fx.scheduler.task_started(0, 0, 0);
  fx.scheduler.task_arrived(1, 0, 1000);  // queues behind the running task
  const auto& decisions = fx.scheduler.task_finished(5, 0);
  EXPECT_EQ(kinds(decisions),
            (std::vector<DecisionKind>{DecisionKind::FinishOnTime,
                                       DecisionKind::Start}));
  EXPECT_EQ(fx.scheduler.task(0).state, TaskState::CompletedOnTime);
  EXPECT_EQ(fx.scheduler.task(0).finish_time, 5);
  EXPECT_EQ(fx.scheduler.machine(0).busy_ticks, 5);
}

TEST(OnlineScheduler, FinishAtDeadlineIsLate) {
  LiveFixture fx;
  fx.scheduler.task_arrived(0, 0, 5);
  fx.scheduler.task_started(0, 0, 0);
  const auto& decisions = fx.scheduler.task_finished(5, 0);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, DecisionKind::FinishLate);
  EXPECT_EQ(fx.scheduler.task(0).state, TaskState::CompletedLate);
}

TEST(OnlineScheduler, UnmappedTaskExpiresViaAdvance) {
  LiveFixture fx(1);  // capacity 1: the second task cannot be mapped
  fx.scheduler.task_arrived(0, 0, 1000);
  fx.scheduler.task_started(0, 0, 0);
  fx.scheduler.task_arrived(1, 0, 4);
  EXPECT_EQ(fx.scheduler.unmapped_count(), 1u);
  EXPECT_EQ(fx.scheduler.earliest_unmapped_deadline(), 4);
  const auto& decisions = fx.scheduler.advance(4);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0], (Decision{DecisionKind::ExpireUnmapped, 4, 1, -1}));
  EXPECT_EQ(fx.scheduler.unmapped_count(), 0u);
  EXPECT_EQ(fx.scheduler.earliest_unmapped_deadline(), kNeverTick);
}

TEST(OnlineScheduler, MachineDownKillsRunAndUpResumesQueue) {
  OnlineConfig config;
  config.volatile_machines = true;
  LiveFixture fx(2, config);
  fx.scheduler.task_arrived(0, 0, 1000);
  fx.scheduler.task_started(0, 0, 0);
  fx.scheduler.task_arrived(1, 0, 1000);

  const auto& down = fx.scheduler.machine_down(2, 0);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0], (Decision{DecisionKind::LostToFailure, 2, 0, 0}));
  EXPECT_EQ(fx.scheduler.task(0).state, TaskState::LostToFailure);
  // Partially executed time is still billed.
  EXPECT_EQ(fx.scheduler.machine(0).busy_ticks, 2);
  // The queued task waits (mapped tasks cannot be remapped) and no start is
  // offered while the machine is down.
  EXPECT_EQ(fx.scheduler.task(1).state, TaskState::Queued);

  const auto& up = fx.scheduler.machine_up(7, 0);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0], (Decision{DecisionKind::Start, 7, 1, 0}));
  fx.scheduler.task_started(7, 0, 1);
  EXPECT_EQ(fx.scheduler.task(1).start_time, 7);
}

TEST(OnlineScheduler, ProactiveDropperStreamsDropDecisions) {
  // Types: 0 = 3 ticks, 1 = 10 ticks, 2 = 1 tick (the engine_test rescue
  // scenario, driven through the callback API).
  const PetMatrix pet = pet_of({{{{3, 1.0}}}, {{{10, 1.0}}}, {{{1, 1.0}}}});
  auto mapper = make_mapper("FCFS");
  ProactiveHeuristicDropper dropper;
  OnlineScheduler scheduler(pet, {0}, *mapper, dropper, OnlineConfig{});

  std::vector<Decision> all;
  const auto collect = [&all](const std::vector<Decision>& decisions) {
    all.insert(all.end(), decisions.begin(), decisions.end());
  };
  collect(scheduler.task_arrived(0, 0, 100));
  scheduler.task_started(0, 0, 0, 3);
  collect(scheduler.task_arrived(1, 1, 9));  // doomed: would finish at 13
  collect(scheduler.task_arrived(1, 2, 6));
  collect(scheduler.task_arrived(1, 2, 7));
  bool doomed_dropped = false;
  for (const Decision& decision : all) {
    if (decision.kind == DecisionKind::DropProactive && decision.task == 1) {
      doomed_dropped = true;
    }
  }
  EXPECT_TRUE(doomed_dropped);
  EXPECT_EQ(scheduler.task(1).state, TaskState::DroppedProactive);
}

TEST(OnlineScheduler, ClockMustBeMonotone) {
  LiveFixture fx;
  fx.scheduler.advance(10);
  EXPECT_THROW(fx.scheduler.advance(9), std::invalid_argument);
  const std::size_t tasks_before = fx.scheduler.task_count();
  EXPECT_THROW(fx.scheduler.task_arrived(5, 0, 100),
               std::invalid_argument);
  // The rejected arrival registers nothing: later task ids do not shift.
  EXPECT_EQ(fx.scheduler.task_count(), tasks_before);
  // Equal timestamps are fine (several events on one tick).
  EXPECT_NO_THROW(fx.scheduler.advance(10));
}

TEST(OnlineScheduler, RejectsBadMachineCallbacks) {
  LiveFixture fx;
  // Finishing an idle machine is rejected and moves nothing, the clock
  // included.
  EXPECT_THROW(fx.scheduler.task_finished(3, 0), std::invalid_argument);
  EXPECT_EQ(fx.scheduler.now(), 0);

  // Machine 0's head has been offered a start, but not confirmed.
  const auto& decisions = fx.scheduler.task_arrived(5, 0, 100);
  const std::vector<Decision> offered = decisions;
  ASSERT_EQ(kinds(offered),
            (std::vector<DecisionKind>{DecisionKind::Assign,
                                       DecisionKind::Start}));
  const std::size_t tasks_before = fx.scheduler.task_count();
  auto expect_unchanged = [&](const char* what) {
    EXPECT_EQ(fx.scheduler.now(), 5) << what;
    EXPECT_EQ(decisions, offered) << what;
    EXPECT_EQ(fx.scheduler.task_count(), tasks_before) << what;
    EXPECT_EQ(fx.scheduler.task(0).state, TaskState::Queued) << what;
    EXPECT_FALSE(fx.scheduler.machine(0).running) << what;
    EXPECT_TRUE(fx.scheduler.machine(0).up) << what;
  };

  EXPECT_THROW(fx.scheduler.task_finished(7, 0), std::invalid_argument);
  expect_unchanged("finish of a pending head");
  for (const MachineId bad : {MachineId{1}, MachineId{-1}}) {
    EXPECT_THROW(fx.scheduler.task_finished(7, bad), std::invalid_argument);
    expect_unchanged("task_finished outside the fleet");
    EXPECT_THROW(fx.scheduler.task_started(7, bad, 0), std::invalid_argument);
    expect_unchanged("task_started outside the fleet");
    EXPECT_THROW(fx.scheduler.machine_down(7, bad), std::invalid_argument);
    expect_unchanged("machine_down outside the fleet");
    EXPECT_THROW(fx.scheduler.machine_up(7, bad), std::invalid_argument);
    expect_unchanged("machine_up outside the fleet");
  }

  // The scheduler carries on as if the bad calls never happened.
  fx.scheduler.task_started(6, 0, 0);
  const auto& finished = fx.scheduler.task_finished(11, 0);
  ASSERT_FALSE(finished.empty());
  EXPECT_EQ(finished[0], (Decision{DecisionKind::FinishOnTime, 11, 0, 0}));
}

TEST(OnlineScheduler, RejectsBadConstruction) {
  const PetMatrix pet = deterministic_pet();
  auto mapper = make_mapper("FCFS");
  NullDropper dropper;
  EXPECT_THROW(OnlineScheduler(pet, {}, *mapper, dropper, OnlineConfig{}),
               std::invalid_argument);
  OnlineConfig config;
  config.queue_capacity = 0;
  EXPECT_THROW(OnlineScheduler(pet, {0}, *mapper, dropper, config),
               std::invalid_argument);
}

TEST(OnlineScheduler, DecisionRecordFormatIsStable) {
  std::ostringstream out;
  out << Decision{DecisionKind::Assign, 42, 7, 3} << '\n'
      << Decision{DecisionKind::ExpireUnmapped, 43, 8, -1};
  EXPECT_EQ(out.str(), "t=42 kind=assign task=7 machine=3\n"
                       "t=43 kind=expire_unmapped task=8");
}

TEST(OnlineScheduler, GeneralizesOverDynamicArrivalsWithoutRegistration) {
  // A steady stream through a 2-machine fleet, confirming every offer
  // immediately — the serve-daemon usage pattern.
  const PetMatrix pet = deterministic_pet();
  auto mapper = make_mapper("FCFS");
  ProactiveHeuristicDropper dropper;
  OnlineScheduler scheduler(pet, {0, 0}, *mapper, dropper, OnlineConfig{});

  // Live mode: no ground-truth durations are announced; the environment
  // simply reports finishes when they happen (here: 5 ticks of wall time
  // after the confirmed start).
  long long started = 0;
  long long finishes = 0;
  const auto confirm = [&](Tick t, const std::vector<Decision>& decisions) {
    for (const Decision& decision : decisions) {
      if (decision.kind == DecisionKind::Start) {
        scheduler.task_started(t, decision.machine, decision.task);
        ++started;
      }
    }
  };
  Tick t = 0;
  for (int i = 0; i < 200; ++i) {
    t += 1;
    for (MachineId m = 0; m < 2; ++m) {
      if (scheduler.machine(m).running &&
          t - scheduler.machine(m).run_start >= 5) {
        const std::vector<Decision> decisions = scheduler.task_finished(t, m);
        ++finishes;
        confirm(t, decisions);
      }
    }
    confirm(t, scheduler.task_arrived(t, 0, t + 40));
  }
  EXPECT_GT(started, 0);
  EXPECT_GT(finishes, 0);
  EXPECT_EQ(scheduler.task_count(), 200u);
  EXPECT_EQ(scheduler.mapping_events(), 200 + finishes);
}

}  // namespace
}  // namespace taskdrop
