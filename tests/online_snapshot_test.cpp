#include "online/snapshot.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/null_dropper.hpp"
#include "online/online_scheduler.hpp"
#include "online/stream_event.hpp"
#include "sched/registry.hpp"
#include "sched/round_robin.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace taskdrop {
namespace {

using test::pet_of;
using Kind = StreamEvent::Kind;

/// 2 task types x 2 machine types with asymmetric deterministic costs, so
/// mapping decisions actually depend on machine/type identity.
PetMatrix serve_pet() {
  return pet_of({{{{4, 1.0}}, {{7, 1.0}}}, {{{6, 1.0}}, {{3, 1.0}}}});
}

/// The configuration echo every fixture snapshots and restores with. A
/// driver renders its own (taskdrop_cli serve: the cell's spec map); the
/// scheduler only stores and compares it.
const SpecMap& echo() {
  static const SpecMap map = {{"dropper", {"heuristic"}}, {"seed", {"42"}}};
  return map;
}

/// Live-mode serve harness: 3 machines (types 0, 1, 0), pluggable mapper.
struct ServeFixture {
  PetMatrix pet = serve_pet();
  std::unique_ptr<Mapper> mapper;
  std::unique_ptr<Dropper> dropper;
  OnlineScheduler scheduler;

  explicit ServeFixture(const std::string& mapper_name,
                        OnlineConfig config = {})
      : mapper(make_mapper(mapper_name)),
        dropper(make_dropper(DropperConfig::heuristic())),
        scheduler(pet, {0, 1, 0}, *mapper, *dropper, config) {}
};

/// Feeds one event through serve's step (every Start offer confirmed at
/// once) and renders its decisions exactly as the CLI daemon logs them.
std::string apply(OnlineScheduler& scheduler, const StreamEvent& event) {
  std::ostringstream out;
  for (const Decision& decision : apply_stream_event(scheduler, event)) {
    out << decision << '\n';
  }
  return out.str();
}

/// Generates a valid event script by probing a scheduler as it goes: a mix
/// of arrivals (both types, some with tight deadlines that expire), a
/// machine failure/recovery, finishes of whichever machine is running, and
/// idle advances. The script is then replayed verbatim against fresh
/// schedulers — validity (finish only on a running machine) is guaranteed
/// because the kernels are deterministic.
std::vector<StreamEvent> make_script(const std::string& mapper_name,
                            const OnlineConfig& config) {
  ServeFixture probe(mapper_name, config);
  std::vector<StreamEvent> script;
  Tick t = 0;
  const auto push = [&](StreamEvent event) {
    script.push_back(event);
    apply(probe.scheduler, event);
  };
  for (int i = 0; i < 40; ++i) {
    t += 2;
    if (i == 13) {
      push({Kind::Down, t, 1, 0});
      continue;
    }
    if (i == 21) {
      push({Kind::Up, t, 1, 0});
      continue;
    }
    if (i % 3 == 2) {
      MachineId running = -1;
      for (const Machine& machine : probe.scheduler.machines()) {
        if (machine.running) {
          running = machine.id;
          break;
        }
      }
      if (running >= 0) {
        push({Kind::Finish, t, running, 0});
        continue;
      }
    }
    if (i % 7 == 6) {
      push({Kind::Advance, t, 0, 0});
      continue;
    }
    // Alternate task types; every fourth deadline is tight enough to
    // expire, so the reactive pass fires and the expiry heap has content.
    push({Kind::Arrive, t, i % 2, t + (i % 4 == 3 ? 3 : 25)});
  }
  return script;
}

std::string run_full(const std::vector<StreamEvent>& script,
                     const std::string& mapper_name,
                     const OnlineConfig& config) {
  ServeFixture fx(mapper_name, config);
  std::string out;
  for (const StreamEvent& event : script) out += apply(fx.scheduler, event);
  return out;
}

/// Runs `script[0..split)`, snapshots, restores into an entirely fresh
/// kernel stack (new mapper, new dropper, new scheduler), and finishes the
/// script there — the kill-and-resume scenario.
std::string run_split(const std::vector<StreamEvent>& script,
                      std::size_t split,
                      const std::string& mapper_name,
                      const OnlineConfig& config) {
  ServeFixture first(mapper_name, config);
  std::string out;
  for (std::size_t i = 0; i < split; ++i) {
    out += apply(first.scheduler, script[i]);
  }
  const std::string snapshot = snapshot_to_string(first.scheduler, echo());
  ServeFixture second(mapper_name, config);
  restore_from_string(second.scheduler, snapshot, echo());
  for (std::size_t i = split; i < script.size(); ++i) {
    out += apply(second.scheduler, script[i]);
  }
  return out;
}

OnlineConfig short_queue_config() {
  OnlineConfig config;
  config.queue_capacity = 3;
  return config;
}

TEST(OnlineSnapshot, EverySplitPointResumesByteIdentically) {
  const OnlineConfig config = short_queue_config();
  const std::vector<StreamEvent> script = make_script("PAM", config);
  const std::string uninterrupted = run_full(script, "PAM", config);
  ASSERT_FALSE(uninterrupted.empty());
  for (std::size_t split = 0; split <= script.size(); ++split) {
    EXPECT_EQ(run_split(script, split, "PAM", config), uninterrupted)
        << "divergence when killed after event " << split;
  }
}

TEST(OnlineSnapshot, ConditionedVolatileResumesByteIdentically) {
  // condition_running=1 together with failures drives the chain-keeping
  // paths (conditioned set_now keep, notify_head_started) across a
  // snapshot boundary: the script's Down/Up events at steps 13/21 plus
  // the conditioned re-examinations must replay byte-identically from
  // any split point.
  OnlineConfig config = short_queue_config();
  config.condition_running = true;
  const std::vector<StreamEvent> script = make_script("PAM", config);
  const std::string uninterrupted = run_full(script, "PAM", config);
  ASSERT_FALSE(uninterrupted.empty());
  for (std::size_t split = 0; split <= script.size(); ++split) {
    EXPECT_EQ(run_split(script, split, "PAM", config), uninterrupted)
        << "divergence when killed after event " << split;
  }
}

TEST(OnlineSnapshot, RoundRobinMapperStateSurvivesResume) {
  // RR is the one stock mapper with genuine cross-event state (the cyclic
  // dealing position); a restore that lost it would re-deal from machine 0
  // and shift every subsequent assignment.
  const OnlineConfig config = short_queue_config();
  const std::vector<StreamEvent> script = make_script("RR", config);
  const std::string uninterrupted = run_full(script, "RR", config);
  for (std::size_t split = 0; split <= script.size(); split += 5) {
    EXPECT_EQ(run_split(script, split, "RR", config), uninterrupted)
        << "divergence when killed after event " << split;
  }
}

TEST(OnlineSnapshot, SheddingConfigAndCounterSurviveResume) {
  OnlineConfig config = short_queue_config();
  config.shed.total_pending_watermark = 2;
  const std::vector<StreamEvent> script = make_script("PAM", config);
  const std::string uninterrupted = run_full(script, "PAM", config);
  // The valve must actually have fired for this test to mean anything.
  ASSERT_NE(uninterrupted.find("shed_overload"), std::string::npos);
  for (std::size_t split = 0; split <= script.size(); split += 3) {
    EXPECT_EQ(run_split(script, split, "PAM", config), uninterrupted)
        << "divergence when killed after event " << split;
  }
}

TEST(OnlineSnapshot, SnapshotIsDeterministic) {
  ServeFixture fx("PAM");
  fx.scheduler.task_arrived(0, 0, 100);
  fx.scheduler.task_arrived(2, 1, 50);
  EXPECT_EQ(snapshot_to_string(fx.scheduler, echo()),
            snapshot_to_string(fx.scheduler, echo()));
}

TEST(OnlineSnapshot, CountersAndClockSurviveRoundTrip) {
  ServeFixture fx("PAM", short_queue_config());
  std::string ignored;
  ignored += apply(fx.scheduler, {Kind::Arrive, 1, 0, 30});
  ignored += apply(fx.scheduler, {Kind::Arrive, 4, 1, 40});
  ignored += apply(fx.scheduler, {Kind::Advance, 9, 0, 0});
  const std::string snapshot = snapshot_to_string(fx.scheduler, echo());

  ServeFixture restored("PAM", short_queue_config());
  restore_from_string(restored.scheduler, snapshot, echo());
  EXPECT_EQ(restored.scheduler.now(), fx.scheduler.now());
  EXPECT_EQ(restored.scheduler.task_count(), fx.scheduler.task_count());
  EXPECT_EQ(restored.scheduler.mapping_events(),
            fx.scheduler.mapping_events());
  EXPECT_EQ(restored.scheduler.dropper_invocations(),
            fx.scheduler.dropper_invocations());
  EXPECT_EQ(restored.scheduler.unmapped_count(),
            fx.scheduler.unmapped_count());
  EXPECT_EQ(restored.scheduler.pending_backlog(),
            fx.scheduler.pending_backlog());
  // And the restored instance re-snapshots to the identical bytes.
  EXPECT_EQ(snapshot_to_string(restored.scheduler, echo()), snapshot);
}

TEST(OnlineSnapshot, RestoreRejectsNonFreshScheduler) {
  ServeFixture source("PAM");
  source.scheduler.task_arrived(0, 0, 100);
  const std::string snapshot = snapshot_to_string(source.scheduler, echo());

  ServeFixture target("PAM");
  target.scheduler.task_arrived(0, 0, 100);  // no longer fresh
  EXPECT_THROW(restore_from_string(target.scheduler, snapshot, echo()),
               std::invalid_argument);
}

/// Restores `snapshot` under `echo` into a fresh PAM fixture; returns the
/// refusal message, or "" when the restore succeeded.
std::string restore_error(const std::string& snapshot, const SpecMap& echo,
                          const OnlineConfig& config = {}) {
  ServeFixture target("PAM", config);
  try {
    restore_from_string(target.scheduler, snapshot, echo);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(OnlineSnapshot, RestoreRejectsConfigMismatch) {
  // The echo is compared whole, and the refusal names every key that
  // differs with both values, a key set on one side only included.
  ServeFixture source("PAM");
  const SpecMap snapshotted = {{"capacity", {"6"}},
                               {"dropper", {"heuristic"}},
                               {"eta", {"2"}},
                               {"seed", {"42"}}};
  const std::string snapshot =
      snapshot_to_string(source.scheduler, snapshotted);
  EXPECT_EQ(restore_error(snapshot, snapshotted), "");

  SpecMap other = snapshotted;
  other["dropper"] = {"threshold"};
  other.erase("eta");
  other["threshold"] = {"0.5"};
  EXPECT_EQ(restore_error(snapshot, other),
            "snapshot: configuration differs from the snapshotted one: "
            "dropper 'heuristic' in the snapshot, 'threshold' here; "
            "eta '2' in the snapshot, unset here; "
            "threshold unset in the snapshot, '0.5' here");
  other = snapshotted;
  other["capacity"] = {"5"};
  EXPECT_EQ(restore_error(snapshot, other),
            "snapshot: configuration differs from the snapshotted one: "
            "capacity '6' in the snapshot, '5' here");
}

TEST(OnlineSnapshot, RestoreRefusesVersionOne) {
  // A v1 echo listed scheduler fields only, without the dropper or the
  // candidate window, so it cannot be checked against this run's.
  ServeFixture source("PAM");
  std::string snapshot = snapshot_to_string(source.scheduler, echo());
  const std::string header = "taskdrop-online-snapshot v2\n";
  ASSERT_EQ(snapshot.rfind(header, 0), 0u);
  snapshot.replace(0, header.size(), "taskdrop-online-snapshot v1\n");
  EXPECT_EQ(restore_error(snapshot, echo()),
            "snapshot: unsupported snapshot version 'v1' (this build reads "
            "v2)");
}

TEST(OnlineSnapshot, RestoreRejectsMapperMismatch) {
  ServeFixture source("PAM");
  const std::string snapshot = snapshot_to_string(source.scheduler, echo());
  ServeFixture target("FCFS");
  EXPECT_THROW(restore_from_string(target.scheduler, snapshot, echo()),
               std::invalid_argument);
}

TEST(OnlineSnapshot, RestoreRejectsDifferentPet) {
  ServeFixture source("PAM");
  const std::string snapshot = snapshot_to_string(source.scheduler, echo());

  // Same shape, different cell content: only the fingerprint can tell.
  PetMatrix other_pet =
      pet_of({{{{5, 1.0}}, {{7, 1.0}}}, {{{6, 1.0}}, {{3, 1.0}}}});
  auto mapper = make_mapper("PAM");
  NullDropper dropper;
  OnlineScheduler target(other_pet, {0, 1, 0}, *mapper, dropper);
  EXPECT_THROW(restore_from_string(target, snapshot, echo()),
               std::invalid_argument);
}

TEST(OnlineSnapshot, RestoreRejectsTruncatedSnapshot) {
  // Every cut that removes more than the final newline loses a required
  // line or token.
  ServeFixture source("PAM");
  source.scheduler.task_arrived(0, 0, 100);
  const std::string snapshot = snapshot_to_string(source.scheduler, echo());
  for (std::size_t cut = 0; cut + 1 < snapshot.size(); ++cut) {
    EXPECT_NE(restore_error(snapshot.substr(0, cut), echo()), "")
        << "truncation at byte " << cut << " was accepted";
  }
  EXPECT_EQ(restore_error(snapshot.substr(0, snapshot.size() - 1), echo()),
            "");
}

/// Fills a short-queue fixture: 14 arrivals, so every queue is full and
/// five tasks wait in the batch, then machine 2 fails mid-run.
void load_backlog(OnlineScheduler& scheduler) {
  for (Tick t = 0; t < 14; ++t) {
    apply(scheduler, {Kind::Arrive, t, static_cast<int>(t % 2), 90 + t});
  }
  apply(scheduler, {Kind::Down, 14, 2, 0});
}

TEST(OnlineSnapshot, RestoreRejectsTaskIdsListedTwice) {
  // A task sits in at most one queue slot or batch entry. A batch that
  // listed an id twice would link the batch queue into a cycle.
  ServeFixture source("PAM", short_queue_config());
  load_backlog(source.scheduler);
  const std::string snapshot = snapshot_to_string(source.scheduler, echo());
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"batch n=5 9 10 11 12 13\n",
                                            "batch n=5 9 10 11 12 12\n"},
        {"q 3 0 1 2\n", "q 3 0 1 1\n"}}) {
    ASSERT_NE(snapshot.find(from), std::string::npos) << snapshot;
    std::string text = snapshot;
    text.replace(text.find(from), from.size(), to);
    EXPECT_NE(restore_error(text, echo(), short_queue_config())
                  .find("listed twice"),
              std::string::npos)
        << to;
  }
}

TEST(OnlineSnapshot, ByteFlippedSnapshotsRestoreOrThrow) {
  // Seeded fuzz: a snapshot with one byte changed either restores (the
  // byte sat in a value restore cannot check, such as a finish time) or is
  // refused with std::invalid_argument. Anything else escapes and fails
  // the test; a restored scheduler must also snapshot again.
  ServeFixture source("PAM", short_queue_config());
  load_backlog(source.scheduler);
  const std::string snapshot = snapshot_to_string(source.scheduler, echo());
  Rng rng(2026);
  int restored = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string flipped = snapshot;
    const std::size_t at = rng() % flipped.size();
    flipped[at] = static_cast<char>(flipped[at] ^ (1 + rng() % 255));
    ServeFixture target("PAM", short_queue_config());
    try {
      restore_from_string(target.scheduler, flipped, echo());
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++restored;
    EXPECT_FALSE(snapshot_to_string(target.scheduler, echo()).empty());
  }
  // Both outcomes occur, or the flips missed the parser's checks.
  EXPECT_GT(restored, 0);
  EXPECT_LT(restored, 1000);
}

TEST(OnlineSnapshot, RestoreRejectsTimesPastTheHorizon) {
  // A restored time obeys the same horizon as a live one: a snapshot edited
  // to carry a clock, an arrival, a deadline or a run start past it is
  // rejected instead of re-rooting the chains at a wrapping time.
  ServeFixture source("PAM");
  source.scheduler.task_arrived(3, 0, 123457);
  const MachineId machine = source.scheduler.task(0).machine;
  source.scheduler.task_started(3, machine, 0);
  const std::string snapshot = snapshot_to_string(source.scheduler, echo());
  // The running machine's line: id, type, up, running, run_start.
  const std::string machine_line =
      "M " + std::to_string(machine) + " " +
      std::to_string(source.scheduler.machine(machine).type) + " 1 1 ";
  ASSERT_NE(snapshot.find("clock now=3\n"), std::string::npos);
  ASSERT_NE(snapshot.find("T 0 0 3 123457 "), std::string::npos);
  ASSERT_NE(snapshot.find(machine_line + "3 "), std::string::npos);
  const std::string past = std::to_string(SystemState::kTimeHorizon + 1);
  const auto edited = [&](const std::string& from, const std::string& to) {
    std::string text = snapshot;
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  for (const std::string& bad :
       {edited("clock now=3\n", "clock now=" + past + "\n"),
        edited("T 0 0 3 123457 ", "T 0 0 " + past + " 123457 "),
        edited("T 0 0 3 123457 ", "T 0 0 3 " + past + " "),
        edited("T 0 0 3 123457 ", "T 0 0 3 -" + past + " "),
        edited(machine_line + "3 ", machine_line + past + " ")}) {
    ServeFixture target("PAM");
    EXPECT_THROW(restore_from_string(target.scheduler, bad, echo()),
                 std::invalid_argument);
  }
  ServeFixture target("PAM");
  EXPECT_NO_THROW(restore_from_string(target.scheduler, snapshot, echo()));
}

TEST(OnlineSnapshot, RestoreRejectsMalformedAndOutOfRangeIntegers) {
  // Snapshot numbers parse as spec values do (util/spec_parser): a token
  // with trailing characters, or one past the 64-bit range, is rejected
  // with a message that names the field.
  ServeFixture source("PAM");
  source.scheduler.task_arrived(3, 0, 123457);
  const std::string snapshot = snapshot_to_string(source.scheduler, echo());
  const std::string task = "T 0 0 3 123457 ";
  ASSERT_NE(snapshot.find(task), std::string::npos);
  const auto expect_rejected = [&](const std::string& from,
                                   const std::string& to,
                                   const std::string& message) {
    std::string text = snapshot;
    text.replace(text.find(from), from.size(), to);
    EXPECT_NE(restore_error(text, echo()).find(message), std::string::npos)
        << "'" << to << "' gave '" << restore_error(text, echo()) << "'";
  };
  expect_rejected(task, "T 0 3x 3 123457 ",
                  "snapshot: task type: malformed integer '3x'");
  expect_rejected(
      task, "T 0 0 3 18446744073709551616 ",
      "snapshot: deadline: integer out of range '18446744073709551616'");
  // A count sizes no storage: a huge one fails at the first line that is
  // not a task, with a snapshot message instead of an allocator error.
  for (const char* count : {"4611686018427387904", "9223372036854775807"}) {
    expect_rejected("tasks n=1\n", std::string("tasks n=") + count + "\n",
                    "snapshot: expected 'T', got 'machines'");
  }
}

TEST(OnlineSnapshot, RestoreRejectsGarbage) {
  ServeFixture target("PAM");
  EXPECT_THROW(
      restore_from_string(target.scheduler, "not a snapshot\n", echo()),
      std::invalid_argument);
}

TEST(OnlineSnapshot, FingerprintSeparatesPets) {
  const PetMatrix a = serve_pet();
  const PetMatrix b =
      pet_of({{{{5, 1.0}}, {{7, 1.0}}}, {{{6, 1.0}}, {{3, 1.0}}}});
  EXPECT_EQ(pet_fingerprint(a), pet_fingerprint(serve_pet()));
  EXPECT_NE(pet_fingerprint(a), pet_fingerprint(b));
}

TEST(RoundRobinState, RoundTripAndValidation) {
  RoundRobinMapper mapper;
  EXPECT_EQ(mapper.snapshot_state(), "0");
  mapper.restore_state("7");
  EXPECT_EQ(mapper.snapshot_state(), "7");
  EXPECT_THROW(mapper.restore_state("abc"), std::invalid_argument);
  EXPECT_THROW(mapper.restore_state(""), std::invalid_argument);
}

TEST(MapperState, StatelessMapperRejectsForeignState) {
  auto mapper = make_mapper("FCFS");
  EXPECT_EQ(mapper->snapshot_state(), "");
  mapper->restore_state("");  // no state: fine
  EXPECT_THROW(mapper->restore_state("3"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Overload shedding semantics (the admission valve itself).

TEST(OnlineShed, DisabledByDefaultAdmitsEverything) {
  ServeFixture fx("PAM");
  for (Tick t = 0; t < 20; ++t) fx.scheduler.task_arrived(t, 0, t + 100);
  EXPECT_EQ(fx.scheduler.shed_count(), 0);
}

TEST(OnlineShed, TotalWatermarkShedsAtThreshold) {
  OnlineConfig config;
  config.shed.total_pending_watermark = 1;
  ServeFixture fx("PAM", config);
  // First arrival: backlog 0 < 1 — admitted (assigned, Start offered, left
  // unconfirmed so it stays pending).
  const auto& first = fx.scheduler.task_arrived(0, 0, 100);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first[0].kind, DecisionKind::Assign);
  EXPECT_EQ(fx.scheduler.pending_backlog(), 1u);
  // Second arrival: backlog 1 >= 1 — shed, never enters the batch.
  const auto& second = fx.scheduler.task_arrived(1, 0, 100);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].kind, DecisionKind::ShedOverload);
  EXPECT_EQ(second[0].task, 1);
  EXPECT_EQ(second[0].machine, -1);
  EXPECT_EQ(fx.scheduler.task(1).state, TaskState::DroppedProactive);
  EXPECT_EQ(fx.scheduler.task(1).drop_time, 1);
  EXPECT_EQ(fx.scheduler.shed_count(), 1);
  EXPECT_EQ(fx.scheduler.unmapped_count(), 0u);
}

TEST(OnlineShed, MachineWatermarkShedsOnlyWhenNoMachineHasHeadroom) {
  // Single machine, greedy FCFS mapping (no deferral), so queue occupancy
  // is fully hand-computable.
  PetMatrix pet = pet_of({{{{5, 1.0}}}});
  auto mapper = make_mapper("FCFS");
  NullDropper dropper;
  OnlineConfig config;
  config.shed.machine_backlog_watermark = 1;
  OnlineScheduler scheduler(pet, {0}, *mapper, dropper, config);

  // First arrival runs (confirmed): pending 0, headroom remains.
  const auto& first = scheduler.task_arrived(0, 0, 200);
  for (const Decision& decision : first) {
    if (decision.kind == DecisionKind::Start) {
      scheduler.task_started(0, decision.machine, decision.task);
    }
  }
  // Second arrival queues behind the running head: pending becomes 1.
  scheduler.task_arrived(1, 0, 200);
  ASSERT_EQ(scheduler.machine(0).pending_count(), 1u);
  ASSERT_EQ(scheduler.shed_count(), 0);
  // Third arrival: the only machine is at the watermark — shed.
  const auto& third = scheduler.task_arrived(2, 0, 200);
  ASSERT_FALSE(third.empty());
  EXPECT_EQ(third[0].kind, DecisionKind::ShedOverload);
  EXPECT_EQ(scheduler.shed_count(), 1);
  // A finish promotes the queued task to the head: headroom returns and
  // the next arrival is admitted again.
  const auto& after_finish = scheduler.task_finished(5, 0);
  for (const Decision& decision : after_finish) {
    if (decision.kind == DecisionKind::Start) {
      scheduler.task_started(5, decision.machine, decision.task);
    }
  }
  const auto& fourth = scheduler.task_arrived(6, 0, 200);
  ASSERT_FALSE(fourth.empty());
  EXPECT_EQ(fourth[0].kind, DecisionKind::Assign);
  EXPECT_EQ(scheduler.shed_count(), 1);
}

TEST(OnlineShed, FleetFullyDownCountsAsBacklogged) {
  OnlineConfig config;
  config.shed.machine_backlog_watermark = 5;
  ServeFixture fx("PAM", config);
  for (MachineId m = 0; m < 3; ++m) fx.scheduler.machine_down(0, m);
  const auto& decisions = fx.scheduler.task_arrived(1, 0, 100);
  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions[0].kind, DecisionKind::ShedOverload);
}

TEST(OnlineShed, ShedArrivalStillRunsTheMappingEvent) {
  OnlineConfig config;
  config.shed.total_pending_watermark = 1;
  ServeFixture fx("PAM", config);
  // An unconfirmed pending task whose deadline passes before the next
  // arrival: the shed arrival's mapping event must still expire it.
  fx.scheduler.task_arrived(0, 0, 5);
  const auto& decisions = fx.scheduler.task_arrived(10, 0, 100);
  ASSERT_GE(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].kind, DecisionKind::ShedOverload);
  bool dropped_stale = false;
  for (const Decision& decision : decisions) {
    if (decision.task == 0 && is_terminal(decision.kind)) {
      dropped_stale = true;
    }
  }
  EXPECT_TRUE(dropped_stale);
}

TEST(OnlineShed, ShedOverloadIsTerminal) {
  EXPECT_TRUE(is_terminal(DecisionKind::ShedOverload));
  EXPECT_EQ(std::string(to_string(DecisionKind::ShedOverload)),
            "shed_overload");
}

}  // namespace
}  // namespace taskdrop
