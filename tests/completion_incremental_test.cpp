// Property suite locking down the incremental completion-chain maintenance.
//
// CompletionModel keeps per-slot completion PMFs (plus cumulative-mass
// views) and re-convolves only from the first dirty slot after a mutation.
// These tests drive seeded random sequences of the engine's structural
// mutations — append, drop, start, complete, time advance — against one
// model that receives exactly the engine's minimal invalidation hints, and
// require its chain — and the memoised Eq. 8 drop term at every pending
// position — to be *bitwise equal* to a from-scratch rebuild at every
// step. Invariants of the underlying stochastic model (mass
// conservation, Eq. 2 bounds, append-probe consistency, deadline
// monotonicity) ride along.
#include "core/completion_model.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <tuple>
#include <vector>

#include "pet/pet_builder.hpp"
#include "prob/convolution.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace taskdrop {
namespace {

constexpr int kTaskTypes = 3;
constexpr Tick kStride = 5;

PetMatrix make_pet(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> means(
      kTaskTypes, std::vector<double>(/*machine types=*/1));
  for (auto& row : means) row[0] = rng.uniform(40.0, 160.0);
  PetBuildOptions options;
  options.bin_width = kStride;
  options.samples_per_cell = 200;
  return build_pet_from_means(means, rng, options);
}

/// Harness owning the queue state shared by an incrementally-invalidated
/// model and a freshly-rebuilt one.
struct ChainHarness {
  explicit ChainHarness(std::uint64_t seed)
      : pet(make_pet(seed)), machine(0, 0, /*capacity=*/64) {
    tasks.reserve(256);
  }

  /// A model bound to the current state with nothing cached: queries
  /// recompute the whole chain from scratch.
  CompletionModel fresh_model(Tick now,
                              CompletionModel::Options options = {}) {
    CompletionModel model(&pet, &machine, &tasks, options);
    model.set_now(now);
    return model;
  }

  TaskId add_task(TaskTypeId type, Tick deadline) {
    Task task;
    task.id = static_cast<TaskId>(tasks.size());
    task.type = type;
    task.deadline = deadline;
    task.state = TaskState::Queued;
    tasks.push_back(task);
    return task.id;
  }

  PetMatrix pet;
  Machine machine;
  std::vector<Task> tasks;
};

/// Bitwise chain comparison: every slot's completion PMF and cached chance.
void expect_chain_bitwise_equal(CompletionModel& incremental,
                                CompletionModel& rebuilt,
                                const Machine& machine, const char* after) {
  for (std::size_t pos = 0; pos < machine.queue.size(); ++pos) {
    ASSERT_TRUE(incremental.completion(pos) == rebuilt.completion(pos))
        << "completion PMF diverged at pos " << pos << " after " << after;
    ASSERT_EQ(incremental.chance(pos), rebuilt.chance(pos))
        << "chance diverged at pos " << pos << " after " << after;
  }
}

/// Eq. 8's memoised drop term at every pending position: bitwise equal to
/// the rebuilt model's value (which has nothing memoised) and to a direct
/// window walk from the incremental model's predecessor.
void expect_windows_bitwise_equal(CompletionModel& incremental,
                                  CompletionModel& rebuilt,
                                  const ChainHarness& h, std::size_t eta,
                                  const char* after) {
  for (std::size_t pos = h.machine.first_pending_pos();
       pos < h.machine.queue.size(); ++pos) {
    const double memo = incremental.dropped_window_sum(pos, eta);
    ASSERT_EQ(memo, rebuilt.dropped_window_sum(pos, eta))
        << "dropped window diverged from rebuild at pos " << pos << " after "
        << after;
    ASSERT_EQ(memo, window_chance_sum(incremental.predecessor(pos), h.machine,
                                      h.tasks, h.pet, pos + 1, pos + eta))
        << "dropped window diverged from direct walk at pos " << pos
        << " after " << after;
  }
}

/// The window depth the suites query: 1 to 3, varied by seed.
std::size_t eta_of(std::uint64_t seed) { return 1 + seed % 3; }

class CompletionIncrementalTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompletionIncrementalTest, ChainMatchesFromScratchRebuild) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 3);
  ChainHarness h(seed);
  const double mean = h.pet.mean_overall();

  Tick now = 0;
  CompletionModel incremental(&h.pet, &h.machine, &h.tasks, {});
  incremental.set_now(now);

  for (int step = 0; step < 60; ++step) {
    const auto op = rng.uniform_int(0, 9);
    const std::size_t q = h.machine.queue.size();
    const char* what = "nothing";
    if (op <= 3 || q == 0) {
      // Append one task: the engine invalidates from the new tail slot.
      const auto type = static_cast<TaskTypeId>(rng.uniform_int(0, kTaskTypes - 1));
      const Tick deadline =
          now + static_cast<Tick>(mean * rng.uniform(0.5, 6.0));
      h.machine.enqueue(h.add_task(type, deadline));
      incremental.invalidate_from(h.machine.queue.size() - 1);
      what = "append";
    } else if (op <= 6 && h.machine.pending_count() > 0) {
      // Drop a random pending task: invalidate from its position.
      const std::size_t pos = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(h.machine.first_pending_pos()),
          static_cast<std::int64_t>(q - 1)));
      h.machine.remove_at(pos);
      incremental.invalidate_from(pos);
      what = "drop";
    } else if (op == 7 && h.machine.running) {
      // Complete the running task: pop the front; every slot shifts.
      h.machine.queue.pop_front();
      h.machine.running = false;
      incremental.invalidate_all();
      what = "complete";
    } else {
      // Advance simulated time (the idle-machine base moves with `now`).
      now += kStride * rng.uniform_int(1, 8);
      incremental.set_now(now);
      what = "advance";
    }
    // Engine invariant (start_next runs at the end of every mapping
    // event): an up machine never sits idle with a non-empty queue. This
    // is what licenses set_now's no-invalidation fast path — only the
    // chain of a *running* machine survives a time advance, and that
    // chain is rooted at run_start, not now.
    if (!h.machine.running && !h.machine.queue.empty()) {
      h.machine.running = true;
      h.machine.run_start = now;
      incremental.invalidate_all();
    }

    CompletionModel rebuilt = h.fresh_model(now);
    expect_chain_bitwise_equal(incremental, rebuilt, h.machine, what);
    expect_windows_bitwise_equal(incremental, rebuilt, h, eta_of(seed), what);

    // Model invariants at every step: each slot's completion PMF carries
    // (sub-)unit mass, its chance respects Eq. 2's bounds, and the cached
    // cumulative view answers exactly like the PMF it summarises.
    for (std::size_t pos = 0; pos < h.machine.queue.size(); ++pos) {
      const Pmf& completion = incremental.completion(pos);
      const double mass = completion.total_mass();
      ASSERT_LE(mass, 1.0 + 1e-9);
      ASSERT_GE(mass, 1.0 - 1e-9);  // chains of proper PMFs stay proper
      ASSERT_GE(incremental.chance(pos), 0.0);
      ASSERT_LE(incremental.chance(pos), 1.0 + 1e-12);
      const PmfCdf& cdf = incremental.completion_cdf(pos);
      for (const Tick t : {completion.min_time() - 1, completion.min_time(),
                           (completion.min_time() + completion.max_time()) / 2,
                           completion.max_time() + 1}) {
        ASSERT_EQ(cdf.mass_before(t), completion.mass_before(t))
            << "cdf view diverged at horizon " << t << ", pos " << pos;
      }
    }
  }
}

TEST_P(CompletionIncrementalTest, ChanceIfAppendedMatchesAppendThenChance) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  ChainHarness h(seed);
  const double mean = h.pet.mean_overall();
  CompletionModel model(&h.pet, &h.machine, &h.tasks, {});
  model.set_now(100);

  for (int depth = 0; depth < 10; ++depth) {
    const auto type = static_cast<TaskTypeId>(rng.uniform_int(0, kTaskTypes - 1));
    const Tick deadline =
        100 + static_cast<Tick>(mean * rng.uniform(0.5, 8.0));
    // Probe first (no materialised convolution) ...
    const double probe = model.chance_if_appended(type, deadline);
    // ... then actually append and compare against the chain's Eq. 2.
    h.machine.enqueue(h.add_task(type, deadline));
    model.invalidate_from(h.machine.queue.size() - 1);
    // The probe folds the *untrimmed* tail against the execution CDF while
    // the materialised chain sheds sub-epsilon bins at every link, so the
    // two agree to the library's proper-mass tolerance (1e-9), not to the
    // single-kernel 1e-12 bound.
    const double actual = model.chance(h.machine.queue.size() - 1);
    ASSERT_NEAR(probe, actual, 1e-9)
        << "depth " << depth << ", seed " << seed;
  }
}

TEST_P(CompletionIncrementalTest, ChanceMonotoneUnderDeadlineTightening) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0xBF58476D1CE4E5B9ull + 5);
  ChainHarness h(seed);
  const Pmf& exec = h.pet.pmf(0, 0);

  // Build a random predecessor chain, then sweep the last link's deadline:
  // the chance of success (Eq. 2 of the Eq. 1 result) must be
  // non-decreasing as the deadline loosens, and the completion mass below
  // any fixed horizon must be non-increasing as the deadline tightens.
  Pmf chain = Pmf::delta(kStride * rng.uniform_int(0, 10));
  for (int link = 0; link < 3; ++link) {
    const Tick d = chain.min_time() +
                   kStride * rng.uniform_int(1, 40);
    chain = deadline_convolve(chain, exec, d);
  }
  double prev = -1.0;
  for (Tick d = chain.min_time() - kStride;
       d <= chain.max_time() + exec.max_time() + kStride; d += kStride) {
    const double chance =
        chance_of_success(deadline_convolve(chain, exec, d), d);
    ASSERT_GE(chance, prev - 1e-12) << "deadline " << d << ", seed " << seed;
    prev = chance;
  }
}

INSTANTIATE_TEST_SUITE_P(SeededSequences, CompletionIncrementalTest,
                         ::testing::Range<std::uint64_t>(1, 13));

/// Chain-keeping lockdown for the conditioned and failure paths.
///
/// Drives random start / complete / fail / drop / advance scripts with
/// *production* invalidation hints — notify_head_started on starts, set_now
/// (with its conditioned keep) on advances — against two witnesses at every
/// step: an identically-driven paranoid_rebuild model (every keep fast path
/// disabled, i.e. the pre-refactor conservative invalidation) and a
/// from-scratch rebuild. All three chains, and all three models' memoised
/// drop windows, must be bitwise equal. Failures are modelled as the
/// scheduler mutates state: the running task is killed and the queue sits
/// idle across a time gap until a later start — exactly the regime whose
/// blanket invalidate the keep replaces.
class ChainKeepTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(ChainKeepTest, KeepPathsMatchParanoidAndRebuild) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const bool conditioned = std::get<1>(GetParam());
  Rng rng(seed * 0xD1B54A32D192ED03ull + (conditioned ? 17 : 2));
  ChainHarness h(seed);
  const double mean = h.pet.mean_overall();

  CompletionModel::Options keep_options;
  keep_options.condition_running = conditioned;
  CompletionModel::Options paranoid_options = keep_options;
  paranoid_options.paranoid_rebuild = true;

  Tick now = 0;
  CompletionModel kept(&h.pet, &h.machine, &h.tasks, keep_options);
  CompletionModel paranoid(&h.pet, &h.machine, &h.tasks, paranoid_options);
  kept.set_now(now);
  paranoid.set_now(now);

  for (int step = 0; step < 80; ++step) {
    const auto op = rng.uniform_int(0, 9);
    const char* what = "advance";
    if ((op <= 2 && h.machine.queue.size() < 48) ||
        h.machine.queue.empty()) {
      const auto type =
          static_cast<TaskTypeId>(rng.uniform_int(0, kTaskTypes - 1));
      const Tick deadline =
          now + static_cast<Tick>(mean * rng.uniform(0.5, 6.0));
      h.machine.enqueue(h.add_task(type, deadline));
      kept.invalidate_from(h.machine.queue.size() - 1);
      paranoid.invalidate_from(h.machine.queue.size() - 1);
      what = "append";
    } else if (op == 3 && !h.machine.running) {
      // Start the head "now" — the keep-eligible event. A late head is
      // reactively dropped instead, mirroring start_pass.
      const Task& head =
          h.tasks[static_cast<std::size_t>(h.machine.queue.front())];
      if (now < head.deadline) {
        h.machine.running = true;
        h.machine.run_start = now;
        kept.notify_head_started(head.deadline);
        paranoid.notify_head_started(head.deadline);
        what = "start";
      } else {
        h.machine.queue.pop_front();
        kept.invalidate_all();
        paranoid.invalidate_all();
        what = "late-head drop";
      }
    } else if (op == 4 && h.machine.running) {
      h.machine.queue.pop_front();
      h.machine.running = false;
      kept.invalidate_all();
      paranoid.invalidate_all();
      what = "complete";
    } else if (op == 5 && h.machine.running) {
      // Machine failure: the running task is lost; the queue then sits
      // idle across whatever time gap follows (no auto-restart).
      h.machine.queue.pop_front();
      h.machine.running = false;
      kept.invalidate_all();
      paranoid.invalidate_all();
      what = "fail";
    } else if (op <= 7 && h.machine.pending_count() > 0) {
      const std::size_t pos = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(h.machine.first_pending_pos()),
          static_cast<std::int64_t>(h.machine.queue.size() - 1)));
      h.machine.remove_at(pos);
      kept.invalidate_from(pos);
      paranoid.invalidate_from(pos);
      what = "drop";
    } else {
      // Mix short advances (below the conditioned slot's first kept bin —
      // the keep regime) with long ones (crossing into the running task's
      // completion support — the rebuild regime).
      const Tick delta = rng.uniform01() < 0.6
                             ? kStride * rng.uniform_int(1, 6)
                             : kStride * rng.uniform_int(8, 40);
      now += delta;
      kept.set_now(now);
      paranoid.set_now(now);
    }

    CompletionModel rebuilt = h.fresh_model(now, keep_options);
    expect_chain_bitwise_equal(kept, paranoid, h.machine, what);
    expect_chain_bitwise_equal(kept, rebuilt, h.machine, what);
    expect_windows_bitwise_equal(kept, rebuilt, h, eta_of(seed), what);
    expect_windows_bitwise_equal(paranoid, rebuilt, h, eta_of(seed), what);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededScripts, ChainKeepTest,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 11),
                       ::testing::Bool()));

}  // namespace
}  // namespace taskdrop
