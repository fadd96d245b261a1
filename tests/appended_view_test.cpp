// Differential lockdown for the revision-keyed appended-distribution cache:
// chance_if_appended and appended_view must reproduce the pre-cache direct
// computation — the ascending-time dot product of the cached tail PMF
// against the execution CDF — at every deadline, across random machine
// states, revisions and type sets, including every cache-invalidation-
// after-mutation path (enqueue, drop, start, time advance).
#include <gtest/gtest.h>

#include <vector>

#include "core/completion_model.hpp"
#include "online/system_state.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace taskdrop {
namespace {

using test::pet_of;

/// The pre-cache computation, verbatim: Eq. 2 applied to Eq. 1 without
/// materialising the convolution (see CompletionModel::chance_if_appended
/// before the cache landed).
double reference_chance_if_appended(CompletionModel& model, const Machine& m,
                                    const PetMatrix& pet, Tick now,
                                    TaskTypeId type, Tick deadline) {
  const PmfCdf& exec_cdf = pet.cdf(type, m.type);
  if (m.queue.empty()) {
    return now < deadline ? exec_cdf.mass_before(deadline - now) : 0.0;
  }
  const Pmf& pred = model.completion(m.queue.size() - 1);
  double sum = 0.0;
  const double* p = pred.data();
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const Tick k = pred.time_at(i);
    if (k >= deadline) break;
    if (p[i] == 0.0) continue;
    sum += p[i] * exec_cdf.mass_before(deadline - k);
  }
  return sum;
}

/// Random PET: `types` task types x 1 machine type on the given stride
/// lattice, positive execution times, proper per-cell mass.
PetMatrix random_pet(Rng& rng, int types, Tick stride) {
  std::vector<std::vector<std::vector<std::pair<Tick, double>>>> cells;
  for (int t = 0; t < types; ++t) {
    const Tick offset = stride * rng.uniform_int(1, 4);
    const int bins = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<std::pair<Tick, double>> impulses;
    double total = 0.0;
    for (int b = 0; b < bins; ++b) {
      const double p = rng.uniform(0.05, 1.0);
      impulses.emplace_back(offset + stride * b, p);
      total += p;
    }
    for (auto& impulse : impulses) impulse.second /= total;
    cells.push_back({impulses});
  }
  return pet_of(cells, stride);
}

/// Probes every type over a deadline sweep spanning (and overshooting) the
/// appended support, both through the lazy memo (chance_if_appended) and
/// the eager table (appended_view), against the direct reference.
void expect_probes_match(SystemState& system, const PetMatrix& pet,
                         Tick now, Tick horizon, Tick step,
                         const char* label) {
  CompletionModel& model = system.model(0);
  const Machine& machine = system.machine(0);
  for (TaskTypeId type = 0; type < pet.task_type_count(); ++type) {
    for (Tick deadline = 0; deadline <= horizon; deadline += step) {
      const double expected = reference_chance_if_appended(
          model, machine, pet, now, type, deadline);
      const double memoised = model.chance_if_appended(type, deadline);
      ASSERT_DOUBLE_EQ(memoised, expected)
          << label << " type=" << type << " deadline=" << deadline;
      // Repeat once more to hit the filled memo cell.
      ASSERT_DOUBLE_EQ(model.chance_if_appended(type, deadline), expected)
          << label << " (repeat) type=" << type << " deadline=" << deadline;
      const double viewed = model.appended_view(type).mass_before(deadline);
      ASSERT_DOUBLE_EQ(viewed, expected)
          << label << " (view) type=" << type << " deadline=" << deadline;
    }
  }
}

TEST(AppendedView, MatchesDirectComputationAcrossRandomStates) {
  Rng rng(7042);
  for (const Tick stride : {Tick{1}, Tick{3}}) {
    for (int round = 0; round < 20; ++round) {
      const int types = static_cast<int>(rng.uniform_int(1, 4));
      const PetMatrix pet = random_pet(rng, types, stride);
      SystemState system(pet, {0}, /*queue_capacity=*/8, /*now=*/0);

      const int depth = static_cast<int>(rng.uniform_int(0, 6));
      Tick deadline = stride * 6;
      for (int i = 0; i < depth; ++i) {
        deadline += stride * rng.uniform_int(1, 8);
        system.enqueue(0, static_cast<TaskTypeId>(rng.uniform_int(
                              0, static_cast<Tick>(types) - 1)),
                       deadline);
      }
      const bool running = depth > 0 && rng.uniform01() < 0.5;
      if (running) system.set_running(0, /*run_start=*/0);

      const Tick horizon = deadline + stride * 60;
      // Off-lattice probes included on purpose: step 1 walks every tick.
      expect_probes_match(system, pet, /*now=*/0, horizon, /*step=*/1,
                          "random state");
    }
  }
}

TEST(AppendedView, InvalidatesOnEveryQueueMutation) {
  Rng rng(99);
  const PetMatrix pet = random_pet(rng, 2, /*stride=*/1);
  SystemState system(pet, {0}, 8, /*now=*/0);
  CompletionModel& model = system.model(0);

  // Warm the cache on the empty queue, then mutate step by step; each
  // mutation bumps the revision and must fully refresh the cache.
  expect_probes_match(system, pet, 0, 80, 1, "empty");

  system.enqueue(0, 0, 30);
  auto revision = model.revision();
  expect_probes_match(system, pet, 0, 120, 1, "after enqueue");

  system.enqueue(0, 1, 45);
  EXPECT_NE(model.revision(), revision);
  expect_probes_match(system, pet, 0, 140, 1, "after second enqueue");

  system.set_running(0, /*run_start=*/2);
  expect_probes_match(system, pet, 0, 140, 1, "after start");

  system.drop_queued_task(0, 1);
  expect_probes_match(system, pet, 0, 140, 1, "after drop");
}

TEST(AppendedView, EmptyQueueTracksNow) {
  Rng rng(5);
  const PetMatrix pet = random_pet(rng, 2, /*stride=*/2);
  SystemState system(pet, {0}, 8, /*now=*/0);
  // The idle probe depends on `now` even though no mutation bumps the
  // revision — the cache must not serve stale values across set_now.
  expect_probes_match(system, pet, 0, 60, 1, "now=0");
  system.set_now(7);
  expect_probes_match(system, pet, 7, 80, 1, "now=7");
  system.set_now(8);
  expect_probes_match(system, pet, 8, 80, 1, "now=8");
}

TEST(AppendedView, ViewAgreesWithMaterialisedAppend) {
  // Appending the probed task and reading chance(last) must agree with the
  // view within convolution rounding (the probe-vs-append property the
  // incremental suite checks for chance_if_appended, now for the view).
  Rng rng(123);
  const PetMatrix pet = random_pet(rng, 3, /*stride=*/1);
  for (int round = 0; round < 10; ++round) {
    SystemState system(pet, {0}, 8, /*now=*/0);
    system.enqueue(0, 0, 20 + round);
    system.enqueue(0, 1, 30 + round);
    CompletionModel& model = system.model(0);
    const Tick deadline = 25 + 3 * round;
    const double viewed = model.appended_view(2).mass_before(deadline);
    system.enqueue(0, 2, deadline);
    EXPECT_NEAR(model.chance(2), viewed, 1e-9) << "round " << round;
  }
}

TEST(AppendedView, TailMeanMemoMatchesDirectMean) {
  Rng rng(77);
  const PetMatrix pet = random_pet(rng, 2, /*stride=*/1);
  SystemState system(pet, {0}, 8, /*now=*/3);
  CompletionModel& model = system.model(0);
  EXPECT_DOUBLE_EQ(model.tail_mean(), 3.0);  // empty queue: starts at now

  system.enqueue(0, 0, 40);
  EXPECT_DOUBLE_EQ(model.tail_mean(), model.completion(0).mean());
  // Second read: memo hit, same value.
  EXPECT_DOUBLE_EQ(model.tail_mean(), model.completion(0).mean());

  system.enqueue(0, 1, 60);
  EXPECT_DOUBLE_EQ(model.tail_mean(), model.completion(1).mean());
  system.drop_queued_task(0, 1);
  EXPECT_DOUBLE_EQ(model.tail_mean(), model.completion(0).mean());
}

TEST(AppendedView, RevisionBumpsOnInvalidateNotOnReads) {
  Rng rng(11);
  const PetMatrix pet = random_pet(rng, 2, /*stride=*/1);
  SystemState system(pet, {0}, 8, /*now=*/0);
  CompletionModel& model = system.model(0);
  system.enqueue(0, 0, 50);
  const auto before = model.revision();
  (void)model.chance_if_appended(1, 30);
  (void)model.appended_view(1);
  (void)model.tail_mean();
  (void)model.instantaneous_robustness();
  EXPECT_EQ(model.revision(), before);
  model.invalidate_all();
  EXPECT_NE(model.revision(), before);
}

}  // namespace
}  // namespace taskdrop
