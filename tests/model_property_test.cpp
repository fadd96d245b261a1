// Deeper property sweeps over the probabilistic model: relationships the
// mathematics guarantees for arbitrary queues, deadlines and PMF shapes.
#include <gtest/gtest.h>

#include "online/system_state.hpp"
#include "pet/pet_builder.hpp"
#include "prob/convolution.hpp"
#include "test_util.hpp"

namespace taskdrop {
namespace {

class ModelProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  PetMatrix random_pet(Rng& rng, int task_types) {
    PetMatrix pet(task_types, 1);
    for (int t = 0; t < task_types; ++t) {
      std::vector<std::pair<Tick, double>> impulses;
      const int n = static_cast<int>(rng.uniform_int(1, 6));
      for (int i = 0; i < n; ++i) {
        impulses.emplace_back(rng.uniform_int(1, 15), rng.uniform(0.1, 1.0));
      }
      Pmf pmf = Pmf::from_impulses(std::move(impulses));
      pmf.normalize();
      pet.set(t, 0, std::move(pmf));
    }
    pet.freeze();
    return pet;
  }
};

// Convolution is associative up to floating-point noise; queue chains do
// not depend on evaluation grouping.
TEST_P(ModelProperty, ConvolutionIsAssociative) {
  Rng rng(GetParam());
  const PetMatrix pet = random_pet(rng, 3);
  const Pmf& a = pet.pmf(0, 0);
  const Pmf& b = pet.pmf(1, 0);
  const Pmf& c = pet.pmf(2, 0);
  const Pmf left = convolve(convolve(a, b), c);
  const Pmf right = convolve(a, convolve(b, c));
  ASSERT_EQ(left.min_time(), right.min_time());
  ASSERT_EQ(left.max_time(), right.max_time());
  for (std::size_t i = 0; i < left.size(); ++i) {
    ASSERT_NEAR(left.prob_at_index(i), right.prob_at_index(i), 1e-9);
  }
}

// Relaxing a deadline can only increase the chance of success and can only
// shift completion mass earlier or keep it (monotonicity of Eq. 1 in
// delta).
TEST_P(ModelProperty, ChanceIsMonotoneInDeadline) {
  Rng rng(GetParam());
  const PetMatrix pet = random_pet(rng, 1);
  const Pmf pred = convolve(Pmf::delta(rng.uniform_int(0, 5)), pet.pmf(0, 0));
  double prev = -1.0;
  for (Tick deadline = pred.min_time() - 2; deadline <= pred.max_time() + 20;
       ++deadline) {
    const Pmf completion = deadline_convolve(pred, pet.pmf(0, 0), deadline);
    const double chance = completion.mass_before(deadline);
    // Chance of success is non-decreasing in the deadline slack.
    ASSERT_GE(chance + 1e-12, prev) << "deadline " << deadline;
    prev = chance;
  }
  // ...and reaches the untruncated value once the deadline clears the whole
  // start-time support.
  const Tick loose = pred.max_time() + pet.pmf(0, 0).max_time() + 1;
  const Pmf untruncated = convolve(pred, pet.pmf(0, 0));
  ASSERT_NEAR(deadline_convolve(pred, pet.pmf(0, 0), loose).mass_before(loose),
              untruncated.mass_before(loose), 1e-9);
}

// The model's chance for a queue position equals the chance computed by an
// independent chain rebuilt from scratch (cache transparency).
TEST_P(ModelProperty, CachedChancesMatchFreshChains) {
  Rng rng(GetParam());
  const PetMatrix pet = random_pet(rng, 4);
  SystemState system(pet, {0}, 10);
  const int depth = static_cast<int>(rng.uniform_int(2, 8));
  for (int i = 0; i < depth; ++i) {
    system.enqueue(0, static_cast<TaskTypeId>(rng.uniform_int(0, 3)),
                   rng.uniform_int(2, 60));
  }
  // Mutate a bit: drop a random pending task, enqueue another.
  if (depth > 2) {
    system.drop_queued_task(
        0, static_cast<std::size_t>(rng.uniform_int(0, depth - 2)));
  }
  system.enqueue(0, 0, rng.uniform_int(5, 60));

  CompletionModel& model = system.model(0);
  const Machine& machine = system.machine(0);
  Pmf chain = Pmf::delta(0);
  for (std::size_t pos = 0; pos < machine.queue.size(); ++pos) {
    const Task& task =
        system.task(machine.queue[pos]);
    chain = deadline_convolve(chain, pet.pmf(task.type, 0), task.deadline);
    ASSERT_NEAR(model.chance(pos), chain.mass_before(task.deadline), 1e-9)
        << "position " << pos;
  }
}

// Downgrading a task to its (faster) approximate variant never lowers the
// task's *own* chance of success: the start-time distribution is unchanged
// and the execution time is stochastically smaller.
//
// Note what is deliberately NOT asserted: downgrading can *hurt* successors.
// A full-quality task that would miss its start deadline vanishes as a
// reactive drop (Eq. 1 pass-through — the successor starts at the
// predecessor's completion), whereas its faster approximate variant may now
// start in time and occupy the machine. The ApproxDropper's window utility
// (which this suite exercises end-to-end elsewhere) accounts for exactly
// this interaction; a per-successor monotonicity claim would be false.
TEST_P(ModelProperty, DowngradeNeverHurtsTheTaskItself) {
  Rng rng(GetParam());
  const PetMatrix pet = random_pet(rng, 3);
  const PetMatrix approx = scaled_pet(pet, 0.5);
  CompletionModel::Options options;
  options.approx_pet = &approx;
  SystemState system(pet, {0}, 10, 0, options);
  const int depth = static_cast<int>(rng.uniform_int(3, 7));
  for (int i = 0; i < depth; ++i) {
    system.enqueue(0, static_cast<TaskTypeId>(rng.uniform_int(0, 2)),
                   rng.uniform_int(3, 50));
  }
  CompletionModel& model = system.model(0);
  const auto victim = static_cast<std::size_t>(rng.uniform_int(0, depth - 2));
  const double own_before = model.chance(victim);
  system.downgrade_task(0, victim);
  ASSERT_GE(model.chance(victim) + 1e-9, own_before);
}

// scale_time(1.0) is the identity on lattice-aligned PMFs, and the mean
// scales roughly with the factor.
TEST_P(ModelProperty, ScaleTimeBehavesLikeTimeScaling) {
  Rng rng(GetParam());
  const PetMatrix pet = random_pet(rng, 1);
  const Pmf& pmf = pet.pmf(0, 0);
  ASSERT_EQ(pmf.scale_time(1.0), pmf);
  const Pmf half = pmf.scale_time(0.5);
  ASSERT_NEAR(half.total_mass(), 1.0, 1e-12);
  // Rounding and the one-stride clamp allow modest deviation.
  ASSERT_NEAR(half.mean(), pmf.mean() * 0.5, 0.5 + pmf.mean() * 0.1);
  ASSERT_LE(half.max_time(), pmf.max_time());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelProperty,
                         ::testing::Range<std::uint64_t>(50, 70));

}  // namespace
}  // namespace taskdrop
