#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "map_histogram.hpp"
#include "pet/pet_builder.hpp"
#include "pet/pet_matrix.hpp"
#include "test_util.hpp"
#include "workload/scenario.hpp"

namespace taskdrop {
namespace {

using test::pmf_of;

TEST(PetMatrix, StoresAndReturnsCells) {
  PetMatrix pet(2, 2);
  pet.set(0, 0, pmf_of({{10, 1.0}}));
  pet.set(0, 1, pmf_of({{20, 1.0}}));
  pet.set(1, 0, pmf_of({{30, 1.0}}));
  pet.set(1, 1, pmf_of({{40, 1.0}}));
  pet.freeze();
  EXPECT_TRUE(pet.frozen());
  EXPECT_DOUBLE_EQ(pet.pmf(0, 1).mean(), 20.0);
  EXPECT_DOUBLE_EQ(pet.mean_execution(1, 0), 30.0);
}

TEST(PetMatrix, TaskAndGrandMeans) {
  PetMatrix pet(2, 2);
  pet.set(0, 0, pmf_of({{10, 1.0}}));
  pet.set(0, 1, pmf_of({{20, 1.0}}));
  pet.set(1, 0, pmf_of({{30, 1.0}}));
  pet.set(1, 1, pmf_of({{50, 1.0}}));
  pet.freeze();
  EXPECT_DOUBLE_EQ(pet.mean_over_machines(0), 15.0);
  EXPECT_DOUBLE_EQ(pet.mean_over_machines(1), 40.0);
  EXPECT_DOUBLE_EQ(pet.mean_overall(), 27.5);
}

TEST(PetMatrix, SamplerAndCdfDeriveFromCell) {
  PetMatrix pet(1, 1);
  pet.set(0, 0, pmf_of({{5, 0.5}, {15, 0.5}}));
  pet.freeze();
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Tick draw = pet.sampler(0, 0).sample(rng);
    EXPECT_TRUE(draw == 5 || draw == 15);
  }
  EXPECT_DOUBLE_EQ(pet.cdf(0, 0).mass_before(6), 0.5);
  EXPECT_DOUBLE_EQ(pet.cdf(0, 0).mass_before(16), 1.0);
}

// ------------------------------ builder ------------------------------

TEST(PetBuilder, GammaPmfHasRequestedMeanAndLattice) {
  Rng rng(7);
  const Pmf pmf = gamma_execution_pmf(rng, 125.0, 10.0, 2000, 5);
  EXPECT_EQ(pmf.stride(), 5);
  EXPECT_EQ(pmf.min_time() % 5, 0);
  EXPECT_NEAR(pmf.total_mass(), 1.0, 1e-12);
  // Gamma(shape=12.5, scale=10): stddev ~ 35; 2000 samples pin the mean
  // within a few ms.
  EXPECT_NEAR(pmf.mean(), 125.0, 5.0);
}

TEST(PetBuilder, HigherScaleMeansWiderPmf) {
  Rng rng1(7), rng2(7);
  const Pmf narrow = gamma_execution_pmf(rng1, 125.0, 1.0, 2000, 5);
  const Pmf wide = gamma_execution_pmf(rng2, 125.0, 20.0, 2000, 5);
  EXPECT_LT(narrow.variance(), wide.variance());
}

TEST(PetBuilder, BuildsFrozenMatrixOfRightShape) {
  const std::vector<std::vector<double>> means = {
      {60.0, 80.0, 100.0}, {120.0, 90.0, 70.0}};
  Rng rng(42);
  PetBuildOptions options;
  options.samples_per_cell = 200;
  const PetMatrix pet = build_pet_from_means(means, rng, options);
  EXPECT_TRUE(pet.frozen());
  EXPECT_EQ(pet.task_type_count(), 2);
  EXPECT_EQ(pet.machine_type_count(), 3);
  for (int t = 0; t < 2; ++t) {
    for (int m = 0; m < 3; ++m) {
      // With scale up to 20 and 200 samples the empirical mean may wander,
      // but must stay in the right neighbourhood.
      EXPECT_NEAR(pet.mean_execution(t, m),
                  means[static_cast<std::size_t>(t)][static_cast<std::size_t>(m)],
                  means[static_cast<std::size_t>(t)][static_cast<std::size_t>(m)] * 0.15);
    }
  }
}

TEST(PetBuilder, DeterministicGivenSeed) {
  const std::vector<std::vector<double>> means = {{100.0}};
  Rng rng1(9), rng2(9);
  const PetMatrix a = build_pet_from_means(means, rng1);
  const PetMatrix b = build_pet_from_means(means, rng2);
  EXPECT_EQ(a.pmf(0, 0), b.pmf(0, 0));
}

/// build_pet_from_means as it was with the map histogram: the same scale
/// and gamma draws from the same stream, binned by test::map_histogram.
std::vector<std::vector<Pmf>> map_pet_from_means(
    const std::vector<std::vector<double>>& means, Rng& rng,
    const PetBuildOptions& options) {
  std::vector<std::vector<Pmf>> cells;
  for (const std::vector<double>& row : means) {
    cells.emplace_back();
    for (const double mean : row) {
      const double scale = rng.uniform(options.scale_min, options.scale_max);
      std::vector<double> draws;
      for (int i = 0; i < options.samples_per_cell; ++i) {
        draws.push_back(rng.gamma(mean / scale, scale));
      }
      cells.back().push_back(test::map_histogram(draws, options.bin_width));
    }
  }
  return cells;
}

TEST(PetBuilder, ScenarioPetsMatchTheMapHistogramBitwise) {
  // Every golden depends on these bits: make_scenario's PETs must equal,
  // cell for cell, the PETs the map histogram built.
  for (const ScenarioKind kind :
       {ScenarioKind::SpecHC, ScenarioKind::Video, ScenarioKind::Homogeneous}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const Scenario scenario = make_scenario(kind, seed);
      Rng rng = Rng::derive(seed, 0x9e7);  // make_scenario's PET stream
      const auto expected = map_pet_from_means(
          scenario.profile.mean_execution_ms, rng, PetBuildOptions{});
      ASSERT_EQ(scenario.pet.task_type_count(),
                static_cast<int>(expected.size()));
      for (TaskTypeId t = 0; t < scenario.pet.task_type_count(); ++t) {
        const auto& row = expected[static_cast<std::size_t>(t)];
        ASSERT_EQ(scenario.pet.machine_type_count(),
                  static_cast<int>(row.size()));
        for (MachineTypeId m = 0; m < scenario.pet.machine_type_count(); ++m) {
          test::expect_pmf_bits_equal(
              scenario.pet.pmf(t, m), row[static_cast<std::size_t>(m)],
              std::string(to_string(kind)) + " seed " + std::to_string(seed) +
                  " cell (" + std::to_string(t) + ", " + std::to_string(m) +
                  ")");
        }
      }
    }
  }
}

TEST(PetBuilder, PaperRecipeDefaults) {
  const PetBuildOptions options;
  EXPECT_EQ(options.samples_per_cell, 500);  // "We sampled 500 execution times"
  EXPECT_DOUBLE_EQ(options.scale_min, 1.0);  // "chosen uniformly from [1, 20]"
  EXPECT_DOUBLE_EQ(options.scale_max, 20.0);
}

}  // namespace
}  // namespace taskdrop
