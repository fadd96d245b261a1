#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "map_histogram.hpp"
#include "prob/histogram.hpp"
#include "prob/sampler.hpp"
#include "test_util.hpp"

namespace taskdrop {
namespace {

using test::pmf_of;

// ----------------------------- histogram -----------------------------

TEST(Histogram, BinsSamplesToNearestLatticePoint) {
  // bin width 5: 12 -> 10, 13 -> 15, 22 -> 20.
  const Pmf pmf = pmf_from_samples({12.0, 13.0, 22.0, 22.0}, 5);
  EXPECT_EQ(pmf.stride(), 5);
  EXPECT_DOUBLE_EQ(pmf.prob_at(10), 0.25);
  EXPECT_DOUBLE_EQ(pmf.prob_at(15), 0.25);
  EXPECT_DOUBLE_EQ(pmf.prob_at(20), 0.5);
  EXPECT_NEAR(pmf.total_mass(), 1.0, 1e-12);
}

TEST(Histogram, ClampsToAtLeastOneBin) {
  // Samples near zero land in the first positive bin: execution times are
  // strictly positive.
  const Pmf pmf = pmf_from_samples({0.0, 0.4, 1.0}, 5);
  EXPECT_EQ(pmf.min_time(), 5);
  EXPECT_NEAR(pmf.total_mass(), 1.0, 1e-12);
}

TEST(Histogram, OffsetIsLatticeMultiple) {
  // Required by deadline_convolve's pass-through lattice alignment.
  const Pmf pmf = pmf_from_samples({103.0, 197.0, 151.0}, 7);
  EXPECT_EQ(pmf.min_time() % 7, 0);
  EXPECT_EQ(pmf.stride(), 7);
}

TEST(Histogram, PreservesMeanApproximately) {
  std::vector<double> samples;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.gamma(25.0, 5.0));
  const Pmf pmf = pmf_from_samples(samples, 5);
  // Gamma(25, 5) has mean 125; binning at width 5 keeps it within a bin.
  EXPECT_NEAR(pmf.mean(), 125.0, 5.0);
}

// ----------------------------- CdfSampler ----------------------------

TEST(CdfSampler, InvalidWhenDefaultConstructed) {
  const CdfSampler sampler;
  EXPECT_FALSE(sampler.valid());
}

TEST(CdfSampler, MatchesPmfSampleDistribution) {
  const Pmf pmf = pmf_of({{10, 0.2}, {20, 0.5}, {30, 0.3}});
  const CdfSampler sampler(pmf);
  ASSERT_TRUE(sampler.valid());
  Rng rng(3);
  int counts[3] = {0, 0, 0};
  constexpr int kDraws = 30000;
  for (int i = 0; i < kDraws; ++i) {
    const Tick draw = sampler.sample(rng);
    ASSERT_TRUE(draw == 10 || draw == 20 || draw == 30);
    ++counts[(draw - 10) / 10];
  }
  EXPECT_NEAR(counts[0] / double(kDraws), 0.2, 0.02);
  EXPECT_NEAR(counts[1] / double(kDraws), 0.5, 0.02);
  EXPECT_NEAR(counts[2] / double(kDraws), 0.3, 0.02);
}

TEST(CdfSampler, SkipsZeroProbabilityBins) {
  Pmf pmf(0, 1, {0.0, 1.0, 0.0});
  const CdfSampler sampler(pmf);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampler.sample(rng), 1);
  }
}

// ------------------------------ PmfCdf -------------------------------

class PmfCdfTest : public ::testing::TestWithParam<Tick> {};

TEST_P(PmfCdfTest, MassBeforeAgreesWithPmfEverywhere) {
  const Tick stride = GetParam();
  const Pmf pmf = pmf_of({{2 * stride, 0.1},
                          {3 * stride, 0.4},
                          {5 * stride, 0.2},
                          {8 * stride, 0.3}},
                         stride);
  const PmfCdf cdf(pmf);
  ASSERT_TRUE(cdf.valid());
  EXPECT_NEAR(cdf.total_mass(), 1.0, 1e-12);
  for (Tick t = 0; t <= 10 * stride; ++t) {
    ASSERT_DOUBLE_EQ(cdf.mass_before(t), pmf.mass_before(t)) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, PmfCdfTest,
                         ::testing::Values<Tick>(1, 3, 5));

TEST(PmfCdf, InvalidWhenDefaultConstructed) {
  const PmfCdf cdf;
  EXPECT_FALSE(cdf.valid());
  EXPECT_DOUBLE_EQ(cdf.total_mass(), 0.0);
}


TEST(HistogramValidation, RejectsMalformedInputs) {
  EXPECT_THROW(pmf_from_samples({}, 10), std::invalid_argument);
  EXPECT_THROW(pmf_from_samples({50.0}, 0), std::invalid_argument);
  EXPECT_THROW(pmf_from_samples({-1.0}, 10), std::invalid_argument);
}

/// pmf_from_samples(samples, width) throws std::invalid_argument whose
/// message contains `names`.
void expect_rejected(const std::vector<double>& samples, Tick width,
                     const std::string& names) {
  try {
    (void)pmf_from_samples(samples, width);
    ADD_FAILURE() << "accepted a sample set that should name " << names;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
        << e.what();
  }
}

TEST(HistogramValidation, RejectsSamplesOffTheTickRange) {
  // Each used to round to LLONG_MIN: NaN and infinity became half the
  // mass at the first bin, 1e19 overflowed `bin * bin_width`.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  expect_rejected({kNaN, 100.0}, 5, "pmf_from_samples: sample nan is not finite");
  expect_rejected({100.0, kInf}, 5, "pmf_from_samples: sample inf is not finite");
  expect_rejected({1e30, 100.0}, 5,
                  "sample 1e+30 ms is past the last tick at bin width 5");
  // 1e19 / 5 rounds within long long, but its bin's time does not fit.
  expect_rejected({1e19, 100.0}, 5,
                  "sample 1e+19 ms is past the last tick at bin width 5");
  expect_rejected({9.3e18}, 1, "past the last tick at bin width 1");
  // The last representable ticks still bin: one sample, one bin.
  const Pmf top = pmf_from_samples({9.2e18}, 1);
  EXPECT_EQ(top.min_time(), Tick{9200000000000000000});
  EXPECT_EQ(top.size(), 1u);
}

// ------------------- dense counts vs the map histogram --------------------

constexpr Tick kWidths[] = {1, 2, 5, 7, 1000};

void expect_matches_map(const std::vector<double>& samples,
                        const std::string& what) {
  for (const Tick width : kWidths) {
    test::expect_pmf_bits_equal(pmf_from_samples(samples, width),
                                test::map_histogram(samples, width),
                                what + ", width " + std::to_string(width));
  }
}

TEST(DenseHistogram, MatchesMapHistogramOnPetRecipeDraws) {
  // The PET recipe's cells: 500 gamma draws, shape = mean / scale within
  // [2.5, 200] (means 50-200 ms, scales 1-20), the extremes included.
  std::vector<std::pair<double, double>> cells = {
      {2.5, 20.0}, {200.0, 1.0}, {2.5, 1.0}, {200.0, 20.0}};
  Rng params(2024);
  for (int i = 0; i < 60; ++i) {
    cells.emplace_back(params.uniform(2.5, 200.0), params.uniform(1.0, 20.0));
  }
  Rng rng(17);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto [shape, scale] = cells[c];
    std::vector<double> samples;
    for (int i = 0; i < 500; ++i) samples.push_back(rng.gamma(shape, scale));
    expect_matches_map(samples, "cell " + std::to_string(c));
  }
}

TEST(DenseHistogram, MatchesMapHistogramOnUniformSamplesOfAnyCount) {
  // Sample counts that do not divide a power of two, so count / n rounds.
  Rng rng(5);
  for (int round = 0; round < 40; ++round) {
    const auto n = static_cast<int>(rng.uniform_int(1, 700));
    const double top = rng.uniform(1.0, 5e4);
    std::vector<double> samples;
    for (int i = 0; i < n; ++i) samples.push_back(rng.uniform(0.0, top));
    expect_matches_map(samples, "round " + std::to_string(round));
  }
}

TEST(DenseHistogram, MatchesMapHistogramOnEdgeSets) {
  for (const Tick width : kWidths) {
    const auto w = static_cast<double>(width);
    const std::string at = ", width " + std::to_string(width);
    // Exact half-bin values: llround rounds half away from zero.
    std::vector<double> halves;
    for (int k = 0; k < 200; ++k) halves.push_back((k + 0.5) * w);
    test::expect_pmf_bits_equal(pmf_from_samples(halves, width),
                                test::map_histogram(halves, width),
                                "half bins" + at);
    EXPECT_EQ(pmf_from_samples(halves, width).min_time(), width) << at;
    // One ulp either side of a half bin: x / width must round them apart
    // (x * (1.0 / width) lands some of them on the half, e.g. 7.4999... at
    // width 5 and 32499.99... at width 1000).
    std::vector<double> beside_halves;
    for (const double half : halves) {
      beside_halves.push_back(std::nextafter(half, 0.0));
      beside_halves.push_back(std::nextafter(half, 1e300));
    }
    test::expect_pmf_bits_equal(pmf_from_samples(beside_halves, width),
                                test::map_histogram(beside_halves, width),
                                "one ulp beside half bins" + at);
    // Below half a bin: clamped to bin 1.
    const std::vector<double> small = {
        0.0, -0.0, 0.25 * w, std::nextafter(0.5 * w, 0.0)};
    test::expect_pmf_bits_equal(pmf_from_samples(small, width),
                                test::map_histogram(small, width),
                                "below half a bin" + at);
    EXPECT_EQ(pmf_from_samples(small, width).size(), 1u) << at;
  }
  expect_matches_map({123.4}, "one sample");
  expect_matches_map(std::vector<double>(37, 4321.0), "one bin");
  // Two far-apart clusters: the interior bins stay +0.0.
  std::vector<double> clusters;
  Rng rng(3);
  for (int i = 0; i < 250; ++i) clusters.push_back(rng.uniform(40.0, 60.0));
  for (int i = 0; i < 250; ++i) {
    clusters.push_back(rng.uniform(90000.0, 90100.0));
  }
  expect_matches_map(clusters, "two clusters");
  const Pmf apart = pmf_from_samples(clusters, 5);
  EXPECT_EQ(apart.prob_at(5000), 0.0);
  EXPECT_FALSE(std::signbit(apart.prob_at(5000)));
}

TEST(CdfSamplerValidation, SampleFromEmptyThrows) {
  const CdfSampler sampler{Pmf{}};
  Rng rng(1);
  EXPECT_THROW(sampler.sample(rng), std::logic_error);
}

}  // namespace
}  // namespace taskdrop
