// Differential suite for the radix-2 real-FFT convolution path.
//
// The FFT path (prob/fft.{hpp,cpp}) serves the wide-PMF regime behind the
// fft_min_bins crossover in convolve_into / deadline_convolve_into. Two
// properties are locked here:
//
//  1. Accuracy: FFT convolution agrees with the direct multiply-accumulate
//     reference to 1e-12 per bin across ~200 seeded random pairs, including
//     sizes straddling the crossover boundary and power-of-two edges.
//  2. Dispatch: below the crossover the kernels are BIT-IDENTICAL to the
//     direct path — the figure suites' byte-identity rests on every paper
//     configuration staying on the order-preserving kernels — and the gate
//     requires *both* operands to be wide.
#include "prob/fft.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "prob/convolution.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace taskdrop {
namespace {

constexpr double kTol = 1e-12;

using test::FftGateGuard;

/// Direct O(n*m) coefficient-product reference, independent of the kernels.
std::vector<double> direct_convolve(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  }
  return out;
}

std::vector<double> random_probs(Rng& rng, std::size_t bins) {
  std::vector<double> probs(bins);
  double total = 0.0;
  for (double& p : probs) {
    p = rng.uniform01() < 0.15 ? 0.0 : rng.uniform(0.0, 1.0);
    total += p;
  }
  if (total > 0.0) {
    for (double& p : probs) p /= total;
  }
  return probs;
}

Pmf random_wide_pmf(Rng& rng, Tick stride, std::size_t bins) {
  return Pmf(stride * rng.uniform_int(0, 20), stride, random_probs(rng, bins));
}

class FftDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FftDifferentialTest, PlanMatchesDirectReference) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ull + 3);
  FftPlan plan;
  std::vector<double> out;
  // Reusing one plan across growing and shrinking sizes exercises the
  // twiddle/scratch caching; sizes mix odd, prime-ish and power-of-two
  // next_pow2 edges.
  for (const std::size_t na :
       {std::size_t{1}, std::size_t{7}, std::size_t{129},
        static_cast<std::size_t>(rng.uniform_int(200, 900))}) {
    for (const std::size_t nb :
         {std::size_t{1}, std::size_t{64},
          static_cast<std::size_t>(rng.uniform_int(150, 1100))}) {
      const std::vector<double> a = random_probs(rng, na);
      const std::vector<double> b = random_probs(rng, nb);
      const std::vector<double> expected = direct_convolve(a, b);
      out.assign(na + nb - 1, -1.0);
      plan.convolve(a.data(), na, b.data(), nb, out.data());
      ASSERT_EQ(out.size(), expected.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_NEAR(out[i], expected[i], kTol)
            << "bin " << i << " of " << na << "x" << nb << ", seed "
            << GetParam();
        ASSERT_GE(out[i], 0.0) << "negative round-off must be clamped";
      }
    }
  }
}

TEST_P(FftDifferentialTest, ForcedFftConvolveIntoMatchesDirect) {
  Rng rng(GetParam() * 0xBF58476D1CE4E5B9ull + 11);
  FftGateGuard guard;
  PmfWorkspace ws;
  const Tick stride = rng.uniform01() < 0.5 ? 1 : 5;
  const auto na = static_cast<std::size_t>(rng.uniform_int(80, 600));
  const auto nb = static_cast<std::size_t>(rng.uniform_int(80, 600));
  const Pmf a = random_wide_pmf(rng, stride, na);
  const Pmf b = random_wide_pmf(rng, stride, nb);

  set_fft_min_bins(0);  // direct reference
  Pmf direct;
  convolve_into(a, b, ws, direct);
  set_fft_min_bins(2);  // force the FFT path
  Pmf viafft;
  convolve_into(a, b, ws, viafft);

  ASSERT_FALSE(viafft.empty());
  ASSERT_EQ(viafft.stride(), direct.stride());
  const Tick lo = std::min(viafft.min_time(), direct.min_time());
  const Tick hi = std::max(viafft.max_time(), direct.max_time());
  for (Tick t = lo; t <= hi; t += stride) {
    ASSERT_NEAR(viafft.prob_at(t), direct.prob_at(t), kTol)
        << "time " << t << ", seed " << GetParam();
  }
}

TEST_P(FftDifferentialTest, ForcedFftDeadlineConvolveMatchesDirect) {
  Rng rng(GetParam() * 0x94D049BB133111EBull + 5);
  FftGateGuard guard;
  PmfWorkspace ws;
  const Tick stride = 1;
  const auto np = static_cast<std::size_t>(rng.uniform_int(100, 500));
  const auto ne = static_cast<std::size_t>(rng.uniform_int(100, 500));
  const Pmf pred = random_wide_pmf(rng, stride, np);
  const Pmf exec = random_wide_pmf(rng, stride, ne);
  // Deadlines in every truncation regime; the mixed one exercises the FFT
  // block coexisting with pass-through accumulation.
  const Tick deadlines[] = {pred.min_time() + 1,
                            (pred.min_time() + pred.max_time()) / 2,
                            pred.max_time() + 1,
                            pred.max_time() + exec.max_time() + 10};
  for (const Tick deadline : deadlines) {
    set_fft_min_bins(0);
    Pmf direct;
    deadline_convolve_into(pred, exec, deadline, ws, direct);
    set_fft_min_bins(2);
    Pmf viafft;
    deadline_convolve_into(pred, exec, deadline, ws, viafft);
    ASSERT_EQ(viafft.empty(), direct.empty()) << "seed " << GetParam();
    if (direct.empty()) continue;
    const Tick lo = std::min(viafft.min_time(), direct.min_time());
    const Tick hi = std::max(viafft.max_time(), direct.max_time());
    for (Tick t = lo; t <= hi; t += stride) {
      ASSERT_NEAR(viafft.prob_at(t), direct.prob_at(t), kTol)
          << "time " << t << " deadline " << deadline << ", seed "
          << GetParam();
    }
  }
}

// 24 seeds x (12 plan pairs + 1 convolve pair + 4 deadline regimes) ~= 200+
// seeded pairs, crossover-boundary cases below on top.
INSTANTIATE_TEST_SUITE_P(SeededPairs, FftDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(FftCrossover, GateRequiresBothOperandsWide) {
  FftGateGuard guard;
  set_fft_min_bins(64);
  EXPECT_TRUE(fft_profitable(64, 64));
  EXPECT_TRUE(fft_profitable(1000, 64));
  EXPECT_FALSE(fft_profitable(63, 10000));
  EXPECT_FALSE(fft_profitable(10000, 63));
  EXPECT_FALSE(fft_profitable(1, 1));
  set_fft_min_bins(0);
  EXPECT_FALSE(fft_profitable(100000, 100000)) << "0 disables the path";
}

TEST(FftCrossover, BelowGateIsBitIdenticalToDirect) {
  // The load-bearing dispatch property: at and below the boundary the
  // kernels must run the order-preserving direct path, bit for bit — this
  // is what keeps every figure configuration (narrow execution PMFs)
  // byte-identical across the FFT introduction.
  FftGateGuard guard;
  Rng rng(0xC0FFEEull);
  PmfWorkspace ws;
  for (int round = 0; round < 8; ++round) {
    const auto na = static_cast<std::size_t>(rng.uniform_int(60, 63));
    const auto nb = static_cast<std::size_t>(rng.uniform_int(40, 63));
    const Pmf a = random_wide_pmf(rng, 1, na);
    const Pmf b = random_wide_pmf(rng, 1, nb);
    set_fft_min_bins(0);
    Pmf direct;
    convolve_into(a, b, ws, direct);
    set_fft_min_bins(64);  // gate above both sizes: must dispatch direct
    Pmf gated;
    convolve_into(a, b, ws, gated);
    ASSERT_EQ(gated.size(), direct.size());
    for (std::size_t i = 0; i < gated.size(); ++i) {
      ASSERT_EQ(gated.time_at(i), direct.time_at(i));
      // float-eq-ok: bit-identity dispatch check is exact by design
      ASSERT_EQ(gated.prob_at_index(i), direct.prob_at_index(i))
          << "bin " << i << " round " << round;
    }
  }
}

TEST(FftCrossover, BoundarySizesAgreeAcrossTheGate) {
  // Sizes straddling the gate: (T-1, T-1) direct, (T, T) FFT — both must
  // agree with each other to 1e-12 on a common sub-problem shape, so a
  // decision quantity computed just below and just above the crossover
  // cannot jump by more than round-off.
  FftGateGuard guard;
  Rng rng(0xB0A71E5ull);
  const std::size_t t = 96;
  set_fft_min_bins(t);
  PmfWorkspace ws;
  const Pmf below_a = random_wide_pmf(rng, 1, t - 1);
  const Pmf below_b = random_wide_pmf(rng, 1, t - 1);
  Pmf out_below;
  convolve_into(below_a, below_b, ws, out_below);  // direct dispatch
  set_fft_min_bins(0);
  Pmf ref_below;
  convolve_into(below_a, below_b, ws, ref_below);
  ASSERT_EQ(out_below.size(), ref_below.size());
  for (std::size_t i = 0; i < out_below.size(); ++i) {
    // float-eq-ok: bit-identity dispatch check is exact by design
    ASSERT_EQ(out_below.prob_at_index(i), ref_below.prob_at_index(i));
  }

  set_fft_min_bins(t);
  const Pmf at_a = random_wide_pmf(rng, 1, t);
  const Pmf at_b = random_wide_pmf(rng, 1, t);
  Pmf out_at;
  convolve_into(at_a, at_b, ws, out_at);  // FFT dispatch
  set_fft_min_bins(0);
  Pmf ref_at;
  convolve_into(at_a, at_b, ws, ref_at);
  ASSERT_EQ(out_at.empty(), ref_at.empty());
  const Tick lo = std::min(out_at.min_time(), ref_at.min_time());
  const Tick hi = std::max(out_at.max_time(), ref_at.max_time());
  for (Tick time = lo; time <= hi; ++time) {
    ASSERT_NEAR(out_at.prob_at(time), ref_at.prob_at(time), kTol);
  }
}

TEST(FftCrossover, EqualInputsGiveBitEqualOutputsAcrossPlanHistories) {
  // The FFT result is a pure function of (inputs, transform size): a plan
  // that transformed other sizes first must reproduce a fresh plan's
  // output exactly. Snapshot/restore determinism leans on this — a
  // restored process replays convolutions with a different plan history.
  Rng rng(0xDE7E12ull);
  const std::vector<double> a = random_probs(rng, 700);
  const std::vector<double> b = random_probs(rng, 900);
  FftPlan fresh;
  std::vector<double> out_fresh(a.size() + b.size() - 1, 0.0);
  fresh.convolve(a.data(), a.size(), b.data(), b.size(), out_fresh.data());

  FftPlan warmed;
  const std::vector<double> filler = random_probs(rng, 5000);
  std::vector<double> scratch(2 * filler.size() - 1, 0.0);
  warmed.convolve(filler.data(), filler.size(), filler.data(), filler.size(),
                  scratch.data());
  std::vector<double> out_warmed(a.size() + b.size() - 1, 0.0);
  warmed.convolve(a.data(), a.size(), b.data(), b.size(), out_warmed.data());
  for (std::size_t i = 0; i < out_fresh.size(); ++i) {
    // float-eq-ok: determinism check is exact by design
    ASSERT_EQ(out_fresh[i], out_warmed[i]) << "bin " << i;
  }
}

}  // namespace
}  // namespace taskdrop
