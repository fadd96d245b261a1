#pragma once

// The sparse std::map histogram that pmf_from_samples used before it
// counted into a dense bin array, kept verbatim as the reference the
// dense version must reproduce bit for bit, and the bitwise PMF
// comparison both lockdowns use.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "prob/pmf.hpp"

namespace taskdrop::test {

inline Pmf map_histogram(const std::vector<double>& samples_ms,
                         Tick bin_width) {
  if (bin_width < 1) {
    throw std::invalid_argument("pmf_from_samples: bin width must be >= 1");
  }
  if (samples_ms.empty()) {
    throw std::invalid_argument("pmf_from_samples: no samples");
  }
  std::map<Tick, double> counts;
  for (double x : samples_ms) {
    if (x < 0.0) {
      throw std::invalid_argument(
          "pmf_from_samples: samples must be >= 0");
    }
    auto bin = static_cast<Tick>(std::llround(x / static_cast<double>(bin_width)));
    if (bin < 1) bin = 1;  // execution takes at least one bin
    counts[bin * bin_width] += 1.0;
  }
  std::vector<std::pair<Tick, double>> impulses;
  impulses.reserve(counts.size());
  const double n = static_cast<double>(samples_ms.size());
  for (const auto& [t, c] : counts) impulses.emplace_back(t, c / n);
  return Pmf::from_impulses(std::move(impulses), bin_width);
}

/// Same offset, stride and size, and every bin the same bit pattern
/// (Pmf::operator== compares doubles, so +0.0 would equal -0.0).
inline void expect_pmf_bits_equal(const Pmf& actual, const Pmf& expected,
                                  const std::string& what) {
  ASSERT_EQ(actual.offset(), expected.offset()) << what;
  ASSERT_EQ(actual.stride(), expected.stride()) << what;
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual.prob_at_index(i)),
              std::bit_cast<std::uint64_t>(expected.prob_at_index(i)))
        << what << ", bin " << i;
  }
}

}  // namespace taskdrop::test
