#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// A tail percentile read by the nearest-rank rule: `value` is the
/// smallest sample with at least p% of the sample at or below it, and
/// `beyond` counts the samples ranked after it. A tail is only worth
/// reporting when `beyond` is large enough that one outlier cannot move it.
struct Tail {
  double value = 0.0;
  std::size_t count = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile of an ascending-sorted sample, p in (0, 100].
/// Throws std::invalid_argument for an empty sample or p out of range.
Tail nearest_rank(const std::vector<double>& sorted, double p);

}  // namespace perfbench
