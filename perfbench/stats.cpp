#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest rank: ceil(p/100 * n), computed in integer arithmetic
/// on p scaled to thousandths so 99.9% of 10,000 is exactly 9,990.
std::size_t rank_of(double p, std::size_t n) {
  const auto milli = static_cast<unsigned long long>(std::llround(p * 1000.0));
  const unsigned long long scaled = milli * n;
  return static_cast<std::size_t>((scaled + 100000 - 1) / 100000);
}

}  // namespace

Tail nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    throw std::invalid_argument("nearest_rank: empty sample");
  }
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("nearest_rank: p must be in (0, 100]");
  }
  const std::size_t rank = std::max<std::size_t>(1, rank_of(p, sorted.size()));
  return Tail{sorted[rank - 1], sorted.size(), sorted.size() - rank};
}

}  // namespace perfbench
