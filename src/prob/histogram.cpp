#include "prob/histogram.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace taskdrop {

Pmf pmf_from_samples(const std::vector<double>& samples_ms, Tick bin_width) {
  if (bin_width < 1) {
    throw std::invalid_argument("pmf_from_samples: bin width must be >= 1");
  }
  if (samples_ms.empty()) {
    throw std::invalid_argument("pmf_from_samples: no samples");
  }
  // Pass 1: validate and round every sample, and find the occupied bins.
  std::vector<Tick> bins;
  bins.reserve(samples_ms.size());
  Tick lo = std::numeric_limits<Tick>::max();
  Tick hi = 0;
  for (double x : samples_ms) {
    if (x < 0.0) {
      throw std::invalid_argument(
          "pmf_from_samples: samples must be >= 0");
    }
    const Tick bin = lattice_bin(x, bin_width, "pmf_from_samples: sample");
    bins.push_back(bin);
    lo = std::min(lo, bin);
    hi = std::max(hi, bin);
  }
  // Pass 2: count into the dense bins [lo, hi]. Counts are exact small
  // integers and an empty bin stays +0.0, so every bin is the same double
  // as a sparse histogram's count / n.
  std::vector<double> probs(static_cast<std::size_t>(hi - lo + 1), 0.0);
  for (Tick bin : bins) probs[static_cast<std::size_t>(bin - lo)] += 1.0;
  const double n = static_cast<double>(samples_ms.size());
  for (double& p : probs) p /= n;
  return Pmf(lo * bin_width, bin_width, std::move(probs));
}

}  // namespace taskdrop
