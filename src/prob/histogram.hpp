#pragma once

#include <vector>

#include "prob/pmf.hpp"
#include "util/time_types.hpp"

namespace taskdrop {

/// Builds an execution-time PMF from continuous-time samples (milliseconds),
/// reproducing the paper's estimation recipe: "we applied a histogram to
/// discretize the result and produce PMFs" (section V-A).
///
/// Each sample is rounded to the nearest lattice point i * bin_width and
/// clamped to at least one bin (execution times are strictly positive). The
/// result sits on the global lattice (offset is a multiple of bin_width),
/// which the deadline-truncated convolution requires, and sums to exactly 1.
/// Throws std::invalid_argument for a bin width below 1, no samples, or a
/// sample that is negative, not finite or past the last tick
/// (lattice_bin).
Pmf pmf_from_samples(const std::vector<double>& samples_ms, Tick bin_width);

}  // namespace taskdrop
