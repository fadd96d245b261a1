#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/time_types.hpp"

namespace taskdrop {

/// Discrete probability mass function over time ticks.
///
/// This is the workhorse of the paper's probabilistic model: execution times
/// of every (task type, machine type) pair are PMFs stored in the PET matrix
/// (Shestak et al.'s modelling, adopted by the paper), and completion times
/// of queued tasks are PMFs produced by deadline-truncated convolution
/// (Eq. 1). A Pmf is stored densely on a regular lattice:
///
///     support = { offset + i * stride : 0 <= i < size }
///
/// with one probability per lattice point. `stride` is the histogram bin
/// width used when the PMF was estimated from samples; convolving two PMFs
/// with the same stride stays on a lattice with that stride, so the dense
/// representation is closed under the operations the model needs.
///
/// Numerical conventions:
///  * Probabilities are doubles; a *proper* PMF sums to 1 within 1e-9, but
///    intermediate objects (e.g. partial convolutions) may carry less mass.
///  * trim() removes leading/trailing bins below a tiny epsilon; interior
///    zeros are kept so the lattice stays regular.
///  * An empty Pmf (size() == 0) represents "no distribution" and has mass 0.
class Pmf {
 public:
  /// Empty PMF (no support, zero mass).
  Pmf() = default;

  /// PMF carrying all mass at a single time. Deltas are stride-agnostic:
  /// they combine with a PMF of any stride.
  static Pmf delta(Tick t);

  /// Builds a PMF from (time, probability) impulses. Every time must lie on
  /// the lattice {min_time + i * stride}. Probabilities must be >= 0.
  static Pmf from_impulses(std::vector<std::pair<Tick, double>> impulses,
                           Tick stride = 1);

  /// Direct constructor from a dense probability vector.
  Pmf(Tick offset, Tick stride, std::vector<double> probs);

  /// Replaces the contents with the dense bin range [first, last) starting
  /// at `offset`, reusing the existing allocation when its capacity
  /// suffices (the convolution workspace path relies on this staying
  /// allocation-free in steady state). An empty range resets to the empty
  /// PMF (offset 0, stride 1), matching what trim() leaves behind.
  void assign(Tick offset, Tick stride, const double* first,
              const double* last);

  /// Keeps only the bin index range [first, last) in place, rebasing the
  /// offset; no allocation, unlike assign() with overlapping pointers
  /// (which would be UB through vector::assign). An empty range resets to
  /// the empty PMF. Used by the conditioned-completion path to strip the
  /// already-elapsed prefix of a running task's completion PMF.
  void slice(std::size_t first, std::size_t last);

  bool empty() const { return probs_.empty(); }
  std::size_t size() const { return probs_.size(); }
  Tick stride() const { return stride_; }
  Tick offset() const { return offset_; }

  /// Time of the i-th lattice point (i < size()).
  Tick time_at(std::size_t i) const {
    return offset_ + static_cast<Tick>(i) * stride_;
  }
  double prob_at_index(std::size_t i) const { return probs_[i]; }

  /// Dense probability array (size() entries); for kernel inner loops.
  const double* data() const { return probs_.data(); }

  /// Probability at an exact time; 0 when t is off-lattice or out of range.
  double prob_at(Tick t) const;

  Tick min_time() const { return offset_; }
  Tick max_time() const {
    return offset_ + static_cast<Tick>(probs_.size() - 1) * stride_;
  }

  double total_mass() const;

  /// P(X < t) — strictly before, matching Eq. 2's sum over t < delta.
  double mass_before(Tick t) const;

  /// P(X >= t).
  double mass_at_or_after(Tick t) const;

  /// Expectation; 0 for an empty PMF. Not normalised: for a sub-probability
  /// PMF this is sum(t * p(t)), not a conditional mean.
  double mean() const;

  /// Variance of a *proper* PMF (mass ~ 1).
  double variance() const;

  /// Multiplies every probability by `factor`.
  void scale(double factor);

  /// Rescales to total mass 1. No-op on an empty or zero-mass PMF.
  void normalize();

  /// Removes leading/trailing bins with probability <= eps.
  void trim(double eps = 1e-12);

  /// Collapses all mass at times >= horizon into the single lattice bin at
  /// (or just above) horizon. Bounds support growth when queue PMFs are
  /// only ever compared against deadlines below the horizon.
  void lump_tail(Tick horizon);

  /// Adds probability p at time t. Grows the dense array as needed; t must
  /// be lattice-compatible with the current offset/stride.
  void add_impulse(Tick t, double p);

  /// Time-scales the distribution: X' = round(factor * X), snapped to the
  /// stride lattice and clamped to at least one stride (durations stay
  /// positive). Masses landing in the same bin accumulate. Used by the
  /// approximate-computing extension to derive the degraded-quality
  /// execution PMF (e.g. factor 0.5 = "half the work").
  Pmf scale_time(double factor) const;

  /// Smallest time q with P(X <= q) >= p (p in (0, 1]). The PMF must carry
  /// mass; returns max_time() when p exceeds the total mass.
  Tick quantile(double p) const;

  /// Draws a variate by inverse-CDF sampling. The PMF must be proper.
  Tick sample(Rng& rng) const;

  bool operator==(const Pmf& other) const = default;

 private:
  Tick offset_ = 0;
  Tick stride_ = 1;
  std::vector<double> probs_;
};

/// Rounds a duration in ms onto the lattice {i * stride}: i is the nearest
/// bin (std::llround, halves away from zero), clamped to at least 1 since
/// durations are strictly positive. Throws std::invalid_argument naming
/// `what` and the value when the time is not finite or i * stride does
/// not fit in a Tick; both are checked before rounding, because llround
/// maps them to LLONG_MIN, which the clamp would turn into the first bin.
Tick lattice_bin(double time_ms, Tick stride, const char* what);

}  // namespace taskdrop
