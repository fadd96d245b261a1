#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// CPU seconds the process has used: the clock the reference samples and
/// the trial timings share.
double process_cpu_seconds();

/// A fixed reference computation, timed next to every unit of work so a
/// run can tell how fast the host was while it ran.
///
/// On a shared VM the whole host drifts between fast and slow states that
/// last from tens of seconds to many minutes, and CPU time drifts with it:
/// identical trials have taken up to 1.5x longer an hour apart. The
/// reference is code the benchmark owns, so no change to the library can
/// move it. The median of its samples over a run measures the host's
/// speed in that run, and perfbench scales its timings to nominal speed
/// with it.
///
/// The kernel mixes the two kinds of work the workloads do: a
/// multiply-accumulate convolution over short arrays, like the prob-layer
/// kernels, and a dependent walk over a 256 KiB permutation, like the
/// queue and task-table walks of the mapper and dropper.
class SpeedReference {
 public:
  SpeedReference();

  /// Runs the kernel once and records its CPU time.
  void sample();

  /// Median sample CPU time over the nominal: above 1 when the host ran
  /// slower than nominal. 1 before the first sample.
  double slowdown() const;

  std::size_t samples() const { return seconds_.size(); }

 private:
  std::vector<double> a_, b_, out_;
  std::vector<std::uint32_t> next_;
  std::vector<double> seconds_;
};

}  // namespace perfbench
