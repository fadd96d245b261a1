#include "speed_reference.hpp"

#include <time.h>

#include <algorithm>
#include <numeric>

#include "util/stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTaps = 512;
constexpr int kConvolutions = 8;
constexpr std::size_t kWalkSlots = std::size_t{1} << 16;  // 256 KiB of slots
constexpr int kWalkSteps = 200000;
/// CPU seconds one sample takes at nominal speed: the median on a
/// 4-vCPU Xeon VM at 2.0 GHz (GCC 12, -O3) in its fast state. Only
/// the scale of the normalised figures depends on it.
constexpr double kNominalSeconds = 0.0025;

volatile double g_sink = 0.0;

}  // namespace

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

SpeedReference::SpeedReference()
    : a_(kTaps), b_(kTaps), out_(2 * kTaps), next_(kWalkSlots) {
  for (std::size_t i = 0; i < kTaps; ++i) {
    a_[i] = 1.0 / static_cast<double>(i + 1);
    b_[i] = 1.0 / static_cast<double>(i + 2);
  }
  // One cycle through every slot, in a fixed pseudo-random order.
  std::vector<std::uint32_t> order(kWalkSlots);
  std::iota(order.begin(), order.end(), 0u);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = kWalkSlots - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(order[i], order[(state >> 33) % (i + 1)]);
  }
  for (std::size_t i = 0; i < kWalkSlots; ++i) {
    next_[order[i]] = order[(i + 1) % kWalkSlots];
  }
}

void SpeedReference::sample() {
  const double start = process_cpu_seconds();
  double acc = 0.0;
  for (int rep = 0; rep < kConvolutions; ++rep) {
    std::fill(out_.begin(), out_.end(), 0.0);
    for (std::size_t i = 0; i < kTaps; ++i) {
      const double x = a_[i];
      double* __restrict out = out_.data() + i;
      const double* __restrict b = b_.data();
      for (std::size_t j = 0; j < kTaps; ++j) out[j] += x * b[j];
    }
    acc += out_[static_cast<std::size_t>(rep)];
  }
  std::uint32_t slot = 0;
  for (int step = 0; step < kWalkSteps; ++step) slot = next_[slot];
  g_sink = acc + slot;
  seconds_.push_back(process_cpu_seconds() - start);
}

double SpeedReference::slowdown() const {
  return seconds_.empty() ? 1.0
                         : taskdrop::percentile(seconds_, 50.0) / kNominalSeconds;
}

}  // namespace perfbench
