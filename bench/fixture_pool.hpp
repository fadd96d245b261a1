// Per-iteration fixtures for micro benches that time one step on a freshly
// built system (a dropper pass, an append, a head start). Pausing the timer
// around every build costs as much as a short step: a pause/resume pair
// alone read 460-530 ns on a 4-vCPU Xeon VM, and its jitter decided such
// rows. So the fixtures come from a pool, built with the timer paused and
// refilled only when used up.
#pragma once

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

namespace taskdrop::bench {

constexpr std::size_t kFixturePoolSize = 64;

/// A fixed iteration count (256 pool refills) for benches whose step is
/// far cheaper than a fixture: Google Benchmark sizes a run by timed time
/// alone, and a 50 ns head start on a depth-64 fixture that takes 130 us
/// to build (4-vCPU Xeon VM) would build fixtures for minutes per row.
constexpr benchmark::IterationCount kFixturePoolIterations =
    kFixturePoolSize * 256;

/// Runs `step(fixture)` once per iteration, each time on a fixture from
/// `make()` that no earlier iteration touched. Building (and replacing) a
/// pool of kFixturePoolSize happens with the timer paused.
template <typename Make, typename Step>
void run_with_fixture_pool(benchmark::State& state, Make make, Step step) {
  std::vector<decltype(make())> pool(kFixturePoolSize);
  std::size_t next = kFixturePoolSize;
  for (auto _ : state) {
    if (next == kFixturePoolSize) {
      state.PauseTiming();
      for (auto& fixture : pool) fixture = make();
      next = 0;
      state.ResumeTiming();
    }
    step(pool[next++]);
  }
}

}  // namespace taskdrop::bench
