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
/// pool of `pool_size` fixtures happens with the timer paused. A step
/// whose cost depends on its fixture still being in cache takes a pool of
/// one and pays a pause/resume pair per iteration instead.
template <typename Make, typename Step>
void run_with_fixture_pool(benchmark::State& state, Make make, Step step,
                           std::size_t pool_size = kFixturePoolSize) {
  std::vector<decltype(make())> pool(pool_size);
  std::size_t next = pool_size;
  for (auto _ : state) {
    if (next == pool_size) {
      state.PauseTiming();
      for (auto& fixture : pool) fixture = make();
      next = 0;
      state.ResumeTiming();
    }
    step(pool[next++]);
  }
}

}  // namespace taskdrop::bench
