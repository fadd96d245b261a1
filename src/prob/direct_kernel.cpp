#include "prob/direct_kernel.hpp"

#include <algorithm>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TASKDROP_DIRECT_KERNEL_AVX2 1
#else
#define TASKDROP_DIRECT_KERNEL_AVX2 0
#endif

namespace taskdrop::direct_kernel {
namespace {

/// The one kernel body, for R = kRows. Each instantiation below inlines it
/// into a function compiled for its ISA, and the autovectorizer turns the
/// bin loop into straight SIMD: the lanes are independent bins, so
/// vectorizing reorders no sum. Within a bin the row loop is fully unrolled
/// and adds its R products to one running value in ascending row order.
/// Multiply and add stay separate instructions: the root CMakeLists.txt
/// builds with -ffp-contract=off, so no ISA level fuses them into an FMA.
template <std::size_t R>
[[gnu::always_inline]] inline void blocked(double* __restrict acc,
                                           const double* __restrict rows,
                                           std::size_t nrows,
                                           const double* __restrict x,
                                           std::size_t nx) {
  // lead[q + R - 1 - k] is x[q - k]: the padding makes every index of a
  // block's bin range non-negative and in bounds, so edge bins need no
  // branch.
  const double* __restrict lead = x - (R - 1);
  for (std::size_t r0 = 0; r0 < nrows; r0 += R) {
    // A short last block runs with its missing rows at 0.0 over the bins
    // its live rows reach.
    const std::size_t live = std::min(R, nrows - r0);
    double p[R];
    for (std::size_t k = 0; k < R; ++k) p[k] = k < live ? rows[r0 + k] : 0.0;
    double* __restrict out = acc + r0;
    const std::size_t bins = nx + live - 1;
    for (std::size_t q = 0; q < bins; ++q) {
      double s = out[q];
      for (std::size_t k = 0; k < R; ++k) s += p[k] * lead[q + (R - 1 - k)];
      out[q] = s;
    }
  }
}

void run_baseline(double* acc, const double* rows, std::size_t nrows,
                  const double* x, std::size_t nx) {
  blocked<kRows>(acc, rows, nrows, x, nx);
}

#if TASKDROP_DIRECT_KERNEL_AVX2
__attribute__((target("avx2"))) void run_avx2(double* acc, const double* rows,
                                              std::size_t nrows,
                                              const double* x,
                                              std::size_t nx) {
  blocked<kRows>(acc, rows, nrows, x, nx);
}

bool host_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}
#endif

Kernel pick() {
#if TASKDROP_DIRECT_KERNEL_AVX2
  if (host_has_avx2()) return &run_avx2;
#endif
  return &run_baseline;
}

const Kernel g_selected = pick();

}  // namespace

std::span<const Instantiation> instantiations() {
  static const Instantiation table[] = {
      {"baseline", &run_baseline, true},
#if TASKDROP_DIRECT_KERNEL_AVX2
      {"avx2", &run_avx2, host_has_avx2()},
#endif
  };
  return table;
}

Kernel selected() { return g_selected; }

}  // namespace taskdrop::direct_kernel
