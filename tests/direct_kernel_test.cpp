// Bitwise lockdown for the register-blocked direct convolution kernel.
//
// prob/direct_kernel.cpp compiles one kernel per ISA level, and the library
// calls the widest one the host supports. Every bin it produces must equal,
// bit for bit, what the row-by-row scatter it replaced produced: the same
// products, added in the same order. The differential suite holds the
// kernels only to 1e-12, which a reordered sum would pass. This suite
// compares bit patterns instead:
//
//  * every host-supported instantiation against a local copy of the
//    row-by-row scatter loop, on seeded shapes around the block size;
//  * convolve_into and deadline_convolve_into (which run the selected
//    instantiation) against local copies of their row-by-row bodies, with
//    deadlines in every truncation regime.
#include "prob/direct_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "prob/convolution.hpp"
#include "prob/fft.hpp"
#include "prob/workspace.hpp"
#include "util/rng.hpp"

namespace taskdrop {
namespace scatter_reference {

// The direct path as it was before the blocked kernel: one row at a time.

void scatter_rows(double* acc, const double* rows, std::size_t nrows,
                  const double* x, std::size_t nx) {
  for (std::size_t i = 0; i < nrows; ++i) {
    const double p = rows[i];
    if (p == 0.0) continue;
    double* o = acc + i;
    for (std::size_t j = 0; j < nx; ++j) o[j] += p * x[j];
  }
}

constexpr double kEps = 1e-12;

Tick combined_stride(const Pmf& a, const Pmf& b) {
  if (a.size() <= 1) return b.size() <= 1 ? Tick{1} : b.stride();
  return a.stride();
}

void publish(std::vector<double>& acc, Tick lo, Tick stride, Pmf& out) {
  const std::size_t n = acc.size();
  std::size_t first = 0;
  while (first < n && acc[first] <= kEps) ++first;
  if (first == n) {
    out.assign(0, 1, nullptr, nullptr);
    return;
  }
  std::size_t last = n - 1;
  double tail = 0.0;
  while (last > first && tail + acc[last] <= kEps) tail += acc[last--];
  acc[last] += tail;
  out.assign(lo + static_cast<Tick>(first) * stride, stride,
             acc.data() + first, acc.data() + last + 1);
}

// Multi-bin operands on one stride, below the FFT gate. A single-impulse
// operand gives the same bits as the library's shift path (0 + p * x is
// p * x, and the product commutes).
Pmf convolve(const Pmf& a, const Pmf& b) {
  const Tick stride = combined_stride(a, b);
  const Tick lo = a.min_time() + b.min_time();
  const Tick hi = a.max_time() + b.max_time();
  std::vector<double> acc(static_cast<std::size_t>((hi - lo) / stride) + 1,
                          0.0);
  scatter_rows(acc.data(), a.data(), a.size(), b.data(), b.size());
  Pmf out;
  publish(acc, lo, stride, out);
  return out;
}

Pmf deadline_convolve(const Pmf& pred, const Pmf& exec, Tick deadline) {
  if (pred.min_time() >= deadline) return pred;
  const bool has_pass = pred.max_time() >= deadline;
  const Tick stride = combined_stride(pred, exec);
  Tick last_start = pred.max_time();
  if (last_start >= deadline) {
    const Tick over = last_start - (deadline - 1);
    last_start -= ((over + stride - 1) / stride) * stride;
  }
  Tick lo = pred.min_time() + exec.min_time();
  Tick hi = last_start + exec.max_time();
  if (has_pass) {
    const Tick over = deadline - pred.min_time();
    const Tick pass_lo =
        pred.min_time() + ((over + stride - 1) / stride) * stride;
    lo = std::min(lo, pass_lo);
    hi = std::max(hi, pred.max_time());
  }
  std::vector<double> acc(static_cast<std::size_t>((hi - lo) / stride) + 1,
                          0.0);
  const std::size_t split =
      has_pass ? static_cast<std::size_t>(
                     (deadline - pred.min_time() + stride - 1) / stride)
               : pred.size();
  const auto conv_base = static_cast<std::size_t>(
      (pred.min_time() + exec.min_time() - lo) / stride);
  scatter_rows(acc.data() + conv_base, pred.data(), split, exec.data(),
               exec.size());
  const auto pass_base =
      static_cast<std::size_t>((pred.min_time() - lo) / stride);
  for (std::size_t i = split; i < pred.size(); ++i) {
    acc[pass_base + i] += pred.prob_at_index(i);
  }
  Pmf out;
  publish(acc, lo, stride, out);
  return out;
}

}  // namespace scatter_reference

namespace {

using direct_kernel::kRows;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Row counts around the block size, plus deep predecessors.
std::vector<std::size_t> row_counts(Rng& rng) {
  return {1,
          kRows - 1,
          kRows,
          kRows + 1,
          3 * kRows + 5,
          static_cast<std::size_t>(rng.uniform_int(60, 140)),
          static_cast<std::size_t>(rng.uniform_int(60, 140))};
}

constexpr std::size_t kExecWidths[] = {1, 2, 31, 64};

/// Non-negative values spread over many binades, so that adding the same
/// terms in another order changes some bin's bits. Interior zeros mimic
/// the zero bins of a histogram PMF; `zero_share` of the bins are 0.0.
std::vector<double> random_bins(Rng& rng, std::size_t n, double zero_share) {
  std::vector<double> out(n);
  for (double& v : out) {
    const double u = rng.uniform(0.05, 1.0);
    v = rng.uniform01() < zero_share ? 0.0 : u * u * u * u * u;
  }
  return out;
}

/// Runs one instantiation on `rows` x `x`, with `acc_init` as the starting
/// accumulator, and returns the accumulator with kGuard sentinel bins on
/// each side (which must come back untouched). The padded copy of `x` is
/// exactly as large as the kernel contract requires, so an over-read shows
/// under AddressSanitizer.
constexpr std::size_t kGuard = 9;
constexpr double kSentinel = 4321.0;

std::vector<double> run_kernel(direct_kernel::Kernel kernel,
                               const std::vector<double>& rows,
                               const std::vector<double>& x,
                               const std::vector<double>& acc_init) {
  std::vector<double> padded(x.size() + 2 * (kRows - 1), 0.0);
  std::copy(x.begin(), x.end(), padded.begin() + (kRows - 1));
  std::vector<double> acc(acc_init.size() + 2 * kGuard, kSentinel);
  std::copy(acc_init.begin(), acc_init.end(), acc.begin() + kGuard);
  kernel(acc.data() + kGuard, rows.data(), rows.size(),
         padded.data() + (kRows - 1), x.size());
  return acc;
}

std::vector<double> run_scatter(const std::vector<double>& rows,
                                const std::vector<double>& x,
                                const std::vector<double>& acc_init) {
  std::vector<double> acc(acc_init.size() + 2 * kGuard, kSentinel);
  std::copy(acc_init.begin(), acc_init.end(), acc.begin() + kGuard);
  scatter_reference::scatter_rows(acc.data() + kGuard, rows.data(),
                                  rows.size(), x.data(), x.size());
  return acc;
}

void expect_bitwise(const std::vector<double>& actual,
                    const std::vector<double>& expected,
                    const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(bits(actual[i]), bits(expected[i]))
        << what << ", bin " << i << ": " << actual[i] << " vs "
        << expected[i];
  }
}

void expect_pmf_bitwise(const Pmf& actual, const Pmf& expected,
                        const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  if (expected.empty()) return;
  ASSERT_EQ(actual.min_time(), expected.min_time()) << what;
  ASSERT_EQ(actual.stride(), expected.stride()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(bits(actual.prob_at_index(i)), bits(expected.prob_at_index(i)))
        << what << ", bin " << i << ": " << actual.prob_at_index(i)
        << " vs " << expected.prob_at_index(i);
  }
}

std::vector<const direct_kernel::Instantiation*> supported() {
  std::vector<const direct_kernel::Instantiation*> out;
  for (const auto& inst : direct_kernel::instantiations()) {
    if (inst.host_supported) out.push_back(&inst);
  }
  return out;
}

TEST(DirectKernel, ListsBaselineFirstAndSelectsTheWidestSupported) {
  const auto all = direct_kernel::instantiations();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(std::string(all.front().isa), "baseline");
  EXPECT_TRUE(all.front().host_supported);
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(std::string(all[1].isa), "avx2");
#endif
  const direct_kernel::Instantiation* widest = supported().back();
  EXPECT_EQ(direct_kernel::selected(), widest->run) << widest->isa;
}

class DirectKernelSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DirectKernelSeeded, EveryInstantiationMatchesTheRowScatter) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ull + 3);
  for (const std::size_t nrows : row_counts(rng)) {
    for (const std::size_t nx : kExecWidths) {
      std::vector<double> rows = random_bins(rng, nrows, 0.2);
      if (nrows >= 2 * kRows) {
        // A whole block of zero rows: it adds only +0.0 products, where the
        // scatter skipped each row.
        std::fill(rows.begin() + kRows, rows.begin() + 2 * kRows, 0.0);
      }
      const std::vector<double> x = random_bins(rng, nx, 0.1);
      const std::size_t nbins = nrows + nx - 1;
      // A zeroed accumulator (the library's case) and a non-negative one.
      const std::vector<double> zero(nbins, 0.0);
      const std::vector<double> filled = random_bins(rng, nbins, 0.3);
      for (const auto* acc_init : {&zero, &filled}) {
        const std::vector<double> expected = run_scatter(rows, x, *acc_init);
        for (const auto* inst : supported()) {
          expect_bitwise(run_kernel(inst->run, rows, x, *acc_init), expected,
                         std::string(inst->isa) + " rows=" +
                             std::to_string(nrows) +
                             " nx=" + std::to_string(nx) +
                             " seed=" + std::to_string(GetParam()));
        }
      }
    }
  }
}

TEST(DirectKernel, ReorderedSumsAreCaught) {
  // The suite's inputs are spread enough that summing the rows in the
  // opposite order changes some bin, so a kernel that reordered the sum
  // would fail the bitwise checks above.
  Rng rng(17);
  const std::vector<double> rows = random_bins(rng, 96, 0.2);
  const std::vector<double> x = random_bins(rng, 31, 0.1);
  const std::vector<double> zero(rows.size() + x.size() - 1, 0.0);
  const std::vector<double> forward = run_scatter(rows, x, zero);
  std::vector<double> reversed(forward.size(), kSentinel);
  std::fill(reversed.begin() + kGuard, reversed.end() - kGuard, 0.0);
  for (std::size_t i = rows.size(); i-- > 0;) {
    for (std::size_t j = 0; j < x.size(); ++j) {
      reversed[kGuard + i + j] += rows[i] * x[j];
    }
  }
  std::size_t differing = 0;
  for (std::size_t i = 0; i < forward.size(); ++i) {
    differing += bits(forward[i]) != bits(reversed[i]) ? 1 : 0;
  }
  EXPECT_GT(differing, 0u);
}

/// A random PMF of `n` bins on `stride`, at a lattice offset.
Pmf lattice_pmf(Rng& rng, std::size_t n, Tick stride) {
  std::vector<double> probs = random_bins(rng, n, 0.15);
  probs.front() = rng.uniform(0.1, 1.0);
  probs.back() = rng.uniform(0.1, 1.0);
  Pmf pmf(stride * rng.uniform_int(0, 40), stride, std::move(probs));
  pmf.normalize();
  return pmf;
}

TEST_P(DirectKernelSeeded, ConvolveIntoMatchesTheRowScatter) {
  Rng rng(GetParam() * 0x94D049BB133111EBull + 11);
  PmfWorkspace ws;
  Pmf out;
  for (const Tick stride : {Tick{1}, Tick{3}}) {
    for (const std::size_t na : row_counts(rng)) {
      for (const std::size_t nb : kExecWidths) {
        ASSERT_FALSE(fft_profitable(na, nb));
        const Pmf a = lattice_pmf(rng, na, stride);
        const Pmf b = lattice_pmf(rng, nb, stride);
        convolve_into(a, b, ws, out);
        expect_pmf_bitwise(out, scatter_reference::convolve(a, b),
                           "convolve_into na=" + std::to_string(na) +
                               " nb=" + std::to_string(nb));
      }
    }
  }
}

TEST_P(DirectKernelSeeded, DeadlineConvolveIntoMatchesTheRowScatter) {
  Rng rng(GetParam() * 0xD6E8FEB86659FD93ull + 13);
  PmfWorkspace ws;
  Pmf out;
  for (const Tick stride : {Tick{1}, Tick{3}}) {
    for (const std::size_t np : row_counts(rng)) {
      for (const std::size_t ne : kExecWidths) {
        ASSERT_FALSE(fft_profitable(np, ne));
        const Pmf pred = lattice_pmf(rng, np, stride);
        const Pmf exec = lattice_pmf(rng, ne, stride);
        const Tick lo = pred.min_time();
        const Tick hi = pred.max_time();
        // Every truncation regime: certain drop (at or below the support),
        // one convolved row, fewer than a block of convolved rows, a
        // deadline between lattice points, the last bin passing through,
        // and pure convolution.
        const Tick deadlines[] = {lo - 2,
                                  lo,
                                  lo + 1,
                                  lo + static_cast<Tick>(kRows - 1) * stride,
                                  (lo + hi) / 2 + 1,
                                  hi,
                                  hi + 1,
                                  hi + exec.max_time() + 7};
        for (const Tick deadline : deadlines) {
          const Pmf expected =
              scatter_reference::deadline_convolve(pred, exec, deadline);
          const std::string what = "deadline_convolve_into np=" +
                                   std::to_string(np) +
                                   " ne=" + std::to_string(ne) +
                                   " deadline=" + std::to_string(deadline);
          deadline_convolve_into(pred, exec, deadline, ws, out);
          expect_pmf_bitwise(out, expected, what);
          // The chain-walk form: the predecessor is also the output.
          ws.chain = pred;
          deadline_convolve_into(ws.chain, exec, deadline, ws, ws.chain);
          expect_pmf_bitwise(ws.chain, expected, what + " (aliased)");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectKernelSeeded,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace taskdrop
