#include "prob/fft.hpp"

#include <atomic>
#include <cmath>
#include <utility>

namespace taskdrop {
namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;

/// Measured on the BM_WideConvolve direct-vs-fft curve (Release, g++ 12,
/// 4-vCPU Xeon VM with AVX2, five repetitions per size). Against the
/// register-blocked direct kernel, 512x512 bins is a toss-up (the FFT won
/// 3 of 5 repetitions in one run and lost the median 45us to 38us in
/// another), and the FFT wins every repetition from 1024x1024 up (2.2x
/// there, 2.7x at 2048, 10x at 8192). The gate sits at that clear win, not
/// at break-even, and below-gate sizes keep the direct kernel's bit-exact
/// summation order for free. See the README "FFT crossover" table;
/// re-measure with
/// `micro_chain --benchmark_filter='BM_Wide' --benchmark_repetitions=5`.
constexpr std::size_t kDefaultFftMinBins = 1024;

std::atomic<std::size_t> g_fft_min_bins{kDefaultFftMinBins};

}  // namespace

std::size_t fft_min_bins() {
  return g_fft_min_bins.load(std::memory_order_relaxed);
}

void set_fft_min_bins(std::size_t bins) {
  g_fft_min_bins.store(bins, std::memory_order_relaxed);
}

bool fft_profitable(std::size_t na, std::size_t nb) {
  const std::size_t t = fft_min_bins();
  return t != 0 && na >= t && nb >= t;
}

const FftPlan::Twiddles& FftPlan::level(std::size_t idx) {
  if (idx >= levels_.size()) levels_.resize(idx + 1);
  Twiddles& tw = levels_[idx];
  const std::size_t len = std::size_t{1} << (idx + 1);
  if (tw.re.size() != len / 2) {
    tw.re.resize(len / 2);
    tw.im.resize(len / 2);
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double ang =
          -2.0 * kPi * static_cast<double>(k) / static_cast<double>(len);
      tw.re[k] = std::cos(ang);
      tw.im[k] = std::sin(ang);
    }
  }
  return tw;
}

void FftPlan::forward(double* re, double* im, std::size_t n) {
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
  // Iterative Cooley-Tukey butterflies, smallest span first.
  std::size_t idx = 0;
  for (std::size_t len = 2; len <= n; len <<= 1, ++idx) {
    const Twiddles& tw = level(idx);
    const std::size_t half = len / 2;
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::size_t lo = base + k;
        const std::size_t hi = lo + half;
        const double xr = re[hi] * tw.re[k] - im[hi] * tw.im[k];
        const double xi = re[hi] * tw.im[k] + im[hi] * tw.re[k];
        re[hi] = re[lo] - xr;
        im[hi] = im[lo] - xi;
        re[lo] += xr;
        im[lo] += xi;
      }
    }
  }
}

void FftPlan::convolve(const double* a, std::size_t na, const double* b,
                       std::size_t nb, double* out) {
  const std::size_t n_out = na + nb - 1;
  std::size_t n = 1;
  while (n < n_out) n <<= 1;

  // Pack a into the real lane and b into the imaginary lane; one transform
  // carries both spectra.
  re_.assign(n, 0.0);
  im_.assign(n, 0.0);
  for (std::size_t i = 0; i < na; ++i) re_[i] = a[i];
  for (std::size_t i = 0; i < nb; ++i) im_[i] = b[i];
  forward(re_.data(), im_.data(), n);

  // Unpack A = FFT(a) and B = FFT(b) by conjugate symmetry and form the
  // product spectrum C = A*B in place. For the pair (k, j = n-k mod n):
  //   A[k] = ((re[k]+re[j]) + i(im[k]-im[j])) / 2
  //   B[k] = ((im[k]+im[j]) + i(re[j]-re[k])) / 2
  // and C[j] = conj(C[k]) because the product sequence is real. Each j in
  // (n/2, n) is read and written exactly once, inside its partner's
  // iteration, so the in-place update never reads a clobbered value.
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const std::size_t j = (n - k) & (n - 1);
    const double ar = 0.5 * (re_[k] + re_[j]);
    const double ai = 0.5 * (im_[k] - im_[j]);
    const double br = 0.5 * (im_[k] + im_[j]);
    const double bi = 0.5 * (re_[j] - re_[k]);
    const double cr = ar * br - ai * bi;
    const double ci = ar * bi + ai * br;
    re_[k] = cr;
    im_[k] = ci;
    if (j != k) {
      re_[j] = cr;
      im_[j] = -ci;
    }
  }

  // Inverse transform via forward-on-conjugate: c = conj(F(conj(C))) / n.
  // Only the real part is needed, so the outer conjugation is free.
  for (std::size_t k = 0; k < n; ++k) im_[k] = -im_[k];
  forward(re_.data(), im_.data(), n);
  const double inv = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n_out; ++i) {
    const double v = re_[i] * inv;
    out[i] = v > 0.0 ? v : 0.0;
  }
}

}  // namespace taskdrop
