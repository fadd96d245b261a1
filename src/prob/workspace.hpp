#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "prob/fft.hpp"
#include "prob/pmf.hpp"

namespace taskdrop {

/// Reusable scratch state for the convolution kernels and the queue-chain
/// walks built on them.
///
/// The prob-layer hot paths (CompletionModel rebuilds, the droppers'
/// provisional-drop chains, PAM's what-if probes) perform thousands of
/// convolutions per mapping event. Each convolve/deadline_convolve call used
/// to allocate a fresh dense buffer plus a result Pmf; with a workspace the
/// accumulation buffer and the chain Pmf are owned by the caller and reused
/// across calls, so steady-state convolution is allocation-free.
///
/// A workspace is plain mutable scratch: it carries no results across calls
/// and may be shared by any number of sequential users (the engine shares
/// one across its per-machine completion models, which also walk the
/// heuristic dropper's Eq. 8 windows in it; the optimal and approximate
/// droppers each own one for their what-if chains). It must not be shared
/// across threads.
class PmfWorkspace {
 public:
  /// Dense accumulation buffer of `bins` zeros. Reuses capacity; the
  /// returned reference stays valid until the next zeroed() call.
  std::vector<double>& zeroed(std::size_t bins) {
    acc_.assign(bins, 0.0);
    return acc_;
  }

  /// Copy of x[0..n) with `pad` +0.0 bins on each side, for the direct
  /// kernel's branch-free edge bins (see direct_kernel.hpp). Returns the
  /// copy of x[0]; valid until the next padded() call. `x` must not point
  /// into this buffer.
  const double* padded(const double* x, std::size_t n, std::size_t pad) {
    padded_.assign(n + 2 * pad, 0.0);
    std::copy(x, x + n, padded_.data() + pad);
    return padded_.data() + pad;
  }

  /// Scratch chain PMF for iterated-convolution walks (window_chance_sum,
  /// the droppers' provisional chains). Kernels never touch it, so a chain
  /// held here may be passed as both input and output of the *_into calls.
  Pmf chain;

  /// FFT plan + scratch for the wide-PMF convolution path (see fft.hpp).
  /// Owned here so its transform buffers and twiddle tables amortize across
  /// calls exactly like the accumulation buffer does.
  FftPlan fft;

 private:
  std::vector<double> acc_;
  std::vector<double> padded_;
};

}  // namespace taskdrop
