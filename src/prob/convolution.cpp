#include "prob/convolution.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "prob/direct_kernel.hpp"
#include "prob/fft.hpp"

namespace taskdrop {
namespace {

/// Matches Pmf::trim's epsilon: bins at or below this are support noise.
constexpr double kEps = 1e-12;

/// o[j] += s * x[j]. The accumulation buffer is workspace-owned scratch and
/// never aliases a PMF's probability storage, so the restrict qualification
/// is structurally sound; it is what lets the autovectorizer emit straight
/// vector code instead of a runtime alias-versioned loop (-fopt-info-vec
/// reports "loop vectorized" with no versioning note). Summation order is
/// identical to the plain scalar loop — vectorization only reorders
/// *independent* lanes, so results stay bit-identical to the reference.
inline void axpy(double* __restrict o, const double* __restrict x,
                 std::size_t n, double s) {
  for (std::size_t j = 0; j < n; ++j) o[j] += s * x[j];
}

/// acc[i + j] += rows[i] * x[j], each bin summing its terms in ascending i.
/// From kRows rows up this is the register-blocked kernel, fed a padded
/// copy of `x`; shorter calls add one row at a time and skip the copy.
/// Both give the same bits (see direct_kernel.hpp).
void accumulate_rows(double* acc, const double* rows, std::size_t nrows,
                     const double* x, std::size_t nx, PmfWorkspace& ws) {
  constexpr std::size_t kRows = direct_kernel::kRows;
  if (nrows < kRows) {
    for (std::size_t i = 0; i < nrows; ++i) {
      if (rows[i] == 0.0) continue;  // float-eq-ok: exact-zero sparse skip
      axpy(acc + i, x, nx, rows[i]);
    }
    return;
  }
  direct_kernel::selected()(acc, rows, nrows, ws.padded(x, nx, kRows - 1),
                            nx);
}

/// o[j] = s * x[j], same aliasing contract as axpy.
inline void scaled_copy(double* __restrict o, const double* __restrict x,
                        std::size_t n, double s) {
  for (std::size_t j = 0; j < n; ++j) o[j] = s * x[j];
}

/// Stride of the lattice produced by combining `a` and `b`. Single-impulse
/// PMFs are stride-agnostic shifts; two multi-bin PMFs must share a stride
/// (all PMFs of one scenario are built with one histogram bin width). A
/// mismatch is a real error path — an assert here would let Release builds
/// silently index a garbage lattice.
Tick combined_stride(const Pmf& a, const Pmf& b) {
  if (a.size() <= 1) return b.size() <= 1 ? Tick{1} : b.stride();
  if (b.size() <= 1) return a.stride();
  if (a.stride() != b.stride()) {
    throw std::invalid_argument(
        "convolve: PMF bin widths differ (" + std::to_string(a.stride()) +
        " vs " + std::to_string(b.stride()) +
        "); all PMFs of one scenario must share one histogram bin width");
  }
  return a.stride();
}

/// Publishes the accumulation buffer as a trimmed PMF. Leading bins at or
/// below epsilon are dropped exactly as Pmf::trim would. The trailing
/// sub-epsilon tail is truncated early via lumping: the longest suffix
/// whose *cumulative* mass is at or below epsilon is folded into the last
/// surviving bin. This bounds support growth along deep completion chains
/// (bin products shrink geometrically with queue depth) while conserving
/// total mass; every published bin differs from the untrimmed sum by at
/// most epsilon.
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

}  // namespace

void convolve_into(const Pmf& a, const Pmf& b, PmfWorkspace& ws, Pmf& out) {
  if (a.empty() || b.empty()) {
    out.assign(0, 1, nullptr, nullptr);
    return;
  }
  const Tick stride = combined_stride(a, b);
  const Tick lo = a.min_time() + b.min_time();
  const Tick hi = a.max_time() + b.max_time();
  auto& acc = ws.zeroed(static_cast<std::size_t>((hi - lo) / stride) + 1);
  if (a.size() == 1 || b.size() == 1) {
    // Single-impulse fast path: a pure shift of the wider PMF, scaled by
    // the impulse mass (1.0 for a proper delta, leaving the bins
    // bit-identical).
    const Pmf& wide = a.size() == 1 ? b : a;
    const double scale = (a.size() == 1 ? a : b).prob_at_index(0);
    scaled_copy(acc.data(), wide.data(), wide.size(), scale);
  } else if (fft_profitable(a.size(), b.size())) {
    // Wide-PMF regime: O(n log n) FFT convolution. acc has exactly
    // size(a) + size(b) - 1 bins here, the full product support.
    ws.fft.convolve(a.data(), a.size(), b.data(), b.size(), acc.data());
  } else {
    // Both inputs share the stride, so bin i of `a` against bin j of `b`
    // lands exactly on bin i + j: a contiguous multiply-accumulate with no
    // per-element lattice arithmetic.
    accumulate_rows(acc.data(), a.data(), a.size(), b.data(), b.size(), ws);
  }
  publish(acc, lo, stride, out);
}

Pmf convolve(const Pmf& a, const Pmf& b) {
  PmfWorkspace ws;
  Pmf out;
  convolve_into(a, b, ws, out);
  return out;
}

void deadline_convolve_into(const Pmf& pred, const Pmf& exec, Tick deadline,
                            PmfWorkspace& ws, Pmf& out) {
  if (pred.empty()) {
    out.assign(0, 1, nullptr, nullptr);
    return;
  }
  if (exec.empty()) {
    throw std::invalid_argument(
        "deadline_convolve: execution PMF must be non-empty");
  }

  const bool has_conv = pred.min_time() < deadline;
  const bool has_pass = pred.max_time() >= deadline;
  if (!has_conv) {
    // The task can never start before its deadline: it is dropped with
    // certainty and the slot completes exactly when the predecessor does.
    if (&out != &pred) out = pred;
    return;
  }

  const Tick stride = combined_stride(pred, exec);
  if (has_pass && exec.min_time() % stride != 0) {
    // Pass-through bins live on the predecessor's lattice while convolved
    // bins live on (pred + exec); they only coincide when the execution
    // PMF's offset is itself a lattice multiple, which the histogram
    // builder guarantees for PET-matrix PMFs. This holds for *any*
    // execution PMF, single-impulse shifts included: a mixed result is not
    // representable on one lattice. (Reaching here implies has_conv, so a
    // multi-bin predecessor; pred.size() == 1 cannot have both regimes.)
    throw std::invalid_argument(
        "deadline_convolve: execution PMF offset " +
        std::to_string(exec.min_time()) + " is off the stride-" +
        std::to_string(stride) +
        " lattice; convolved and pass-through bins cannot share a lattice");
  }

  // Support bounds. The convolved part only uses start times strictly
  // below the deadline; the pass-through part only uses predecessor bins at
  // or above it. Both live on the predecessor's lattice base.
  Tick last_start = pred.max_time();
  if (last_start >= deadline) {
    const Tick over = last_start - (deadline - 1);
    last_start -= ((over + stride - 1) / stride) * stride;
  }
  Tick lo = pred.min_time() + exec.min_time();
  Tick hi = last_start + exec.max_time();
  if (has_pass) {
    // First predecessor lattice point at or above the deadline.
    const Tick over = deadline - pred.min_time();
    const Tick pass_lo =
        pred.min_time() + ((over + stride - 1) / stride) * stride;
    lo = std::min(lo, pass_lo);
    hi = std::max(hi, pred.max_time());
  }
  auto& acc = ws.zeroed(static_cast<std::size_t>((hi - lo) / stride) + 1);

  // Predecessor bins split into a convolved prefix (start < deadline) and a
  // pass-through suffix, so both loops run branch-free with all lattice
  // divisions hoisted out.
  const std::size_t split =
      has_pass ? static_cast<std::size_t>(
                     (deadline - pred.min_time() + stride - 1) / stride)
               : pred.size();
  const double* pe = exec.data();
  const std::size_t ne = exec.size();
  const auto conv_base =
      static_cast<std::size_t>((pred.min_time() + exec.min_time() - lo) /
                               stride);
  if (fft_profitable(split, ne)) {
    // Wide-PMF regime. The convolved block occupies acc[conv_base ..
    // conv_base + split + ne - 1), still all zeros at this point; the FFT
    // writes each of those bins exactly once and the pass-through loop
    // below adds on top, matching the direct path's accumulation.
    ws.fft.convolve(pred.data(), split, pe, ne, acc.data() + conv_base);
  } else {
    accumulate_rows(acc.data() + conv_base, pred.data(), split, pe, ne, ws);
  }
  const auto pass_base =
      static_cast<std::size_t>((pred.min_time() - lo) / stride);
  if (split < pred.size()) {
    // Pass-through mass: s = 1.0 makes the fused multiply exact, so this
    // is bit-identical to `acc[k] += p` while sharing the restrict kernel.
    axpy(acc.data() + pass_base + split, pred.data() + split,
         pred.size() - split, 1.0);
  }
  publish(acc, lo, stride, out);
}

Pmf deadline_convolve(const Pmf& pred, const Pmf& exec, Tick deadline) {
  PmfWorkspace ws;
  Pmf out;
  deadline_convolve_into(pred, exec, deadline, ws, out);
  return out;
}

double chance_of_success(const Pmf& completion, Tick deadline) {
  return completion.mass_before(deadline);
}

}  // namespace taskdrop
