#pragma once

#include <cstddef>
#include <span>

namespace taskdrop::direct_kernel {

/// The register-blocked direct convolution kernel behind convolve_into's and
/// deadline_convolve_into's O(n*m) path. It is compiled once per ISA level
/// and the library calls the one picked at load time (selected()); this
/// header exists so the lockdown tests can run every instantiation the host
/// supports. It is not a runtime switch.

/// Predecessor rows summed per register block: each output bin is loaded
/// once, gets this many products added, and is stored once.
inline constexpr std::size_t kRows = 4;

/// acc[i + j] += rows[i] * x[j] for every i < nrows and j < nx.
///
/// Each bin adds its terms in ascending i, starting from its value in
/// `acc`, exactly like adding one row at a time (`axpy` per row). The
/// extra terms a block adds — products with the zero padding around `x`
/// and with zero-valued rows, or rows past nrows — are +0.0. So with
/// non-negative, finite inputs and accumulator, every bin is bit-identical
/// to the row-by-row scatter.
///
/// `x` must have kRows - 1 readable +0.0 bins before x[0] and after
/// x[nx - 1] (PmfWorkspace::padded builds that copy). `acc` must not alias
/// `rows` or `x`. Requires nrows >= 1 and nx >= 1.
using Kernel = void (*)(double* acc, const double* rows, std::size_t nrows,
                        const double* x, std::size_t nx);

/// One compiled instantiation of the kernel.
struct Instantiation {
  const char* isa;           ///< "baseline" or "avx2"
  Kernel run;                ///< the entry point
  bool host_supported;       ///< this host can execute it
};

/// Every instantiation compiled into this build, baseline first. The
/// baseline is the build's own target ISA. The AVX2 one exists on x86-64
/// GCC/Clang builds only.
std::span<const Instantiation> instantiations();

/// The instantiation the library calls: the widest one the host supports,
/// picked once at load time.
Kernel selected();

}  // namespace taskdrop::direct_kernel
