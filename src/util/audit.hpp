#pragma once

#include <cstdint>
#include <string>

namespace taskdrop::audit {

/// Debug invariant auditor. In TASKDROP_AUDIT builds (cmake
/// -DTASKDROP_AUDIT=ON, or the `audit` preset) the hot incremental caches
/// cross-check themselves against direct recomputation at a sampled rate:
///
///   * CompletionModel: the incremental chain, the appended-distribution
///     memo, the tail-mean memo and the dropped-window (Eq. 8) memo versus
///     from-scratch evaluation, bit for bit (the caches promise
///     bit-identity, so the comparison is exact).
///   * Engine: BatchQueue link/size coherence and lazy expiry-heap coverage
///     after every sampled mapping event.
///   * PamMapper: a candidate the phase-2 floor pruned (skipped, or the
///     first one after an early stop) is evaluated in full and must not
///     beat the round's best pick.
///
/// In normal builds `kEnabled` is false and every `due()` gate folds to a
/// compile-time `false`, so the audit blocks vanish entirely — the hooks
/// cost nothing and stay type-checked in all configurations.
#if defined(TASKDROP_AUDIT)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Sampling interval: every interval-th gated call runs its cross-check.
/// Read once from the TASKDROP_AUDIT_INTERVAL environment variable
/// (default 256, clamped to >= 1); smaller means denser auditing and a
/// proportionally slower run.
std::uint64_t interval();

/// Overrides the sampling interval (tests audit the auditor densely
/// without re-execing with a different environment).
void set_interval_for_testing(std::uint64_t interval);

/// Sampled gate: bumps the call-site counter and fires every interval-th
/// call. Each audited site keeps its own counter so one chatty call site
/// cannot starve the others.
inline bool due(std::uint64_t& counter) {
  if constexpr (!kEnabled) {
    return false;
  } else {
    return ++counter % interval() == 0;
  }
}

/// Reports an invariant breach: throws std::logic_error with the message.
/// Audited runs are correctness harnesses, so a breach must be loud — it
/// propagates out of the simulation loop and fails the enclosing test.
[[noreturn]] void fail(const std::string& what);

}  // namespace taskdrop::audit
