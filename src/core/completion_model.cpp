#include "core/completion_model.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "prob/convolution.hpp"
// fft_profitable sizes the bracket's FFT margin. layering-allow(fft-plan)
#include "prob/fft.hpp"
#include "util/audit.hpp"

namespace taskdrop {
namespace {

constexpr double kUnitMass = 1.0;

/// In-place delta(t) without releasing the PMF's allocation.
void set_delta(Pmf& pmf, Tick t) {
  pmf.assign(t, 1, &kUnitMass, &kUnitMass + 1);
}

/// TASKDROP_AUDIT helper: bitwise PMF comparison. The incremental chain
/// promises bit-identity with direct recomputation (the *_into kernels and
/// the allocating ones share one implementation), so the comparison is
/// exact, not tolerance-based.
void audit_expect_same_pmf(const Pmf& got, const Pmf& ref,
                           const std::string& what) {
  bool same = got.size() == ref.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = got.time_at(i) == ref.time_at(i) &&
           // float-eq-ok: bit-identity audit is exact by design
           got.prob_at_index(i) == ref.prob_at_index(i);
  }
  if (!same) {
    audit::fail(what + ": incremental chain diverged from direct recompute");
  }
}

}  // namespace

CompletionModel::CompletionModel(const PetMatrix* pet, const Machine* machine,
                                 const std::vector<Task>* tasks,
                                 Options options, PmfWorkspace* workspace)
    : pet_(pet), machine_(machine), tasks_(tasks), options_(options),
      shared_ws_(workspace) {}

void CompletionModel::set_now(Tick now) {
  if (now == now_) return;
  now_ = now;
  // base() rebuilds delta(now) on its next read. Most clock moves reach no
  // reader of it (a busy machine's chain is rooted at its run start): 95-98%
  // of them in the perfbench workloads.
  base_stale_ = true;
  if (machine_ == nullptr) return;
  if (machine_->running) {
    // The conditioned running-task PMF depends on `now`; the unconditioned
    // one is rooted at run_start and survives time advancing.
    if (options_.condition_running) {
      if (!options_.paranoid_rebuild && valid_count_ > 0 &&
          now_ < cond_keep_below_) {
        // The conditioned slot 0 is bitwise unchanged while now stays
        // strictly below its first kept bin (see cond_keep_below_), so the
        // chain built on it — and the value memos keyed on chain_version_ —
        // stay valid. Revision-keyed consumers observe the advance exactly
        // as they would have across the invalidate-and-rebuild this
        // replaces, and the rebuilt values would have been bit-identical.
        bump_revision();
      } else {
        invalidate_all();
      }
    }
  } else if (!machine_->queue.empty()) {
    // A non-running machine with queued tasks — a failure holding the
    // machine down, or (live mode) a Start offer the environment has not
    // confirmed yet while time advances — has its cached chain rooted at
    // base = delta(old now). Rebase it, or chance queries against the idle
    // machine keep answering from the stale start time. Surfaced by the
    // TASKDROP_AUDIT chain cross-check under failure injection.
    invalidate_all();
  }
  // An idle machine with an empty queue has no cached positions; the
  // base rebuilt on its next read alone covers it.
}

const Pmf& CompletionModel::base() {
  if (base_stale_) {
    set_delta(base_, now_);
    base_stale_ = false;
  }
  return base_;
}

void CompletionModel::notify_head_started(Tick deadline) {
  // Keep precondition (see the header): the cached slot 0, when cached at
  // all, is rooted at delta(now_) — set_now rebases non-running machines
  // with queued tasks on every advance — and for run_start == now_ <
  // deadline the pending slot's deadline truncation was vacuous, making
  // the pending and running slot-0 kernels bit-identical (a delta
  // predecessor entirely below the deadline convolves with no pass-through
  // term, which is exactly the running branch's plain convolution).
  if (options_.paranoid_rebuild || options_.condition_running ||
      machine_ == nullptr || !machine_->running ||
      machine_->run_start != now_ || now_ >= deadline) {
    invalidate_all();
    return;
  }
  bump_revision();
}

void CompletionModel::invalidate_from(std::size_t pos) {
  valid_count_ = std::min(valid_count_, pos);
  cdf_valid_count_ = std::min(cdf_valid_count_, pos);
  // A window at p reads queue positions [0, p + depth]: only those with
  // p + depth >= pos can see the change.
  const std::size_t first_window = pos - std::min(pos, window_depth_);
  if (first_window < windows_.size()) {
    std::fill(windows_.begin() + static_cast<std::ptrdiff_t>(first_window),
              windows_.end(), std::nullopt);
  }
  ++version_;
  ++chain_version_;
}

const Pmf& execution_pmf(const Task& task, MachineTypeId machine_type,
                         const PetMatrix& pet, const PetMatrix* approx_pet) {
  if (task.approximate && approx_pet != nullptr) {
    return approx_pet->pmf(task.type, machine_type);
  }
  return pet.pmf(task.type, machine_type);
}

const Pmf& CompletionModel::exec_pmf(std::size_t pos) const {
  const Task& task = (*tasks_)[static_cast<std::size_t>(machine_->queue[pos])];
  return execution_pmf(task, machine_->type, *pet_, options_.approx_pet);
}

void CompletionModel::compute_running_completion(Pmf& out) {
  assert(machine_->running);
  const Task& task =
      (*tasks_)[static_cast<std::size_t>(machine_->queue.front())];
  const Pmf& exec =
      execution_pmf(task, machine_->type, *pet_, options_.approx_pet);
  set_delta(start_, machine_->run_start);
  convolve_into(start_, exec, workspace(), out);
  if (options_.condition_running) {
    // Condition on "not finished yet": strip mass at or before now_ and
    // renormalise, in place. Sliced bins reproduce the dense lattice the
    // old from_impulses build produced (interior zeros included) bit for
    // bit, and normalize() divides by the same dense-order mass sum — so
    // the conditioned PMF is bitwise identical to the allocating build the
    // audit reference still performs, with no per-rebuild allocation. If
    // every bin is at or before now_ the task is about to complete; keep
    // the last bin as a degenerate point mass.
    std::size_t first = 0;
    while (first < out.size() && (out.time_at(first) <= now_ ||
                                  !(out.prob_at_index(first) > 0.0))) {
      ++first;
    }
    if (first == out.size()) {
      set_delta(out, out.max_time());
      // Degenerate point masses stay degenerate as now advances further:
      // the kept set can only stay empty.
      cond_keep_below_ = std::numeric_limits<Tick>::max();
      return;
    }
    std::size_t last = out.size();
    while (!(out.prob_at_index(last - 1) > 0.0)) --last;
    out.slice(first, last);
    out.normalize();
    // The conditioned slot is unchanged until now reaches its first bin.
    cond_keep_below_ = out.min_time();
  }
}

void CompletionModel::ensure(std::size_t pos) {
  assert(machine_ != nullptr && "model not bound to a machine");
  const std::size_t q = machine_->queue.size();
  assert(pos < q);
  if (completions_.size() < q) {
    completions_.resize(q);
    cdfs_.resize(q);
    chances_.resize(q);
  }
  for (std::size_t i = valid_count_; i <= pos; ++i) {
    const Task& task =
        (*tasks_)[static_cast<std::size_t>(machine_->queue[i])];
    if (i == 0) {
      if (machine_->running) {
        compute_running_completion(completions_[0]);
      } else {
        deadline_convolve_into(base(), exec_pmf(0), task.deadline,
                               workspace(), completions_[0]);
      }
    } else {
      deadline_convolve_into(completions_[i - 1], exec_pmf(i), task.deadline,
                             workspace(), completions_[i]);
    }
    chances_[i] = completions_[i].mass_before(task.deadline);
  }
  valid_count_ = std::max(valid_count_, pos + 1);
  if (audit::due(audit_chain_counter_)) audit_verify_chain(pos);
}

void CompletionModel::audit_verify_chain(std::size_t pos) {
  // Reference recompute: rebuild [0, pos] from scratch with the allocating
  // kernels (one shared implementation with the *_into variants, so equal
  // inputs give bit-equal outputs) and an independent chain variable —
  // nothing here reads the cached completions_ except to compare.
  Pmf ref;
  for (std::size_t i = 0; i <= pos; ++i) {
    const Task& task =
        (*tasks_)[static_cast<std::size_t>(machine_->queue[i])];
    if (i == 0) {
      if (machine_->running) {
        const Pmf start(machine_->run_start, 1, {1.0});
        // Audit reference path on purpose. layering-allow(direct-convolve)
        ref = convolve(start, exec_pmf(0));
        if (options_.condition_running) {
          // Mirror compute_running_completion's conditioning: strip mass at
          // or before now_, renormalise, degenerate to the last bin when
          // everything is in the past.
          std::vector<std::pair<Tick, double>> kept;
          for (std::size_t j = 0; j < ref.size(); ++j) {
            if (ref.time_at(j) > now_ && ref.prob_at_index(j) > 0.0) {
              kept.emplace_back(ref.time_at(j), ref.prob_at_index(j));
            }
          }
          if (kept.empty()) {
            set_delta(ref, ref.max_time());
          } else {
            ref = Pmf::from_impulses(std::move(kept), ref.stride());
            ref.normalize();
          }
        }
      } else {
        // Audit reference path on purpose. layering-allow(direct-convolve)
        ref = deadline_convolve(base(), exec_pmf(0), task.deadline);
      }
    } else {
      // Audit reference path on purpose. layering-allow(direct-convolve)
      ref = deadline_convolve(ref, exec_pmf(i), task.deadline);
    }
    audit_expect_same_pmf(completions_[i], ref,
                          "completion chain position " + std::to_string(i));
    // float-eq-ok: bit-identity audit is exact by design
    if (chances_[i] != ref.mass_before(task.deadline)) {
      audit::fail("cached chance at position " + std::to_string(i) +
                  " diverged from direct recompute");
    }
  }
}

const Pmf& CompletionModel::completion(std::size_t pos) {
  ensure(pos);
  return completions_[pos];
}

const PmfCdf& CompletionModel::completion_cdf(std::size_t pos) {
  ensure(pos);
  // Prefix sums are rebuilt lazily: chain maintenance itself never pays
  // for them (the one chance query per slot reads the PMF directly), so
  // the views only cost when a caller actually wants repeated O(1)
  // cumulative-mass queries.
  for (std::size_t i = cdf_valid_count_; i <= pos; ++i) {
    cdfs_[i].rebuild(completions_[i]);
  }
  cdf_valid_count_ = std::max(cdf_valid_count_, pos + 1);
  return cdfs_[pos];
}

double CompletionModel::chance(std::size_t pos) {
  ensure(pos);
  return chances_[pos];
}

const Pmf& CompletionModel::predecessor(std::size_t pos) {
  if (pos == 0) {
    assert(!machine_->running &&
           "the running task has no droppable predecessor slot");
    return base();
  }
  return completion(pos - 1);
}

const Pmf& CompletionModel::tail() {
  if (machine_->queue.empty()) return base();
  return completion(machine_->queue.size() - 1);
}

double CompletionModel::tail_mean() {
  if (machine_->queue.empty()) return static_cast<double>(now_);
  if (tail_mean_valid_ && tail_mean_revision_ == chain_version_) {
    if (audit::due(audit_tail_mean_counter_)) {
      // float-eq-ok: bit-identity audit is exact by design
      if (tail_mean_ != completion(machine_->queue.size() - 1).mean()) {
        audit::fail("tail_mean memo diverged from completion(last).mean()");
      }
    }
    return tail_mean_;
  }
  const std::size_t last = machine_->queue.size() - 1;
  tail_mean_ = completion(last).mean();
  tail_mean_revision_ = chain_version_;
  tail_mean_valid_ = true;
  return tail_mean_;
}

std::optional<CompletionModel::WindowBracket>& CompletionModel::window_slot(
    std::size_t pos, std::size_t depth) {
  if (depth != window_depth_) {
    std::fill(windows_.begin(), windows_.end(), std::nullopt);
    window_depth_ = depth;
  }
  if (windows_.size() <= pos) windows_.resize(machine_->queue.size());
  return windows_[pos];
}

double CompletionModel::direct_window_sum(std::size_t pos, std::size_t depth) {
  return window_chance_sum(predecessor(pos), *machine_, *tasks_, *pet_,
                           pos + 1, pos + depth, options_.approx_pet,
                           &workspace());
}

double CompletionModel::dropped_window_sum(std::size_t pos,
                                           std::size_t depth) {
  assert(pos < machine_->queue.size());
  const std::optional<WindowBracket>& memo = window_slot(pos, depth);
  // float-eq-ok: a point bracket is the exact value (brackets are wider)
  if (memo.has_value() && memo->lo == memo->hi) {
    const double value = memo->lo;
    if (audit::due(audit_dropped_counter_)) {
      // float-eq-ok: bit-identity audit is exact by design
      if (value != direct_window_sum(pos, depth)) {
        audit::fail("dropped-window memo at position " + std::to_string(pos) +
                    " diverged from window_chance_sum");
      }
    }
    return value;
  }
  const double value = direct_window_sum(pos, depth);
  windows_[pos] = WindowBracket{value, value};
  return value;
}

CompletionModel::WindowBracket CompletionModel::dropped_window_bracket(
    std::size_t pos, std::size_t depth) {
  assert(pos < machine_->queue.size());
  if (!window_slot(pos, depth).has_value()) {
    std::optional<WindowBracket> bracket = fold_bracket(pos, depth);
    if (!bracket.has_value()) {
      const double value = direct_window_sum(pos, depth);
      bracket = WindowBracket{value, value};
    }
    windows_[pos] = bracket;
  }
  const WindowBracket bracket = *windows_[pos];
  if (bracket.lo < bracket.hi && audit::due(audit_bracket_counter_)) {
    const double value = direct_window_sum(pos, depth);
    if (!(bracket.lo <= value && value <= bracket.hi)) {
      audit::fail("dropped-window bracket at position " + std::to_string(pos) +
                  " does not contain window_chance_sum");
    }
  }
  return bracket;
}

// --- The fold bracket -----------------------------------------------------
//
// Window at pending position p: tasks n = p+1 .. w, w = min(p + depth,
// q - 1), chain re-rooted at X = predecessor(p). E_n is task n's execution
// PMF, F_n(t) = P(E_n < t) its cumulative view, d_n its deadline.
// window_chance_sum walks the provisional chain S_p = X, S_m = step_m(S_{m-1})
// with step_m(x) = x + E_m if x < d_m, else x (the task is reactively
// dropped and the slot completes with its predecessor), and sums
// chance_n = P(S_{n-1} + E_n < d_n) = E[F_n(d_n - S_{n-1})]. With E >= 0:
//
//   * n = p+1 starts at X itself: chance = sum_k X(k) F(d_n - k) exactly.
//   * A step never moves a start earlier, and step p+1 adds at least
//     min E_{p+1} to every k < d_{p+1}; F_n(d_n - s) falls as s grows, so
//     chance_n <= fold_n(min E_{p+1}, 0).
//   * Step m adds at most max E_m, and step p+1 adds nothing at or above
//     d_{p+1}, so chance_n >= fold_n(A_n, B_n) with A_n = sum_{m=p+1}^{n-1}
//     max E_m and B_n = sum_{m=p+2}^{n-1} max E_m.
//
// where fold_n(a, b) = sum_k X(k) F_n(d_n - k - s_k), s_k = a below d_{p+1}
// and b from it on. The kept chain's chance(n) is *not* a lower bound:
// truncation makes the step non-monotone (a later predecessor can pass task
// n - 1 through and let n start earlier).
//
// On X's lattice t_i = X.min + i*stride the F_n argument falls by one
// stride per bin, so F_n's bin count is c0 - i for one integer division c0:
// bins with c0 - i >= |E_n| are saturated and fold through X's cached
// prefix sums (completion_cdf(p - 1)) in O(1), bins with c0 - i <= 0 add 0,
// and at most |E_n| products remain.
//
// Rounding. The bracket must hold the double window_chance_sum returns,
// which differs from the real window sum of the same double inputs by:
//
//   * relative error: every kernel bin, mass_before and the window sum are
//     sums of non-negative terms, as are the folds, the PET prefix sums and
//     X's. A sum of K such terms is within gamma_K = K u / (1 - K u) of its
//     real value (u = 2^-53) and the errors compound through the chain, so
//     the chain side is within gamma of (steps + 2)(|E|max + W + 4) terms,
//     and the folds within the same; fold_bracket requires that count to
//     be <= 2^21, so each side is within 2.4e-10 and rho = 1e-9 covers both
//     with room for the margin arithmetic. W bounds every accumulator the
//     walk fills: (X.max - X.min + sum_n max E_n) / stride + 1 bins.
//   * absolute error: publish() drops leading bins <= 1e-12 (at most W per
//     step) and moves a tail of mass <= 1e-12 earlier. Both perturb the
//     chain by at most 1e-12 (W + 1) in total variation, which moves each
//     later chance by no more (the steps are Markov kernels), so step m
//     costs at most 1e-12 (W + 1) per chance from m on: sum over steps of
//     (w - m + 1) = T chance-steps in all. An FFT step (both operands at or
//     above fft_min_bins) of transform size N <= 2 (W + |E|) is within
//     5 (6.7 u log2 N) sqrt(N) <= 1e-14 sqrt(N) log2 N <= 1e-13 N in L1 of
//     the exact convolution (unit-mass inputs; the standard radix-2 bound
//     with computed twiddles), charged the same way. Each fold's segment
//     difference of X prefixes adds at most 2 gamma_W, under 1e-15 (W + 2).
//
// So lo (1 - rho) - alpha <= value <= hi (1 + rho) + alpha, with alpha twice
// the sum of those absolute terms (covering their own growth through later
// steps and the rounding of the margins). Times stay within +-2^60 ticks so
// no lattice difference overflows; beyond that, or with an empty,
// negative-time or mixed-stride execution PMF (where the exact walk may
// throw), fold_bracket gives up and the exact walk decides.
namespace {

constexpr double kBracketRho = 1e-9;
constexpr double kPublishEps = 1e-12;  // publish()'s trim epsilon
constexpr std::size_t kMaxRoundedTerms = std::size_t{1} << 21;
constexpr Tick kBracketTickLimit = Tick{1} << 60;

bool within_tick_limit(Tick t) {
  return t >= -kBracketTickLimit && t <= kBracketTickLimit;
}

/// ceil(num / den) for den > 0.
Tick ceil_div(Tick num, Tick den) {
  return num / den + (num % den > 0 ? 1 : 0);
}

const PmfCdf& execution_cdf(const Task& task, MachineTypeId machine_type,
                            const PetMatrix& pet, const PetMatrix* approx_pet) {
  if (task.approximate && approx_pet != nullptr) {
    return approx_pet->cdf(task.type, machine_type);
  }
  return pet.cdf(task.type, machine_type);
}

/// One shifted fold segment: the sum over X bins i in [first, last) of
/// X_i * F(deadline - shift - t_i). `x_prefix` is X's cumulative view
/// (null when X is a single bin).
double segment_fold(const Pmf& x, const PmfCdf* x_prefix, std::size_t first,
                    std::size_t last, Tick stride, Tick deadline, Tick shift,
                    const Pmf& exec, const PmfCdf& exec_cdf) {
  if (first >= last) return 0.0;
  const Tick c0 = ceil_div(deadline - shift - x.min_time() - exec.min_time(),
                           stride);
  const auto bin_index = [&](Tick v) {
    if (v <= static_cast<Tick>(first)) return first;
    if (v >= static_cast<Tick>(last)) return last;
    return static_cast<std::size_t>(v);
  };
  const std::size_t saturated_end =
      bin_index(c0 - static_cast<Tick>(exec.size()));
  const std::size_t window_end = bin_index(c0);
  double sum = 0.0;
  if (saturated_end > first) {
    const double mass = x_prefix == nullptr
                            ? x.prob_at_index(0)
                            : x_prefix->prefix_at(saturated_end) -
                                  x_prefix->prefix_at(first);
    sum = exec_cdf.total_mass() * mass;
  }
  const double* p = x.data();
  for (std::size_t i = saturated_end; i < window_end; ++i) {
    sum += p[i] * exec_cdf.prefix_at(static_cast<std::size_t>(
                      c0 - static_cast<Tick>(i)));
  }
  return sum;
}

}  // namespace

std::optional<CompletionModel::WindowBracket> CompletionModel::fold_bracket(
    std::size_t pos, std::size_t depth) {
  const std::size_t q = machine_->queue.size();
  if (pos + 1 >= q) return WindowBracket{0.0, 0.0};  // window_chance_sum's 0
  const std::size_t last = std::min(pos + depth, q - 1);
  const std::size_t steps = last - pos;
  const Pmf& x = predecessor(pos);
  if (x.empty() || !within_tick_limit(x.min_time()) ||
      !within_tick_limit(x.max_time())) {
    return std::nullopt;
  }

  // Window terms and the lattice every multi-bin PMF must share.
  window_terms_.clear();
  Tick stride = x.size() > 1 ? x.stride() : 0;
  Tick max_sum = 0;
  std::size_t exec_bins = 0;
  for (std::size_t n = pos + 1; n <= last; ++n) {
    const Task& task = (*tasks_)[static_cast<std::size_t>(machine_->queue[n])];
    const Pmf& exec =
        execution_pmf(task, machine_->type, *pet_, options_.approx_pet);
    if (exec.empty() || exec.min_time() < 0 ||
        exec.max_time() > kBracketTickLimit ||
        !within_tick_limit(task.deadline)) {
      return std::nullopt;
    }
    if (exec.size() > 1) {
      if (stride == 0) stride = exec.stride();
      if (exec.stride() != stride) return std::nullopt;
    }
    // Saturates at 2^61 >= d - X.min: a larger shift zeroes every term.
    max_sum = std::min(max_sum + exec.max_time(), 2 * kBracketTickLimit);
    exec_bins = std::max(exec_bins, exec.size());
    window_terms_.push_back(
        {&exec,
         &execution_cdf(task, machine_->type, *pet_, options_.approx_pet),
         task.deadline});
  }
  if (stride == 0) stride = 1;
  for (const WindowTerm& term : window_terms_) {
    if (term.exec->min_time() % stride != 0) return std::nullopt;
  }
  const Tick span_bins = (x.max_time() - x.min_time() + max_sum) / stride + 1;
  if (span_bins > static_cast<Tick>(kMaxRoundedTerms)) return std::nullopt;
  const auto width = static_cast<std::size_t>(span_bins);
  if ((steps + 2) * (width + exec_bins + 4) > kMaxRoundedTerms) {
    return std::nullopt;
  }

  const PmfCdf* x_prefix = x.size() > 1 ? &completion_cdf(pos - 1) : nullptr;
  const Tick first_deadline = window_terms_.front().deadline;
  const std::size_t split = static_cast<std::size_t>(std::clamp<Tick>(
      ceil_div(first_deadline - x.min_time(), stride), 0,
      static_cast<Tick>(x.size())));
  const auto fold = [&](const WindowTerm& term, Tick below, Tick above) {
    if (below == above) {
      return segment_fold(x, x_prefix, 0, x.size(), stride, term.deadline,
                          below, *term.exec, *term.exec_cdf);
    }
    return segment_fold(x, x_prefix, 0, split, stride, term.deadline, below,
                        *term.exec, *term.exec_cdf) +
           segment_fold(x, x_prefix, split, x.size(), stride, term.deadline,
                        above, *term.exec, *term.exec_cdf);
  };

  double lo = fold(window_terms_.front(), 0, 0);
  double hi = lo;
  const Tick first_min = window_terms_.front().exec->min_time();
  Tick shift_all = 0;   // A_n: sum of max E over p+1 .. n-1
  Tick shift_past = 0;  // B_n: sum of max E over p+2 .. n-1
  for (std::size_t k = 1; k < steps; ++k) {
    const Tick prev_max = window_terms_[k - 1].exec->max_time();
    shift_all = std::min(shift_all + prev_max, 2 * kBracketTickLimit);
    if (k > 1) {
      shift_past = std::min(shift_past + prev_max, 2 * kBracketTickLimit);
    }
    hi += fold(window_terms_[k], first_min, 0);
    lo += fold(window_terms_[k], shift_all, shift_past);
  }

  // Absolute margin (see the derivation above). A step can take the FFT
  // path only if its execution PMF and the widest chain it can meet both
  // pass the gate.
  double chance_steps = 0.0;
  double fft_error = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    const auto later = static_cast<double>(steps - k);
    chance_steps += later;
    const std::size_t bins = window_terms_[k].exec->size();
    if (fft_profitable(width, bins)) {
      fft_error += later * 1e-13 * static_cast<double>(2 * (width + bins));
    }
  }
  const auto w2 = static_cast<double>(width + 2);
  const double alpha =
      2.0 * (kPublishEps * w2 * chance_steps + fft_error +
             1e-15 * w2 * static_cast<double>(2 * steps + 2));
  return WindowBracket{lo * (1.0 - kBracketRho) - alpha,
                       hi * (1.0 + kBracketRho) + alpha};
}

double CompletionModel::instantaneous_robustness() {
  double sum = 0.0;
  for (std::size_t i = 0; i < machine_->queue.size(); ++i) sum += chance(i);
  return sum;
}

double CompletionModel::direct_chance_if_appended(TaskTypeId type,
                                                  Tick deadline) {
  const PmfCdf& exec_cdf = pet_->cdf(type, machine_->type);
  if (machine_->queue.empty()) {
    // The task would start immediately at now_.
    return now_ < deadline ? exec_cdf.mass_before(deadline - now_) : 0.0;
  }
  // Dot product of the cached tail PMF against the execution CDF. The
  // summation deliberately runs over tail bins in ascending time order —
  // the same order as materialising Eq. 1 and summing Eq. 2 — so the probe
  // stays bit-compatible with the decisions the chains themselves produce.
  const Pmf& pred = completion(machine_->queue.size() - 1);
  double sum = 0.0;
  const double* p = pred.data();
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const Tick k = pred.time_at(i);
    if (k >= deadline) break;
    if (p[i] == 0.0) continue;  // float-eq-ok: exact-zero sparse skip
    sum += p[i] * exec_cdf.mass_before(deadline - k);
  }
  return sum;
}

CompletionModel::AppendedSlot& CompletionModel::appended_slot(
    TaskTypeId type) {
  if (appended_.empty()) {
    appended_.resize(static_cast<std::size_t>(pet_->task_type_count()));
  }
  AppendedSlot& slot = appended_[static_cast<std::size_t>(type)];
  if (slot.stamped && slot.revision == chain_version_) return slot;

  // Re-stamp: recompute the combined lattice for the current tail. The
  // appended chance F(d) only changes as d crosses a point of
  // {tail bin + exec bin}, which (deltas aside) all lie on the lattice
  // {tail.min + exec.min + i*stride} — so one cached evaluation per lattice
  // cell reproduces the direct fold at *every* deadline, bit for bit.
  const Pmf& pred = machine_->queue.empty()
                        ? base()
                        : completion(machine_->queue.size() - 1);
  const Pmf& exec = pet_->pmf(type, machine_->type);
  slot.incompatible =
      pred.size() > 1 && exec.size() > 1 && pred.stride() != exec.stride();
  slot.revision = chain_version_;
  slot.stamped = true;
  slot.view_ready = false;
  slot.cells_ready = false;
  if (slot.incompatible) return slot;
  slot.stride = pred.size() > 1
                    ? pred.stride()
                    : (exec.size() > 1 ? exec.stride() : Tick{1});
  slot.offset = pred.min_time() + exec.min_time();
  slot.pred = &pred;
  slot.exec = &exec;
  return slot;
}

void CompletionModel::prepare_cells(AppendedSlot& slot, TaskTypeId type) {
  if (slot.cells_ready) return;
  slot.cells_ready = true;
  const Pmf& pred = *slot.pred;
  const Pmf& exec = *slot.exec;
  const auto bins = static_cast<std::size_t>(
      (pred.max_time() + exec.max_time() - slot.offset) / slot.stride + 1);
  slot.value.resize(bins + 1);
  slot.known.assign(bins + 1, 0);
  // Left-fold prefixes of the saturated terms (see AppendedSlot): one
  // O(|tail|) pass per stamp — the price of a single direct fold — after
  // which every cell costs O(|exec|).
  const double exec_total = pet_->cdf(type, machine_->type).total_mass();
  slot.sat_prefix.resize(pred.size());
  double acc = 0.0;
  const double* p = pred.data();
  for (std::size_t i = 0; i < pred.size(); ++i) {
    // float-eq-ok: exact-zero sparse skip
    if (p[i] != 0.0) acc += p[i] * exec_total;
    slot.sat_prefix[i] = acc;
  }
}

double CompletionModel::appended_cell(AppendedSlot& slot, TaskTypeId type,
                                      std::size_t cell) {
  if (slot.known[cell]) return slot.value[cell];
  // Fold the unsaturated window of sum_i p_i * E(d - k_i) on top of the
  // saturated prefix, in the same ascending-i order as the direct fold.
  // Tail bins with i >= cell only ever multiply E(x <= exec.min) == 0 and
  // are skipped, exactly like the direct fold's break-plus-zero terms.
  const PmfCdf& exec_cdf = pet_->cdf(type, machine_->type);
  const Pmf& pred = *slot.pred;
  const std::size_t exec_bins = slot.exec->size();
  double sum = 0.0;
  std::size_t window_lo = 0;
  if (cell >= exec_bins) {
    const std::size_t m = std::min(cell - exec_bins, pred.size() - 1);
    sum = slot.sat_prefix[m];
    window_lo = cell - exec_bins + 1;
  }
  const double* p = pred.data();
  const std::size_t window_hi = std::min(cell, pred.size());
  for (std::size_t i = window_lo; i < window_hi; ++i) {
    if (p[i] == 0.0) continue;  // float-eq-ok: exact-zero sparse skip
    // In-window terms sit at execution-prefix index cell - i by lattice
    // arithmetic (same double mass_before(d - k_i) would return).
    sum += p[i] * exec_cdf.prefix_at(cell - i);
  }
  slot.value[cell] = sum;
  slot.known[cell] = 1;
  return sum;
}

double CompletionModel::chance_if_appended(TaskTypeId type, Tick deadline) {
  // The idle-empty probe depends on `now` rather than the revision and is
  // already a single CDF lookup; memoising it would only add staleness
  // hazards.
  if (machine_->queue.empty()) {
    return direct_chance_if_appended(type, deadline);
  }
  AppendedSlot& slot = appended_slot(type);
  if (slot.incompatible) return direct_chance_if_appended(type, deadline);
  if (deadline <= slot.offset) return 0.0;
  prepare_cells(slot, type);
  // Snap the deadline up to its combined-lattice cell; F is constant (and
  // bit-identical to the direct fold) across the half-open cell interval.
  const auto cell = std::min<std::size_t>(
      static_cast<std::size_t>(
          (deadline - slot.offset + slot.stride - 1) / slot.stride),
      slot.value.size() - 1);
  const double result = appended_cell(slot, type, cell);
  if (audit::due(audit_appended_counter_)) {
    // float-eq-ok: bit-identity audit is exact by design
    if (result != direct_chance_if_appended(type, deadline)) {
      audit::fail("appended-distribution cache diverged from the direct "
                  "tail fold");
    }
  }
  return result;
}

const PmfCdf& CompletionModel::appended_view(TaskTypeId type) {
  if (machine_->queue.empty()) {
    // Build a transient-lattice slot rooted at the idle base delta(now_).
    // The queue is empty, so the revision stamp alone cannot witness `now`
    // changes; force a rebuild instead of trusting the stamp.
    AppendedSlot& slot = appended_slot(type);
    slot.stamped = false;  // never reuse across calls
    if (slot.incompatible) {
      throw std::invalid_argument(
          "appended_view: tail/execution stride mismatch");
    }
    prepare_cells(slot, type);
    auto& prefix =
        slot.view.rebuild_prefix(slot.offset, slot.stride,
                                 slot.value.size() - 1);
    for (std::size_t i = 0; i < slot.value.size(); ++i) {
      prefix[i] = direct_chance_if_appended(
          type, slot.offset + static_cast<Tick>(i) * slot.stride);
    }
    return slot.view;
  }
  AppendedSlot& slot = appended_slot(type);
  if (slot.incompatible) {
    throw std::invalid_argument(
        "appended_view: tail/execution stride mismatch");
  }
  if (!slot.view_ready) {
    prepare_cells(slot, type);
    auto& prefix = slot.view.rebuild_prefix(slot.offset, slot.stride,
                                            slot.value.size() - 1);
    for (std::size_t i = 0; i < slot.value.size(); ++i) {
      prefix[i] = appended_cell(slot, type, i);
    }
    slot.view_ready = true;
  }
  return slot.view;
}

double window_chance_sum(const Pmf& pred, const Machine& machine,
                         const std::vector<Task>& tasks, const PetMatrix& pet,
                         std::size_t first, std::size_t last,
                         const PetMatrix* approx_pet, PmfWorkspace* ws) {
  if (machine.queue.empty() || first >= machine.queue.size()) return 0.0;
  last = std::min(last, machine.queue.size() - 1);
  PmfWorkspace local;
  PmfWorkspace& w = ws != nullptr ? *ws : local;
  assert(&pred != &w.chain && "pred must not alias the workspace chain");
  Pmf& chain = w.chain;
  chain = pred;
  double sum = 0.0;
  for (std::size_t i = first; i <= last; ++i) {
    const Task& task = tasks[static_cast<std::size_t>(machine.queue[i])];
    const Pmf& exec = execution_pmf(task, machine.type, pet, approx_pet);
    deadline_convolve_into(chain, exec, task.deadline, w, chain);
    sum += chain.mass_before(task.deadline);
  }
  return sum;
}

}  // namespace taskdrop
