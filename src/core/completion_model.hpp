#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "pet/pet_matrix.hpp"
#include "prob/pmf.hpp"
#include "prob/sampler.hpp"
#include "prob/workspace.hpp"
#include "sim/machine.hpp"
#include "sim/task.hpp"
#include "util/time_types.hpp"

namespace taskdrop {

/// Per-machine stochastic completion-time model (Eqs. 1–3 of the paper).
///
/// For a machine queue [T_0, T_1, ..., T_{q-1}] (front = running task when
/// the machine is busy), the completion-time PMF of position i is
///
///   c_0 = start-time delta (x) exec PMF            (running: no truncation —
///                                                    the task already started)
///   c_i = deadline_convolve(c_{i-1}, E_i, delta_i) (Eq. 1)
///
/// and the chance of success of position i is c_i's mass before delta_i
/// (Eq. 2).
///
/// The chain is maintained incrementally with dirty-index tracking: PMFs
/// are cached per position together with a per-slot cumulative-mass view
/// (PmfCdf), and recomputed lazily from the first position whose
/// predecessor chain changed. Appending one task (the common mapping-event
/// mutation) re-convolves only the new tail slot; dropping a mid-queue task
/// re-convolves only the suffix from its position. Rebuilds run through a
/// shared PmfWorkspace, so steady-state chain maintenance performs no
/// allocation.
///
/// On top of the chain cache sits a revision-keyed appended-distribution
/// cache: the provisional "what if a task of type t were appended here"
/// distribution depends only on (machine state, task type) — a candidate's
/// deadline is just a CDF evaluation point — so its cumulative table is
/// built at most once per (machine, task type) per revision and every
/// further probe is an O(1) lookup (chance_if_appended / appended_view).
///
/// The model reads the machine's queue and the global task table at query
/// time; the engine owns both and calls invalidate_* on every structural
/// mutation (enqueue, drop, start, completion).
class CompletionModel {
 public:
  struct Options {
    /// When true, the running task's completion PMF is conditioned on the
    /// fact that it has not finished yet (mass at or before `now` is
    /// discarded and the rest renormalised). The paper uses the
    /// unconditioned PMF; conditioning is this repo's extension, ablated in
    /// specs/ablation_conditioning.sweep.
    bool condition_running = false;
    /// Approximate-computing extension: the time-scaled PET consulted for
    /// tasks whose `approximate` flag is set. Null disables the extension.
    const PetMatrix* approx_pet = nullptr;
    /// Test knob: disables every chain-keep fast path (the conditioned
    /// set_now keep and the notify_head_started keep), forcing the
    /// conservative invalidate-and-rebuild behaviour those paths replaced.
    /// The chain-keep differential suites run both settings and require
    /// bitwise-identical chains and decisions. Decision-neutral by
    /// construction, so it is not part of any serialised configuration.
    bool paranoid_rebuild = false;
  };

  CompletionModel() = default;
  /// `workspace` is optional shared convolution scratch (the engine passes
  /// one workspace to all its per-machine models); the model owns a private
  /// workspace when none is given.
  CompletionModel(const PetMatrix* pet, const Machine* machine,
                  const std::vector<Task>* tasks, Options options,
                  PmfWorkspace* workspace = nullptr);

  /// Must be called whenever simulated time advances (the idle-machine base
  /// PMF and the conditioned running PMF depend on `now`). The base is
  /// rebuilt lazily, on its first read after the clock moved.
  void set_now(Tick now);

  /// Invalidates cached completion PMFs from queue position `pos` on.
  void invalidate_from(std::size_t pos);
  void invalidate_all() { invalidate_from(0); }

  /// The queue head just transitioned from pending to running with
  /// run_start == now (a Start event). When the cached slot 0 is still
  /// rooted at delta(now) — guaranteed whenever anything is cached, because
  /// set_now rebases every non-running machine with a non-empty queue on
  /// each time advance — and the head started strictly before `deadline`,
  /// the pending slot's deadline truncation was vacuous and the running
  /// slot is bit-identical to it: the whole chain plus the value memos
  /// keyed on it stay valid, and only the revision is bumped (see
  /// bump_revision for why consumers must still observe the start). Falls
  /// back to invalidate_all whenever the keep precondition does not hold —
  /// conditioning enabled (normalize rescales slot 0 even when nothing is
  /// stripped), run_start != now, a start at or past the deadline, or the
  /// paranoid_rebuild knob. Replaces the blanket invalidate the failure
  /// and volatile-machine paths used to pay on every start.
  void notify_head_started(Tick deadline);

  /// Bumps the revision without touching the cached chain. The engine
  /// calls this when a queue head starts executing with run_start == now:
  /// the chain PMFs are bit-identical before and after (the pending head's
  /// deadline truncation was vacuous), so the chain and the value memos
  /// keyed on it stay valid — but revision-keyed consumers must still
  /// observe the start. The proactive droppers' single head-to-tail pass
  /// is order-dependent (a drop at position i changes the influence zones
  /// of the positions already examined), and their examined-revision skip
  /// uses the re-examination this bump schedules to reach the same fixed
  /// point the always-invalidate engine reached.
  void bump_revision() { ++version_; }

  /// Monotone counter bumped by every invalidate_from/invalidate_all and
  /// by bump_revision. Chances of success only change when the queue
  /// structure (or the conditioned base) changes, so droppers use it to
  /// skip machines whose queues they already examined in a previous
  /// mapping event.
  std::uint64_t revision() const { return version_; }

  /// Eq. 8's drop term for pending position `pos`: the chances of success
  /// of positions [pos + 1, pos + depth] (clamped to the tail) with the
  /// chain re-rooted at predecessor(pos), i.e. with the task at `pos`
  /// provisionally dropped (Eqs. 4–6). Exactly
  ///   window_chance_sum(predecessor(pos), machine, tasks, pet,
  ///                     pos + 1, pos + depth, approx_pet, &workspace)
  /// memoised per position: the window reads only the chain below `pos`
  /// and the tasks in [pos + 1, pos + depth], so invalidate_from(k) forgets
  /// the entries at positions >= k - depth and every other entry returns
  /// the double the same call produced from bitwise-identical inputs. The
  /// chain keeps (bump_revision, the conditioned set_now keep) leave every
  /// entry valid. A call with a different `depth` clears the memo. The
  /// value shares its slot with dropped_window_bracket's: once this has
  /// run at `pos`, the bracket there is {value, value}.
  double dropped_window_sum(std::size_t pos, std::size_t depth);

  /// Certified bounds on dropped_window_sum: lo <= the double it returns
  /// for (pos, depth) <= hi, for the same queue state.
  struct WindowBracket {
    double lo = 0.0;
    double hi = 0.0;
  };

  /// A bracket around dropped_window_sum(pos, depth) computed without a
  /// convolution: O(depth) folds of predecessor(pos) against the window's
  /// execution CDFs, each at most |E| bins long (see the derivation in
  /// completion_model.cpp). The term of task pos + 1 is its exact real
  /// chance; every later term n is bounded by shifting the predecessor's
  /// start times by the least (upper bound) or the most (lower bound) the
  /// provisional chain can add ahead of n. Rounding margins make the
  /// bracket hold the computed double, not only the real value. A
  /// bracket is never a point: hi - lo > 1e-11.
  ///
  /// Memoised in dropped_window_sum's per-position slot with the same
  /// invalidation. When the window breaks a fold precondition (an empty
  /// or negative-time execution PMF, mixed strides, times beyond 2^60
  /// ticks, or a window too wide for the rounding budget) the exact walk
  /// runs instead, raising what it raises, and the bracket is the point
  /// {v, v}; so is every slot dropped_window_sum has already filled.
  WindowBracket dropped_window_bracket(std::size_t pos, std::size_t depth);

  /// Completion-time PMF of queue position `pos` (Eq. 1).
  const Pmf& completion(std::size_t pos);

  /// Cached cumulative-mass view of completion(pos): P(X < t) in O(1),
  /// bit-identical to completion(pos).mass_before(t). Views are rebuilt
  /// lazily on first access after an invalidation, so chain maintenance
  /// never pays for them.
  const PmfCdf& completion_cdf(std::size_t pos);

  /// Chance of success of queue position `pos` (Eq. 2).
  double chance(std::size_t pos);

  /// Completion PMF of the predecessor of `pos`: c_{pos-1}, or the machine
  /// base distribution (start-availability) for pos == 0. The reference is
  /// valid until the next mutation or set_now call.
  const Pmf& predecessor(std::size_t pos);

  /// Completion PMF of the last queued task — the distribution of when the
  /// machine would start a newly appended task. delta(now) when idle-empty.
  const Pmf& tail();

  /// Mean of tail(), memoised per revision (hot in the mapping heuristics'
  /// phase-2 expected-completion scans, which query it once per candidate
  /// (task, machine) pair per round).
  double tail_mean();

  /// Instantaneous robustness of this machine queue — Eq. 3: the sum of
  /// chances of success over all queued tasks (running task included).
  double instantaneous_robustness();

  /// Chance of success a task of type `type` with deadline `deadline`
  /// would have if appended to the current queue tail (used by PAM's
  /// phase 1 and by the threshold dropper's deferral logic). Computed as
  ///   sum_k tail(k) * P(E < deadline - k)   over k < deadline,
  /// i.e. a dot product of the cached tail PMF against the execution CDF —
  /// Eq. 2 applied to Eq. 1 without materialising the convolution, in the
  /// same summation order so probe and chain decisions stay bit-compatible.
  ///
  /// The dot product is memoised per (task type, deadline lattice cell)
  /// into the revision-keyed appended-distribution cache (see
  /// appended_view): the appended chance is piecewise constant between
  /// points of the combined tail x execution lattice, so one evaluation
  /// per cell serves every deadline that snaps to it. A mapping-event scan
  /// that probes the same (machine, task) pair across successive PAM
  /// rounds — or across events that leave this queue untouched — pays the
  /// O(|tail|) fold once and O(1) afterwards, bit-identically.
  double chance_if_appended(TaskTypeId type, Tick deadline);

  /// Cumulative view of the appended-completion distribution for `type`:
  /// mass_before(d) is exactly chance_if_appended(type, d) for every d.
  /// Built at most once per (machine, task type) per revision into
  /// per-model cached storage; a phase-1 scan evaluating one view at many
  /// deadlines is a few table builds plus O(1) lookups instead of one
  /// tail-fold per (candidate, machine) pair. Throws std::invalid_argument
  /// when the tail and execution lattices are incompatible (mixed strides
  /// — never the case for PMFs built by one scenario). The reference is
  /// valid until the next mutation of this machine's queue.
  const PmfCdf& appended_view(TaskTypeId type);

 private:
  /// Per-(task type) appended-distribution cache entry. `value[i]` holds
  /// the appended chance at combined-lattice point offset + i*stride,
  /// filled lazily cell by cell (chance_if_appended) or fully
  /// (appended_view); `known` tracks which cells are filled.
  ///
  /// Cell evaluation is O(|exec|) instead of the direct fold's O(|tail|):
  /// in the ascending-time dot product sum_i p_i * E(d - k_i), every tail
  /// bin with d - k_i beyond the execution support contributes exactly
  /// p_i * E_total, and those bins come *first* in ascending order — so
  /// their running sums are the left-fold prefixes cached in `sat_prefix`
  /// and each cell only folds the O(|exec|) window of unsaturated terms on
  /// top of the matching prefix, reproducing the direct fold bit for bit.
  ///
  /// A restamp sets only the stamp, offset, stride, `pred` and `exec`:
  /// many probes ask for a deadline at or below `offset` and read no cell.
  /// `value`, `known` and `sat_prefix` are built on the first cell read
  /// (prepare_cells).
  struct AppendedSlot {
    Tick offset = 0;
    Tick stride = 1;
    std::vector<double> value;
    std::vector<unsigned char> known;
    /// sat_prefix[i] = left fold of p_0*E_total .. p_i*E_total over the
    /// tail PMF, where E_total is the execution CDF's total mass.
    std::vector<double> sat_prefix;
    /// value, known and sat_prefix belong to the current stamp.
    bool cells_ready = false;
    /// The cached tail and execution PMFs the cells fold over; stable for
    /// the lifetime of the stamp (invalidations restamp before reuse).
    const Pmf* pred = nullptr;
    const Pmf* exec = nullptr;
    PmfCdf view;
    bool view_ready = false;
    /// Tail/exec stride mismatch: fall back to direct evaluation.
    bool incompatible = false;
    std::uint64_t revision = 0;
    bool stamped = false;
  };

  const Pmf& exec_pmf(std::size_t pos) const;
  /// base_, rebuilt as delta(now_) on the first read after the clock
  /// moved: set_now only marks it stale, so a clock move costs nothing
  /// until a reader (the idle slot 0, predecessor(0), tail(), an appended
  /// slot on an empty queue, the audit reference) asks for it.
  const Pmf& base();
  void ensure(std::size_t pos);
  void compute_running_completion(Pmf& out);
  /// TASKDROP_AUDIT cross-check (sampled from ensure): recompute the chain
  /// [0, pos] from scratch with the allocating kernels and require bitwise
  /// equality with the incrementally maintained completions_/chances_.
  void audit_verify_chain(std::size_t pos);
  AppendedSlot& appended_slot(TaskTypeId type);
  /// Sizes the stamped slot's cell table and folds its saturated prefixes
  /// (once per stamp); `slot` must be compatible.
  void prepare_cells(AppendedSlot& slot, TaskTypeId type);
  double appended_cell(AppendedSlot& slot, TaskTypeId type, std::size_t cell);
  double direct_chance_if_appended(TaskTypeId type, Tick deadline);
  /// The memo slot of the window at `pos` for `depth` (a new depth clears
  /// the memo first).
  std::optional<WindowBracket>& window_slot(std::size_t pos,
                                            std::size_t depth);
  /// window_chance_sum for the window at `pos`, uncached.
  double direct_window_sum(std::size_t pos, std::size_t depth);
  /// The uncached fold bracket; nullopt when a fold precondition fails.
  std::optional<WindowBracket> fold_bracket(std::size_t pos,
                                            std::size_t depth);
  PmfWorkspace& workspace() {
    return shared_ws_ != nullptr ? *shared_ws_ : owned_ws_;
  }

  const PetMatrix* pet_ = nullptr;
  const Machine* machine_ = nullptr;
  const std::vector<Task>* tasks_ = nullptr;
  Options options_;
  Tick now_ = 0;

  /// First kept bin of the conditioned running-task slot (valid while the
  /// machine is running, condition_running is set, and valid_count_ > 0):
  /// the conditioned slot 0 is bitwise unchanged while now_ stays strictly
  /// below it, because the stripped bin set and the renormalising mass are
  /// both unchanged. Degenerate point masses keep forever (Tick max).
  Tick cond_keep_below_ = 0;

  /// delta(now_): the idle machine's start-availability distribution, read
  /// only through base(). Kept materialised so predecessor()/ensure()
  /// never build temporaries.
  Pmf base_;
  /// set_now moved the clock since base_ was last built.
  bool base_stale_ = true;
  /// Scratch delta for the running task's start time.
  Pmf start_;

  std::vector<Pmf> completions_;
  /// Lazily-rebuilt cumulative views over completions_; valid for slots
  /// below cdf_valid_count_ (always <= valid_count_).
  std::vector<PmfCdf> cdfs_;
  std::vector<double> chances_;
  std::size_t valid_count_ = 0;
  std::size_t cdf_valid_count_ = 0;
  std::uint64_t version_ = 0;
  /// Bumped only by invalidate_from — i.e. exactly when the cached chain
  /// contents change. bump_revision (a start with an unchanged chain)
  /// advances version_ but not this, so the value memos below survive it.
  std::uint64_t chain_version_ = 0;

  /// Appended-distribution cache, one slot per task type (sized on first
  /// use). Slots are stamped with the chain version they were built at;
  /// the idle-empty queue is evaluated directly (it depends on `now`, not
  /// on the revision, and costs a single execution-CDF lookup anyway).
  std::vector<AppendedSlot> appended_;

  /// tail_mean memo (valid while tail_mean_revision_ == chain_version_ and
  /// the queue is non-empty; the empty-queue mean is just `now`).
  double tail_mean_ = 0.0;
  std::uint64_t tail_mean_revision_ = 0;
  bool tail_mean_valid_ = false;

  /// dropped_window_bracket / dropped_window_sum memo, one entry per queue
  /// position (empty until computed) for window depth window_depth_ (0
  /// before the first call): a fold bracket, or {v, v} once the exact
  /// value v is known. Kept in step with the chain by invalidate_from, not
  /// by a revision.
  std::vector<std::optional<WindowBracket>> windows_;
  std::size_t window_depth_ = 0;
  /// fold_bracket's per-window scratch: one entry per window task.
  struct WindowTerm {
    const Pmf* exec = nullptr;
    const PmfCdf* exec_cdf = nullptr;
    Tick deadline = 0;
  };
  std::vector<WindowTerm> window_terms_;

  /// TASKDROP_AUDIT sampling counters, one per audited memo so a chatty
  /// site cannot starve the others (unused in normal builds, where the
  /// audit gates fold to constant false).
  std::uint64_t audit_chain_counter_ = 0;
  std::uint64_t audit_appended_counter_ = 0;
  std::uint64_t audit_tail_mean_counter_ = 0;
  std::uint64_t audit_dropped_counter_ = 0;
  std::uint64_t audit_bracket_counter_ = 0;

  PmfWorkspace* shared_ws_ = nullptr;
  PmfWorkspace owned_ws_;
};

/// Execution PMF of `task` on machine type `machine_type`, honouring the
/// task's approximate flag when `approx_pet` is non-null.
const Pmf& execution_pmf(const Task& task, MachineTypeId machine_type,
                         const PetMatrix& pet, const PetMatrix* approx_pet);

/// Sum of the chances of success of queue positions [first, last] when their
/// predecessor chain starts from `pred` — the window quantity of Eqs. 4–7.
/// Positions index `machine.queue`; `last` is clamped to the queue tail.
/// This is the "what-if" primitive behind the proactive heuristic's
/// provisional drop of one task (Eq. 8), and the exact reference its
/// bracket must contain: the heuristic reads it through
/// CompletionModel::dropped_window_sum's per-position memo, and only for
/// the windows CompletionModel::dropped_window_bracket cannot settle.
/// When `ws` is given the provisional chain lives in ws->chain and the walk
/// allocates nothing in steady state; `pred` must not alias ws->chain.
double window_chance_sum(const Pmf& pred, const Machine& machine,
                         const std::vector<Task>& tasks, const PetMatrix& pet,
                         std::size_t first, std::size_t last,
                         const PetMatrix* approx_pet = nullptr,
                         PmfWorkspace* ws = nullptr);

}  // namespace taskdrop
