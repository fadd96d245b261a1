#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/scenario_cache.hpp"
#include "util/spec_parser.hpp"

namespace taskdrop {

/// One workload level of a sweep. Task count and oversubscription move
/// together (the paper's 20k/30k/40k levels scale both), so they form one
/// labelled axis entry rather than two independent axes.
struct SweepLevel {
  std::string label;
  int n_tasks = 3000;
  double oversubscription = 3.0;
};

/// One dropper axis entry: a labelled DropperConfig ("optimal",
/// "heuristic eta=2", ...).
struct DropperVariant {
  std::string label;
  DropperConfig config;
};

/// One failure axis entry ("off", "mtbf=60000", ...).
struct FailureVariant {
  std::string label;
  FailureModel model;
};

DropperEngagement engagement_from_name(const std::string& name);
std::string_view engagement_name(DropperEngagement engagement);

/// Every key SweepSpec::from_map understands, in documentation order: the
/// program's settable values. `run`, `sweep` and `serve` take each as an
/// inline flag over --spec, and unknown-key errors list them.
const std::vector<std::string>& sweep_spec_keys();

/// Declarative description of an experiment grid: every axis is a list and
/// the cross product of all axes expands into ExperimentConfigs. Defaults
/// make every axis a singleton, so a default-constructed spec is one cell
/// matching a default ExperimentConfig. Constructible from text via
/// from_map (sweep files and CLI flags share the SpecMap shape).
struct SweepSpec {
  std::string name = "sweep";

  // --- Axes (cross-multiplied, nesting order as declared).
  std::vector<ScenarioKind> scenarios = {ScenarioKind::SpecHC};
  std::vector<SweepLevel> levels = {{"3000@3.0", 3000, 3.0}};
  std::vector<std::string> mappers = {"PAM"};
  std::vector<DropperVariant> droppers = {
      {"heuristic", DropperConfig::heuristic()}};
  std::vector<double> gammas = {4.0};
  std::vector<int> queue_capacities = {6};
  std::vector<DropperEngagement> engagements = {
      DropperEngagement::EveryMappingEvent};
  std::vector<bool> conditioning = {false};
  std::vector<FailureVariant> failures = {{"off", FailureModel{}}};

  // --- Fixed (shared by every cell).
  ArrivalPattern pattern = ArrivalPattern::Poisson;
  ApproxModel approx;
  int trials = 8;
  std::uint64_t seed = 42;
  int exclude_head = 100;
  int exclude_tail = 100;
  int candidate_window = 256;

  /// Cells the cross product expands to.
  std::size_t cell_count() const;

  /// Rejects empty axes, trials < 1, non-positive task counts /
  /// oversubscription / capacities, negative gammas and unknown mapper
  /// names, with an error naming the offending key. Called by run_sweep.
  void validate() const;

  /// Builds a spec from parsed text (see util/spec_parser.hpp for the
  /// accepted syntaxes). Every name goes through the registries —
  /// scenario_from_name, make_mapper, DropperConfig::from_spec — so errors
  /// list the available sets. Unknown keys throw, listing the known ones.
  /// Axis labels render parsed values the way to_map does ("beta=1" for
  /// `beta = 1.0`), so a from_map-built grid re-expands to identical cells.
  static SweepSpec from_map(const SpecMap& map);

  /// Canonical SpecMap rendering; from_map(to_map()) is a fixpoint. The
  /// dropper axis is emitted in grid form (names x eta/beta/threshold
  /// lists), which reproduces any from_map-built spec exactly; hand-built
  /// variant lists that do not form a grid re-expand to their enclosing
  /// grid.
  SpecMap to_map() const;
};

/// Layers `overrides` over `base`, each replacing a key's whole list (CLI
/// flags over a --spec file). An overriding `levels` drops the base's
/// tasks/oversub; an overriding tasks or oversub first splits the base's
/// checked `levels` entries into halves, keeping the other half
/// ("--tasks=200" over "20k:2000:2.5" is the level 200@2.5).
SpecMap overlay_spec_map(SpecMap base, const SpecMap& overrides);

/// Axis labels identifying one expanded cell, in reporting form.
struct SweepPoint {
  std::string scenario;
  std::string level;
  std::string mapper;
  std::string dropper;
  std::string gamma;
  std::string capacity;
  std::string engagement;
  std::string conditioning;
  std::string failures;

  bool operator==(const SweepPoint&) const = default;
};

/// Label of one named axis ("scenario", "level", "mapper", "dropper",
/// "gamma", "capacity", "engagement", "conditioning", "failures").
const std::string& axis_label(const SweepPoint& point,
                              const std::string& axis);

struct SweepCell {
  SweepPoint point;
  ExperimentConfig config;
};

/// The expanded cross product, in deterministic axis-nesting order
/// (scenario outermost, failures innermost).
std::vector<SweepCell> expand(const SweepSpec& spec);

struct SweepCellResult {
  SweepPoint point;
  ExperimentConfig config;
  ExperimentResult result;
  /// Trial indices present in result.trials, ascending. A complete cell
  /// holds 0..config.trials-1; a leased run leaves each cell with only
  /// the trials its lease owns (possibly none).
  std::vector<int> trial_indices;
};

/// Flat unit index of (cell, trial) under `trials` trials per cell — the
/// quantity leases partition.
inline std::size_t sweep_unit(std::size_t cell, int trial, int trials) {
  return cell * static_cast<std::size_t>(trials) +
         static_cast<std::size_t>(trial);
}

/// One lease of a sweep: the flat cell-major unit indices (see sweep_unit)
/// u in [begin, end) with (u - begin) % stride == 0. The CLI's
/// `--shard=I/N` is the strided lease {I, I, units, N}: round-robin units
/// spread expensive cells (deep windows, large levels) across N static
/// shards. Elastic leases (exp/lease.hpp) are contiguous (stride 1) and
/// sized by each cell's level: a lease directory hands them to whichever
/// worker claims them, so a dead worker's range is re-run by a survivor.
struct SweepLeaseRange {
  long long id = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t stride = 1;

  /// Rejects id < 0, begin >= end and stride < 1.
  void validate() const;
};

/// "lease <id> [<begin>, <end>)", plus " stride <n>" when not 1: how
/// progress lines and errors name a lease.
std::string lease_text(const SweepLeaseRange& lease);

/// Whether `lease` covers the given unit.
inline bool lease_owns(const SweepLeaseRange& lease, std::size_t unit) {
  return unit >= lease.begin && unit < lease.end &&
         (unit - lease.begin) % lease.stride == 0;
}

/// Consolidated output of one sweep; metrics/report.hpp renders it as an
/// aligned table, CSV or JSON (and merges lease reports back together).
struct SweepReport {
  std::string name;
  /// Axes whose spec lists had more than one entry, in nesting order —
  /// the identity columns of the long-format report.
  std::vector<std::string> active_axes;
  /// Engaged when run_sweep executed one lease (a `--shard` included): the
  /// JSON form then carries the lease header and per-trial payloads that
  /// merge_sweep_reports consumes. Disengaged for plain and merged runs.
  std::optional<SweepLeaseRange> lease;
  /// Canonical SweepSpec::to_map rendering, filled for leased runs — the
  /// header merge_sweep_reports validates compatibility against.
  SpecMap spec_map;
  /// Expansion order (stable regardless of scheduling).
  std::vector<SweepCellResult> cells;
};

struct SweepOptions {
  /// Worker threads; 0 means hardware concurrency.
  std::size_t threads = 0;
  /// Optional externally shared cache (e.g. across several specs).
  ScenarioCache* cache = nullptr;
  /// When engaged, run only the (cell, trial) units this lease owns.
  /// Requires a spec whose to_map rendering is a from_map fixpoint, so the
  /// merge can re-expand identical cells.
  std::optional<SweepLeaseRange> lease;
  /// Streaming progress: invoked once per finished cell (serialised, from
  /// worker threads) with the completed cell and done/total counts. Under
  /// a lease a cell counts as finished when its owned trials are done;
  /// cells the lease does not touch are excluded from the totals.
  std::function<void(const SweepCellResult&, std::size_t done,
                     std::size_t total)>
      on_cell;
};

/// Expands the spec and fans every (cell, trial) across one thread pool.
/// Scenarios are shared through the cache — every cell with the same
/// (scenario, seed) reads one instance — and each cell's result is
/// bitwise-identical to run_experiment on its config. Trial RNG streams
/// are seeded per (cell, trial), so a leased run computes exactly the
/// trials the unpartitioned run would, and merging lease reports
/// reproduces the unpartitioned report bit for bit. A trial body that
/// throws no longer terminates the process: the first exception is
/// captured, remaining units are skipped, and it is rethrown here once the
/// pool drains.
SweepReport run_sweep(const SweepSpec& spec, const SweepOptions& options = {});

/// The active-axes column set run_sweep derives from a spec (exposed for
/// merge_sweep_reports, which rebuilds reports from lease headers).
std::vector<std::string> active_axes_of(const SweepSpec& spec);

/// The canonical to_map rendering a mergeable (leased) run may publish as
/// its header: requires a spec whose re-expansion through from_map
/// reproduces the grid cell for cell — merging attributes trial payloads
/// by cell index, so anything weaker would corrupt the merge silently.
/// Throws std::invalid_argument when the spec has no such rendering.
SpecMap canonical_spec_map(const SweepSpec& spec);

}  // namespace taskdrop
