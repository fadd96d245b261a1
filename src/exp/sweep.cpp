#include "exp/sweep.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "cost/cost_model.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/scenario_registry.hpp"

namespace taskdrop {
namespace {

/// Shortest round-trippable rendering ("4", "2.5", "0.55") — the util
/// formatter, so from_map(to_map()) is a fixpoint for any finite double.
std::string format_number(double value) { return format_double(value); }

// Whole-string parses shared with the dropper registry (util/spec_parser),
// prefixed with the sweep key for the error message.
int parse_int(const std::string& key, const std::string& value) {
  return parse_spec_int("sweep key " + key, value);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  return parse_spec_u64("sweep key " + key, value);
}

double parse_double(const std::string& key, const std::string& value) {
  return parse_spec_double("sweep key " + key, value);
}

bool parse_bool(const std::string& key, const std::string& value) {
  return parse_spec_bool("sweep key " + key, value);
}

/// The one value of a single-valued key, or fallback when absent.
std::string single(const SpecMap& map, const std::string& key,
                   const std::string& fallback) {
  const auto it = map.find(key);
  if (it == map.end()) return fallback;
  if (it->second.size() != 1) {
    throw std::invalid_argument("sweep key " + key +
                                " expects a single value, got " +
                                std::to_string(it->second.size()));
  }
  return it->second.front();
}

std::vector<std::string> list_or(const SpecMap& map, const std::string& key,
                                 std::vector<std::string> fallback) {
  const auto it = map.find(key);
  return it == map.end() ? std::move(fallback) : it->second;
}

/// The fields of a levels entry, "label:tasks:oversub" or "tasks:oversub".
std::vector<std::string> level_fields(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const auto colon = text.find(':', start);
    parts.push_back(colon == std::string::npos
                        ? text.substr(start)
                        : text.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() > 3) {
    // A label containing ':' is indistinguishable from extra fields, so it
    // is rejected outright instead of guessing which colon splits the
    // label (validate() enforces the same rule on hand-built specs).
    throw std::invalid_argument(
        "sweep key levels: expected [label:]tasks:oversub, got '" + text +
        "' (labels must not contain ':')");
  }
  if (parts.size() < 2) {
    throw std::invalid_argument(
        "sweep key levels: expected [label:]tasks:oversub, got '" + text +
        "'");
  }
  return parts;
}

SweepLevel parse_level(const std::string& text) {
  const std::vector<std::string> fields = level_fields(text);
  const std::string& tasks = fields[fields.size() - 2];
  const std::string& oversub = fields.back();
  return {fields.size() == 3 ? fields.front() : tasks + "@" + oversub,
          parse_int("levels", tasks), parse_double("levels", oversub)};
}

std::vector<SweepLevel> levels_from_map(const SpecMap& map) {
  if (map.count("levels") != 0) {
    // One levels axis, two spellings: mixing them would make one silently
    // win, so reject the combination (overlay_spec_map resolves an
    // override of either spelling before from_map sees the map).
    if (map.count("tasks") != 0 || map.count("oversub") != 0) {
      throw std::invalid_argument(
          "sweep keys levels and tasks/oversub both given — they describe "
          "the same axis; use one spelling");
    }
    std::vector<SweepLevel> levels;
    for (const std::string& entry : map.at("levels")) {
      levels.push_back(parse_level(entry));
    }
    return levels;
  }
  // Zipped tasks/oversub lists; a singleton broadcasts over the other.
  const auto& tasks = list_or(map, "tasks", {"3000"});
  const auto& oversubs = list_or(map, "oversub", {"3.0"});
  const std::size_t count = std::max(tasks.size(), oversubs.size());
  if ((tasks.size() != count && tasks.size() != 1) ||
      (oversubs.size() != count && oversubs.size() != 1)) {
    throw std::invalid_argument(
        "sweep keys tasks/oversub: lists must match in length (or be "
        "single) — got " +
        std::to_string(tasks.size()) + " vs " +
        std::to_string(oversubs.size()));
  }
  std::vector<SweepLevel> levels;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& task_text = tasks[tasks.size() == 1 ? 0 : i];
    const std::string& oversub_text = oversubs[oversubs.size() == 1 ? 0 : i];
    levels.push_back({task_text + "@" + oversub_text,
                      parse_int("tasks", task_text),
                      parse_double("oversub", oversub_text)});
  }
  return levels;
}

std::vector<DropperVariant> droppers_from_map(const SpecMap& map) {
  const auto& names = list_or(map, "dropper", {"heuristic"});
  const auto& etas = list_or(map, "eta", {"2"});
  const auto& betas = list_or(map, "beta", {"1"});
  const auto& thresholds = list_or(map, "threshold", {"0.5"});
  const std::string adaptive = single(map, "adaptive", "1");

  std::vector<DropperVariant> variants;
  for (const std::string& name : names) {
    // Cross each name with the grids that tune its kind only, so `eta`
    // lists do not multiply the threshold baseline (and vice versa).
    // Labels render the parsed values as to_map does, so the re-expanded
    // grid of a sharded run carries the same labels ("beta=1", not the
    // "beta=1.0" token).
    const DropperConfig::Kind kind = DropperConfig::from_spec(name).kind;
    if (kind == DropperConfig::Kind::Heuristic ||
        kind == DropperConfig::Kind::Approx) {
      for (const std::string& eta : etas) {
        for (const std::string& beta : betas) {
          const DropperConfig config =
              DropperConfig::from_spec(name, {{"eta", eta}, {"beta", beta}});
          std::string label = name;
          if (etas.size() > 1) {
            label += " eta=" + std::to_string(config.effective_depth);
          }
          if (betas.size() > 1) label += " beta=" + format_number(config.beta);
          variants.push_back({std::move(label), config});
        }
      }
    } else if (kind == DropperConfig::Kind::Threshold) {
      for (const std::string& threshold : thresholds) {
        const DropperConfig config = DropperConfig::from_spec(
            name, {{"threshold", threshold}, {"adaptive", adaptive}});
        std::string label = name;
        if (thresholds.size() > 1) {
          label += " threshold=" + format_number(config.base_threshold);
        }
        variants.push_back({std::move(label), config});
      }
    } else {
      variants.push_back({name, DropperConfig::from_spec(name)});
    }
  }
  return variants;
}

std::vector<FailureVariant> failures_from_map(const SpecMap& map) {
  if (map.count("mtbf") == 0) {
    if (map.count("mttr") != 0) {
      throw std::invalid_argument(
          "sweep key mttr given without mtbf — failure injection needs the "
          "mtbf axis (0 disables it)");
    }
    return {{"off", FailureModel{}}};
  }
  const double mttr = parse_double("mttr", single(map, "mttr", "3000"));
  std::vector<FailureVariant> variants;
  for (const std::string& text : map.at("mtbf")) {
    const double mtbf = parse_double("mtbf", text);
    if (mtbf < 0.0) {
      throw std::invalid_argument(
          "sweep key mtbf must be >= 0 (0 disables failures), got " + text);
    }
    FailureModel model;
    if (mtbf > 0.0) {
      model.enabled = true;
      model.mean_time_between_failures = mtbf;
      model.mean_time_to_repair = mttr;
    }
    variants.push_back({mtbf > 0.0 ? "mtbf=" + format_number(mtbf) : "off",
                        model});
  }
  return variants;
}

bool known_key(const std::string& key) {
  for (const std::string& known : sweep_spec_keys()) {
    if (key == known) return true;
  }
  return false;
}

}  // namespace

const std::vector<std::string>& sweep_spec_keys() {
  static const std::vector<std::string> keys = {
      "name",       "scenario",   "mapper",
      "dropper",    "eta",        "beta",
      "threshold",  "adaptive",   "levels",
      "tasks",      "oversub",    "gamma",
      "capacity",   "engagement", "conditioning",
      "mtbf",       "mttr",       "pattern",
      "approx",     "approx_time_factor", "approx_utility_weight",
      "trials",     "seed",       "exclude_head",
      "exclude_tail", "candidate_window"};
  return keys;
}

DropperEngagement engagement_from_name(const std::string& name) {
  if (name == "every-event") return DropperEngagement::EveryMappingEvent;
  if (name == "on-deadline-miss") return DropperEngagement::OnDeadlineMiss;
  throw std::invalid_argument(
      "unknown engagement: " + name +
      " (available: every-event, on-deadline-miss)");
}

std::string_view engagement_name(DropperEngagement engagement) {
  return engagement == DropperEngagement::EveryMappingEvent
             ? "every-event"
             : "on-deadline-miss";
}

std::size_t SweepSpec::cell_count() const {
  return scenarios.size() * levels.size() * mappers.size() * droppers.size() *
         gammas.size() * queue_capacities.size() * engagements.size() *
         conditioning.size() * failures.size();
}

void SweepSpec::validate() const {
  const auto require = [](bool ok, const std::string& message) {
    if (!ok) throw std::invalid_argument("sweep spec: " + message);
  };
  require(trials >= 1, "trials must be >= 1, got " + std::to_string(trials));
  require(!scenarios.empty(), "scenario axis is empty");
  require(!levels.empty(), "levels axis is empty");
  require(!mappers.empty(), "mapper axis is empty");
  require(!droppers.empty(), "dropper axis is empty");
  require(!gammas.empty(), "gamma axis is empty");
  require(!queue_capacities.empty(), "capacity axis is empty");
  require(!engagements.empty(), "engagement axis is empty");
  require(!conditioning.empty(), "conditioning axis is empty");
  require(!failures.empty(), "failures axis is empty");
  for (const SweepLevel& level : levels) {
    require(level.n_tasks >= 1,
            "level " + level.label + ": n_tasks must be >= 1");
    require(level.oversubscription > 0.0,
            "level " + level.label + ": oversubscription must be > 0");
    // ':' is the levels-entry field separator, so a label containing it
    // would render a to_map() entry parse_level cannot read back.
    require(level.label.find(':') == std::string::npos,
            "level label '" + level.label + "' must not contain ':'");
  }
  // Deadlines are arrival + type mean + gamma x grand mean: a negative
  // slack would set deadlines before the work could finish.
  for (const double gamma : gammas) {
    require(gamma >= 0.0, "gamma must be >= 0, got " + format_number(gamma));
  }
  for (const int capacity : queue_capacities) {
    require(capacity >= 1, "queue capacity must be >= 1, got " +
                               std::to_string(capacity));
  }
  require(exclude_head >= 0 && exclude_tail >= 0,
          "exclusion windows must be >= 0");
  require(candidate_window >= 1, "candidate_window must be >= 1");
  // Registry-check every mapper up front so the error carries the
  // available set and no pool worker can throw mid-sweep.
  for (const std::string& mapper : mappers) make_mapper(mapper);
}

SweepSpec SweepSpec::from_map(const SpecMap& map) {
  for (const auto& [key, values] : map) {
    if (!known_key(key)) {
      throw std::invalid_argument("unknown sweep key: " + key + " (known: " +
                                  join_spec_list(sweep_spec_keys()) + ")");
    }
  }
  SweepSpec spec;
  spec.name = single(map, "name", spec.name);

  spec.scenarios.clear();
  for (const std::string& name : list_or(map, "scenario", {"spec_hc"})) {
    spec.scenarios.push_back(scenario_from_name(name));
  }
  spec.levels = levels_from_map(map);
  spec.mappers = list_or(map, "mapper", {"PAM"});
  spec.droppers = droppers_from_map(map);
  spec.gammas.clear();
  for (const std::string& text : list_or(map, "gamma", {"4"})) {
    spec.gammas.push_back(parse_double("gamma", text));
  }
  spec.queue_capacities.clear();
  for (const std::string& text : list_or(map, "capacity", {"6"})) {
    spec.queue_capacities.push_back(parse_int("capacity", text));
  }
  spec.engagements.clear();
  for (const std::string& name :
       list_or(map, "engagement", {"every-event"})) {
    spec.engagements.push_back(engagement_from_name(name));
  }
  spec.conditioning.clear();
  for (const std::string& text : list_or(map, "conditioning", {"0"})) {
    spec.conditioning.push_back(parse_bool("conditioning", text));
  }
  spec.failures = failures_from_map(map);

  const std::string pattern = single(map, "pattern", "poisson");
  if (pattern == "poisson") {
    spec.pattern = ArrivalPattern::Poisson;
  } else if (pattern == "bursty") {
    spec.pattern = ArrivalPattern::Bursty;
  } else {
    throw std::invalid_argument("unknown arrival pattern: " + pattern +
                                " (available: poisson, bursty)");
  }
  spec.approx.enabled = parse_bool("approx", single(map, "approx", "0"));
  spec.approx.time_factor = parse_double(
      "approx_time_factor",
      single(map, "approx_time_factor", format_number(spec.approx.time_factor)));
  spec.approx.utility_weight =
      parse_double("approx_utility_weight",
                   single(map, "approx_utility_weight",
                          format_number(spec.approx.utility_weight)));
  spec.trials = parse_int("trials", single(map, "trials", "8"));
  spec.seed = parse_u64("seed", single(map, "seed", "42"));
  spec.exclude_head =
      parse_int("exclude_head", single(map, "exclude_head", "100"));
  spec.exclude_tail =
      parse_int("exclude_tail", single(map, "exclude_tail", "100"));
  spec.candidate_window =
      parse_int("candidate_window", single(map, "candidate_window", "256"));
  spec.validate();
  return spec;
}

SpecMap overlay_spec_map(SpecMap base, const SpecMap& overrides) {
  if (overrides.count("levels") != 0) {
    base.erase("tasks");
    base.erase("oversub");
  } else if ((overrides.count("tasks") != 0 ||
              overrides.count("oversub") != 0) &&
             base.count("levels") != 0 && base.count("tasks") == 0 &&
             base.count("oversub") == 0) {
    const auto levels = base.extract("levels");
    for (const std::string& entry : levels.mapped()) {
      parse_level(entry);  // a malformed entry fails as it would unsplit
      const std::vector<std::string> fields = level_fields(entry);
      base["tasks"].push_back(fields[fields.size() - 2]);
      base["oversub"].push_back(fields.back());
    }
  }
  for (const auto& [key, values] : overrides) base[key] = values;
  return base;
}

SpecMap SweepSpec::to_map() const {
  SpecMap map;
  const auto push_unique = [](std::vector<std::string>& values,
                              const std::string& value) {
    for (const std::string& existing : values) {
      if (existing == value) return;
    }
    values.push_back(value);
  };

  map["name"] = {name};
  for (const ScenarioKind kind : scenarios) {
    map["scenario"].push_back(std::string(to_string(kind)));
  }
  for (const SweepLevel& level : levels) {
    map["levels"].push_back(level.label + ":" + std::to_string(level.n_tasks) +
                            ":" + format_number(level.oversubscription));
  }
  map["mapper"] = mappers;
  for (const DropperVariant& variant : droppers) {
    push_unique(map["dropper"], variant.config.name());
    const DropperConfig::Kind kind = variant.config.kind;
    if (kind == DropperConfig::Kind::Heuristic ||
        kind == DropperConfig::Kind::Approx) {
      push_unique(map["eta"], std::to_string(variant.config.effective_depth));
      push_unique(map["beta"], format_number(variant.config.beta));
    } else if (kind == DropperConfig::Kind::Threshold) {
      push_unique(map["threshold"],
                  format_number(variant.config.base_threshold));
      map["adaptive"] = {variant.config.adaptive_threshold ? "1" : "0"};
    }
  }
  for (const double gamma : gammas) {
    map["gamma"].push_back(format_number(gamma));
  }
  for (const int capacity : queue_capacities) {
    map["capacity"].push_back(std::to_string(capacity));
  }
  for (const DropperEngagement engagement : engagements) {
    map["engagement"].push_back(std::string(engagement_name(engagement)));
  }
  for (const bool conditioned : conditioning) {
    map["conditioning"].push_back(conditioned ? "1" : "0");
  }
  bool any_failures = false;
  for (const FailureVariant& variant : failures) {
    any_failures = any_failures || variant.model.enabled;
  }
  if (any_failures || failures.size() > 1) {
    for (const FailureVariant& variant : failures) {
      map["mtbf"].push_back(
          variant.model.enabled
              ? format_number(variant.model.mean_time_between_failures)
              : "0");
      if (variant.model.enabled) {
        map["mttr"] = {format_number(variant.model.mean_time_to_repair)};
      }
    }
  }
  if (pattern == ArrivalPattern::Bursty) map["pattern"] = {"bursty"};
  if (approx.enabled) map["approx"] = {"1"};
  // Non-default approx tuning must render too, or a sharded spec would
  // re-expand at merge time with different engine parameters.
  const ApproxModel approx_defaults;
  if (approx.time_factor != approx_defaults.time_factor) {
    map["approx_time_factor"] = {format_number(approx.time_factor)};
  }
  if (approx.utility_weight != approx_defaults.utility_weight) {
    map["approx_utility_weight"] = {format_number(approx.utility_weight)};
  }
  map["trials"] = {std::to_string(trials)};
  map["seed"] = {std::to_string(seed)};
  map["exclude_head"] = {std::to_string(exclude_head)};
  map["exclude_tail"] = {std::to_string(exclude_tail)};
  map["candidate_window"] = {std::to_string(candidate_window)};
  return map;
}

std::vector<SweepCell> expand(const SweepSpec& spec) {
  std::vector<SweepCell> cells;
  cells.reserve(spec.cell_count());
  for (const ScenarioKind scenario : spec.scenarios) {
    for (const SweepLevel& level : spec.levels) {
      for (const std::string& mapper : spec.mappers) {
        for (const DropperVariant& dropper : spec.droppers) {
          for (const double gamma : spec.gammas) {
            for (const int capacity : spec.queue_capacities) {
              for (const DropperEngagement engagement : spec.engagements) {
                for (const bool conditioned : spec.conditioning) {
                  for (const FailureVariant& failure : spec.failures) {
                    SweepCell cell;
                    cell.point.scenario = std::string(to_string(scenario));
                    cell.point.level = level.label;
                    cell.point.mapper = mapper;
                    cell.point.dropper = dropper.label;
                    cell.point.gamma = format_number(gamma);
                    cell.point.capacity = std::to_string(capacity);
                    cell.point.engagement =
                        std::string(engagement_name(engagement));
                    cell.point.conditioning =
                        conditioned ? "conditioned" : "unconditioned";
                    cell.point.failures = failure.label;

                    ExperimentConfig& config = cell.config;
                    config.scenario = scenario;
                    config.mapper = mapper;
                    config.dropper = dropper.config;
                    config.engagement = engagement;
                    config.condition_running = conditioned;
                    config.workload.n_tasks = level.n_tasks;
                    config.workload.oversubscription = level.oversubscription;
                    config.workload.gamma = gamma;
                    config.workload.pattern = spec.pattern;
                    config.queue_capacity = capacity;
                    config.failures = failure.model;
                    config.approx = spec.approx;
                    config.trials = spec.trials;
                    config.seed = spec.seed;
                    config.exclude_head = spec.exclude_head;
                    config.exclude_tail = spec.exclude_tail;
                    config.candidate_window = spec.candidate_window;
                    cells.push_back(std::move(cell));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::vector<std::string> active_axes_of(const SweepSpec& spec) {
  std::vector<std::string> axes;
  if (spec.scenarios.size() > 1) axes.push_back("scenario");
  if (spec.levels.size() > 1) axes.push_back("level");
  if (spec.mappers.size() > 1) axes.push_back("mapper");
  if (spec.droppers.size() > 1) axes.push_back("dropper");
  if (spec.gammas.size() > 1) axes.push_back("gamma");
  if (spec.queue_capacities.size() > 1) axes.push_back("capacity");
  if (spec.engagements.size() > 1) axes.push_back("engagement");
  if (spec.conditioning.size() > 1) axes.push_back("conditioning");
  if (spec.failures.size() > 1) axes.push_back("failures");
  if (axes.empty()) axes = {"scenario", "mapper", "dropper"};
  return axes;
}

void SweepLeaseRange::validate() const {
  if (id < 0) {
    throw std::invalid_argument("lease id must be >= 0, got " +
                                std::to_string(id));
  }
  if (begin >= end) {
    throw std::invalid_argument(
        "lease range must be non-empty, got [" + std::to_string(begin) +
        ", " + std::to_string(end) + ")");
  }
  if (stride < 1) {
    throw std::invalid_argument("lease stride must be >= 1, got " +
                                std::to_string(stride));
  }
}

std::string lease_text(const SweepLeaseRange& lease) {
  std::string text = "lease " + std::to_string(lease.id) + " [" +
                     std::to_string(lease.begin) + ", " +
                     std::to_string(lease.end) + ")";
  if (lease.stride != 1) text += " stride " + std::to_string(lease.stride);
  return text;
}

SpecMap canonical_spec_map(const SweepSpec& spec) {
  // A lease report is only mergeable if re-expanding its spec header
  // reproduces this grid exactly — cell for cell, since the merge
  // attributes trial payloads by cell index. A map-level fixpoint check
  // is not enough: a hand-built dropper variant list can render to a
  // grid of the same keys and size whose re-expansion *orders* cells
  // differently. Demand identity up front instead of corrupting the
  // merge silently.
  SpecMap map = spec.to_map();
  const std::vector<SweepCell> cells = expand(spec);
  const SweepSpec reparsed = SweepSpec::from_map(map);
  const std::vector<SweepCell> recells =
      reparsed.to_map() == map ? expand(reparsed) : std::vector<SweepCell>{};
  bool canonical = recells.size() == cells.size();
  for (std::size_t c = 0; canonical && c < cells.size(); ++c) {
    canonical = cells[c].point == recells[c].point &&
                cells[c].config == recells[c].config;
  }
  if (!canonical) {
    throw std::invalid_argument(
        "sharded sweeps need a canonical spec: from_map(to_map()) does "
        "not reproduce this grid cell for cell (hand-built dropper "
        "variant lists that do not form an ordered grid re-expand "
        "differently)");
  }
  return map;
}

SweepReport run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  spec.validate();

  SweepReport report;
  report.name = spec.name;
  report.active_axes = active_axes_of(spec);
  const std::vector<SweepCell> cells = expand(spec);
  if (options.lease) {
    options.lease->validate();
    const std::size_t units =
        cells.size() * static_cast<std::size_t>(spec.trials);
    if (options.lease->end > units) {
      throw std::invalid_argument(lease_text(*options.lease) +
                                  " exceeds the grid's " +
                                  std::to_string(units) + " units");
    }
    report.spec_map = canonical_spec_map(spec);
    report.lease = options.lease;
  }
  const auto owns = [&](std::size_t unit) {
    return !options.lease || lease_owns(*options.lease, unit);
  };

  report.cells.resize(cells.size());

  ScenarioCache local_cache;
  ScenarioCache& cache = options.cache != nullptr ? *options.cache : local_cache;

  // Per-cell execution state. Scenarios are prefetched sequentially so the
  // grid shares each (kind, seed) build instead of racing on it. `owned`
  // lists the lease's trial indices for the cell (all of them without a
  // lease); trials are keyed by that original index so lease results
  // reunite into the unpartitioned trial order.
  struct CellState {
    std::shared_ptr<const Scenario> scenario;
    std::unique_ptr<CostModel> cost_model;
    std::vector<int> owned;
    std::vector<TrialMetrics> trials;
    std::atomic<int> remaining{0};
  };
  std::vector<CellState> states(cells.size());
  std::size_t touched_cells = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (int t = 0; t < spec.trials; ++t) {
      if (owns(sweep_unit(c, t, spec.trials))) {
        states[c].owned.push_back(t);
      }
    }
    if (states[c].owned.empty()) {
      report.cells[c].point = cells[c].point;
      report.cells[c].config = cells[c].config;
      continue;
    }
    ++touched_cells;
    states[c].scenario = cache.get(cells[c].config.scenario,
                                   cells[c].config.seed);
    states[c].cost_model = std::make_unique<CostModel>(
        states[c].scenario->profile.cost_per_hour);
    states[c].trials.resize(states[c].owned.size());
    states[c].remaining.store(static_cast<int>(states[c].owned.size()),
                              std::memory_order_relaxed);
    report.cells[c].point = cells[c].point;
    report.cells[c].config = cells[c].config;
  }

  std::mutex progress_mutex;
  std::size_t done = 0;

  // First-exception capture: a throwing trial (bad dropper parameters, a
  // model-layer invalid_argument) must not std::terminate the pool. Later
  // units are skipped once a unit has failed; the report is abandoned and
  // the exception rethrown after the pool drains.
  JobErrorCollector errors;

  ThreadPool pool(options.threads);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t o = 0; o < states[c].owned.size(); ++o) {
      pool.submit([&, c, o] {
        errors.run([&] {
          CellState& state = states[c];
          const int t = state.owned[o];
          state.trials[o] =
              run_trial(report.cells[c].config, *state.scenario,
                        *state.cost_model, static_cast<std::size_t>(t));
          if (state.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Last owned trial of this cell: reduce and stream it.
            report.cells[c].result = summarize_trials(std::move(state.trials));
            report.cells[c].trial_indices = state.owned;
            std::lock_guard lock(progress_mutex);
            ++done;
            if (options.on_cell) {
              options.on_cell(report.cells[c], done, touched_cells);
            }
          }
        });
      });
    }
  }
  pool.wait_idle();
  errors.rethrow_if_failed();
  return report;
}

const std::string& axis_label(const SweepPoint& point,
                              const std::string& axis) {
  if (axis == "scenario") return point.scenario;
  if (axis == "level") return point.level;
  if (axis == "mapper") return point.mapper;
  if (axis == "dropper") return point.dropper;
  if (axis == "gamma") return point.gamma;
  if (axis == "capacity") return point.capacity;
  if (axis == "engagement") return point.engagement;
  if (axis == "conditioning") return point.conditioning;
  if (axis == "failures") return point.failures;
  throw std::invalid_argument("unknown sweep axis: " + axis);
}

}  // namespace taskdrop
