/* taskdrop_cli — run one experiment configuration, a declarative sweep, or
   the online admission service.

     taskdrop_cli [run] --scenario=spec_hc --mapper=PAM --dropper=heuristic \
                  --tasks=3000 --oversub=3.0 --trials=8 [--eta=2] [--beta=1] \
                  [--threshold=0.5] [--gamma=4] [--capacity=6] [--seed=42] \
                  [--engagement=on-deadline-miss] [--mtbf=60000 --mttr=3000] \
                  [--spec=one_cell.sweep] [--trace-out=trace.csv] [--csv]

     taskdrop_cli sweep --spec=specs/fig8.sweep [--trials=2] [--csv|--json]
     taskdrop_cli sweep --scenario=spec_hc --mapper=PAM,MM \
                  --dropper=heuristic,reactive --tasks=2000,3000 \
                  --oversub=2.5,3.0 --trials=8 [--out=report.csv] [--progress]

     taskdrop_cli sweep --spec=specs/grid.sweep --shard=0/3 --json \
                  --out=shard_0.json
     taskdrop_cli sweep --spec=specs/grid.sweep --elastic \
                  --lease-dir=leases [--lease-timeout=30000]
     taskdrop_cli merge shard_0.json shard_1.json shard_2.json \
                  [--allow-reexecuted] [--format=table|csv|json] \
                  [--out=merged.json]

     taskdrop_cli --list-scenarios --list-mappers --list-droppers

   One configuration path: `run`, `sweep` and `serve` read --spec, if
   given, let each inline flag naming a spec key (sweep_spec_keys()) override
   that key, and build the spec with SweepSpec::from_map. Any other flag
   must be one of the command's own options; a token that is not
   --key[=value] is an error. `run` and `serve` take one cell, not a grid.

   `sweep` expands the cross product of every axis (see the specs/ dir and
   the README's sweep section). All names resolve through the registries,
   so unknown ones list the available set.

   Both ways of splitting a sweep across processes run leases of the flat
   (cell x trial) unit grid (SweepLeaseRange in src/exp/sweep.hpp), and
   `merge` reunites any complete set of lease documents into the report
   the unpartitioned sweep would have produced, bit for bit.

   `--shard=I/N` runs the strided lease that owns every unit u with
   u mod N == I (round-robin, so expensive cells spread over the N shards)
   and emits its mergeable JSON document (tools/sweep_shards.sh fans out N
   shards and merges them locally).

   `--elastic` hands out contiguous leases through --lease-dir instead
   (see src/exp/lease.hpp and the README's "Elastic sweeps" section): any
   number of workers share the directory, claim leases, renew heartbeats
   while computing, and steal leases whose owner died (heartbeat older
   than --lease-timeout ms). Results land as <dir>/lease_*.json; `merge
   --allow-reexecuted` over them tolerates re-executed (reclaimed) units
   only when their payloads are bitwise identical. Re-launching against a
   partial directory resumes: landed leases are skipped
   (tools/sweep_elastic_kill_test.sh proves both).

     taskdrop_cli serve --scenario=spec_hc --mapper=PAM --dropper=heuristic \
                  [--capacity=6] [--seed=42] [--engagement=on-deadline-miss] \
                  [--conditioning=1] [--approx=1] [--spec=one_cell.sweep] \
                  [--shed-watermark=N] [--shed-machine-backlog=N] \
                  [--on-error=abort|skip] [--restore=snap.txt] \
                  [--snapshot-out=snap.txt] [--snapshot-every=N] \
                  [--stream=events.stream] \
                  [--out=decisions.log] [--stats-out=stats.txt]

   `serve` runs the online admission service (src/online) as a daemon: it
   reads a line-delimited event stream (--stream, default stdin), feeds
   each event into the OnlineScheduler callback API, confirms every Start
   recommendation immediately, and emits one decision record per decision
   to --out (default stdout). Its scheduler comes from the cell as the
   simulator's does (engine_config().online_config()); the spec keys that
   only shape generated trials are rejected. The stream protocol (blank
   lines and #-comments are skipped; timestamps must be non-decreasing):

     arrive <t> <type> <deadline>   a task of PET type <type> arrives
     finish <t> <machine>           the running task on <machine> completed
     down <t> <machine>             <machine> failed
     up <t> <machine>               <machine> recovered
     advance <t>                    time passed with no event

   Robustness knobs (all off by default so the decision log stays
   byte-identical to earlier builds):

     --shed-watermark=N          shed arrivals once the aggregate pending
                                 backlog reaches N (ShedOverload records)
     --shed-machine-backlog=N    shed once every up machine has >= N
                                 pending tasks
     --on-error=abort|skip       abort (default): first bad line ends the
                                 run, exit 1 — deterministic for goldens.
                                 skip: emit a structured
                                 `error t=.. line=.. msg=".."` record to
                                 the decision log and keep serving; bad
                                 lines never mutate scheduler state.
     --snapshot-out=F            write a versioned text snapshot of full
                                 scheduler state at clean shutdown (the
                                 write is atomic: tmp + rename, so a kill
                                 mid-write never leaves a torn file)
     --snapshot-every=N          additionally checkpoint to --snapshot-out
                                 every N processed events (atomic, decision
                                 log flushed first); a daemon killed
                                 mid-stream resumes from the last
                                 checkpoint via --restore
     --restore=F                 restore a snapshot before reading the
                                 stream (another spec key or watermark
                                 value exits 1 naming it). A daemon
                                 killed mid-stream and restored continues
                                 with a byte-identical decision stream.

   On shutdown (EOF) a summary — events, decisions, drop/shed rates,
   decisions/sec and p50/p99 per-event decision latency, kernel time only —
   goes to --stats-out (default stderr), so the decision log stays
   byte-deterministic for golden diffing (tools/serve_smoke.sh). The
   summary is emitted on *every* exit path, error teardown included; the
   per-event latency sample is a bounded deterministic reservoir (exact up
   to 8192 events, evenly strided subsample beyond), so a long-running
   daemon's memory stays bounded. */
#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/lease.hpp"
#include "exp/sweep.hpp"
#include "metrics/report.hpp"
#include "online/snapshot.hpp"
#include "online/stream_event.hpp"
#include "util/atomic_file.hpp"
#include "util/flags.hpp"
#include "util/spec_parser.hpp"
#include "util/stats.hpp"
#include "workload/scenario_registry.hpp"
#include "workload/trace_io.hpp"

using namespace taskdrop;

namespace {

/// Prints the registry enumerations; returns true when any was requested.
bool handle_list_flags(const Flags& flags) {
  bool handled = false;
  const auto print_set = [&](const char* title,
                             const std::vector<std::string>& names) {
    std::cout << title << ":";
    for (const std::string& name : names) std::cout << ' ' << name;
    std::cout << '\n';
    handled = true;
  };
  if (flags.get_bool("list-scenarios")) {
    print_set("scenarios", scenario_names());
  }
  if (flags.get_bool("list-mappers")) print_set("mappers", mapper_names());
  if (flags.get_bool("list-droppers")) print_set("droppers", dropper_names());
  return handled;
}

/// The configuration path of `run`, `sweep` and `serve`: the --spec file,
/// if given, with every inline flag that names a spec key overriding that
/// key (comma lists as in spec files; overlay_spec_map). Any other flag
/// must be --spec or one of the command's own `options`.
SpecMap resolve_spec_map(const std::string& command, const Flags& flags,
                         const std::vector<std::string>& options) {
  const std::vector<std::string>& spec_keys = sweep_spec_keys();
  const auto contains = [](const std::vector<std::string>& names,
                           const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  SpecMap overrides;
  for (const std::string& key : flags.keys()) {
    if (contains(spec_keys, key)) {
      overrides[key] = split_spec_list(flags.get(key, ""));
    } else if (key != "spec" && !contains(options, key)) {
      throw std::invalid_argument(
          "unknown " + command + " flag: --" + key + " (spec keys: " +
          join_spec_list(spec_keys) + "; options: spec, " +
          join_spec_list(options) + ")");
    }
  }
  // Seeds feed Rng::derive as unsigned 64-bit values: a negative --seed
  // gets this message rather than the spec layer's unsigned-parse error.
  if (const std::int64_t seed = flags.get_int("seed", 0); seed < 0) {
    throw std::invalid_argument("--seed must be non-negative, got " +
                                std::to_string(seed));
  }
  SpecMap map;
  if (flags.has("spec")) map = parse_spec_file(flags.get("spec", ""));
  return overlay_spec_map(std::move(map), overrides);
}

/// `run` and `serve` execute one configuration, not a grid.
ExperimentConfig single_config(const std::string& command,
                               const SweepSpec& spec) {
  if (spec.cell_count() != 1) {
    throw std::invalid_argument(
        command + " takes one configuration, but the spec expands to " +
        std::to_string(spec.cell_count()) + " cells; use sweep for a grid");
  }
  return expand(spec).front().config;
}

int run_single(const Flags& flags) {
  const ExperimentConfig config = single_config(
      "run", SweepSpec::from_map(
                 resolve_spec_map("run", flags, {"trace-out", "csv"})));

  // Optional trace round-trip: archive the first trial's trace, or run
  // every trial on an externally supplied one.
  const Scenario scenario = build_scenario(config);
  if (flags.has("trace-out")) {
    WorkloadConfig workload = config.workload;
    workload.seed = Rng::derive(config.seed, 0)();
    write_trace_csv_file(
        flags.get("trace-out", ""),
        generate_trace(scenario.pet, scenario.machine_count(), workload));
    std::cout << "wrote trial-0 trace to " << flags.get("trace-out", "")
              << "\n";
  }

  const ExperimentResult result = run_experiment(config, &scenario);

  Table table({"metric", "mean", "ci95"});
  add_summary_row(table, "robustness (%)", result.robustness);
  add_summary_row(table, "utility (%)", result.utility);
  add_summary_row(table, "cost/robustness ($)", result.normalized_cost, 4);
  add_summary_row(table, "reactive share of queue drops (%)",
                  result.reactive_share);
  std::cout << "scenario=" << to_string(config.scenario)
            << " mapper=" << config.mapper
            << " dropper=" << config.dropper.name()
            << " tasks=" << config.workload.n_tasks
            << " oversub=" << config.workload.oversubscription
            << " trials=" << config.trials << "\n\n";
  if (flags.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}

/// Renders through `write` to --out (atomically: a killed process never
/// leaves a truncated report for a later merge to half-read) or stdout.
int emit_to_out(const Flags& flags,
                const std::function<void(std::ostream&)>& write) {
  if (!flags.has("out")) {
    write(std::cout);
    return 0;
  }
  std::ostringstream buffer;
  write(buffer);
  atomic_write_file(flags.get("out", ""), buffer.str());
  std::cout << "wrote " << flags.get("out", "") << "\n";
  return 0;
}

int run_sweep_command(const Flags& flags) {
  const SweepSpec spec = SweepSpec::from_map(resolve_spec_map(
      "sweep", flags,
      {"csv", "json", "out", "progress", "threads", "shard", "elastic",
       "lease-dir", "lease-timeout"}));

  const std::int64_t threads = flags.get_int("threads", 0);
  if (threads < 0 || threads > 4096) {
    throw std::invalid_argument("--threads must be in [0, 4096] (0 = "
                                "hardware concurrency), got " +
                                std::to_string(threads));
  }

  if (flags.get_bool("elastic")) {
    if (flags.has("shard")) {
      throw std::invalid_argument(
          "--elastic and --shard are mutually exclusive: leases replace "
          "the static partition");
    }
    if (flags.has("out") || flags.get_bool("json") || flags.get_bool("csv")) {
      throw std::invalid_argument(
          "--elastic writes mergeable lease documents into --lease-dir; "
          "render with `taskdrop_cli merge <dir>/lease_*.json "
          "--allow-reexecuted` instead of --json/--csv/--out");
    }
    ElasticSweepOptions elastic;
    elastic.lease_dir = flags.get("lease-dir", "");
    if (elastic.lease_dir.empty()) {
      throw std::invalid_argument("--elastic requires --lease-dir");
    }
    const std::int64_t timeout = flags.get_int("lease-timeout", 30000);
    if (timeout < 1) {
      throw std::invalid_argument(
          "--lease-timeout must be a positive millisecond count, got " +
          std::to_string(timeout));
    }
    elastic.lease_timeout_ms = timeout;
    elastic.threads = static_cast<std::size_t>(threads);
    if (flags.get_bool("progress")) {
      elastic.on_event = [](const std::string& line) {
        std::cerr << "elastic: " << line << "\n";
      };
    }
    const ElasticSweepStats stats = run_sweep_elastic(spec, elastic);
    std::cout << "elastic sweep: " << spec.name
              << "  leases=" << stats.leases_total
              << " run=" << stats.leases_run
              << " stolen=" << stats.leases_stolen
              << " skipped=" << stats.leases_skipped
              << " dir=" << elastic.lease_dir << "\n";
    return 0;
  }

  SweepOptions options;
  options.threads = static_cast<std::size_t>(threads);
  if (flags.has("shard")) {
    // Shard I of N is the strided lease {I, I, units, N}: it owns every
    // unit u with u mod N == I.
    const std::string text = flags.get("shard", "");
    const auto slash = text.find('/');
    if (slash == std::string::npos) {
      throw std::invalid_argument(
          "--shard expects index/count (e.g. --shard=0/3), got '" + text +
          "'");
    }
    const int index = parse_spec_int("shard index", text.substr(0, slash));
    const int count = parse_spec_int("shard count", text.substr(slash + 1));
    if (count < 1) {
      throw std::invalid_argument("shard count must be >= 1, got " +
                                  std::to_string(count));
    }
    if (index < 0 || index >= count) {
      throw std::invalid_argument("shard index must be in [0, " +
                                  std::to_string(count) + "), got " +
                                  std::to_string(index));
    }
    // Table/CSV of a shard would show partial means and zero rows for
    // untouched cells with nothing marking them as such — the only
    // faithful rendering of a shard is the mergeable JSON document.
    if (!flags.get_bool("json")) {
      throw std::invalid_argument(
          "--shard requires --json: a shard report is a mergeable JSON "
          "document, not a standalone summary (merge shards first, then "
          "render)");
    }
    const std::size_t units =
        spec.cell_count() * static_cast<std::size_t>(spec.trials);
    if (static_cast<std::size_t>(index) >= units) {
      throw std::invalid_argument(
          "--shard=" + text + " owns no unit: the grid has " +
          std::to_string(units) + " units (cells x trials); use at most " +
          std::to_string(units) + " shards");
    }
    options.lease = SweepLeaseRange{index, static_cast<std::size_t>(index),
                                    units, static_cast<std::size_t>(count)};
  }
  if (flags.get_bool("progress")) {
    options.on_cell = [](const SweepCellResult& cell, std::size_t done,
                         std::size_t total) {
      std::cerr << "[" << done << "/" << total << "] "
                << cell.point.scenario << " " << cell.point.level << " "
                << cell.point.mapper << " " << cell.point.dropper
                << " robustness=" << format_fixed(
                       cell.result.robustness.mean, 2)
                << "\n";
    };
  }
  const SweepReport report = run_sweep(spec, options);

  return emit_to_out(flags, [&](std::ostream& out) {
    if (flags.get_bool("json")) {
      write_sweep_json(out, report);
    } else if (flags.get_bool("csv")) {
      write_sweep_csv(out, report);
    } else {
      out << "sweep: " << report.name << "  cells=" << report.cells.size()
          << " trials=" << spec.trials << " seed=" << spec.seed << "\n\n";
      sweep_table(report).print(out);
    }
  });
}

int run_merge_command(const Flags& flags,
                      const std::vector<std::string>& files) {
  static const std::vector<std::string> kMergeOptions = {
      "format", "out", "allow-reexecuted"};
  for (const std::string& key : flags.keys()) {
    if (std::find(kMergeOptions.begin(), kMergeOptions.end(), key) ==
        kMergeOptions.end()) {
      throw std::invalid_argument("unknown merge flag: --" + key +
                                  " (options: " +
                                  join_spec_list(kMergeOptions) + ")");
    }
  }
  if (files.empty()) {
    throw std::invalid_argument(
        "merge: no shard files given (usage: taskdrop_cli merge "
        "shard_0.json shard_1.json ... [--format=table|csv|json] "
        "[--out=merged.json])");
  }
  const std::string format = flags.get("format", "table");
  if (format != "table" && format != "csv" && format != "json") {
    throw std::invalid_argument("unknown merge format: " + format +
                                " (available: table, csv, json)");
  }

  std::vector<SweepShardReport> shards;
  shards.reserve(files.size());
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    try {
      shards.push_back(read_sweep_shard_json(in));
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument(path + ": " + error.what());
    }
  }
  MergeOptions merge_options;
  merge_options.allow_reexecuted = flags.get_bool("allow-reexecuted");
  const SweepReport report = merge_sweep_reports(shards, merge_options);

  return emit_to_out(flags, [&](std::ostream& out) {
    if (format == "json") {
      write_sweep_json(out, report);
    } else if (format == "csv") {
      write_sweep_csv(out, report);
    } else {
      out << "merged sweep: " << report.name << "  cells="
          << report.cells.size() << " shards=" << shards.size() << "\n\n";
      sweep_table(report).print(out);
    }
  });
}

/// Validates a non-negative int-ranged serve flag (shed watermarks).
int nonnegative_int_flag(const Flags& flags, const char* name) {
  const long long value = flags.get_int(name, 0);
  if (value < 0 || value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("--" + std::string(name) +
                                " must be a non-negative int, got " +
                                std::to_string(value));
  }
  return static_cast<int>(value);
}

int run_serve_command(const Flags& flags) {
  const SpecMap map = resolve_spec_map(
      "serve", flags,
      {"stream", "out", "stats-out", "shed-watermark", "shed-machine-backlog",
       "on-error", "snapshot-out", "snapshot-every", "restore"});
  // The event stream brings the tasks: keys that only shape generated
  // trials would configure nothing.
  static const std::vector<std::string> kTrialKeys = {
      "levels", "tasks",  "oversub", "gamma",        "pattern",
      "mtbf",   "mttr",   "trials",  "exclude_head", "exclude_tail"};
  for (const std::string& key : kTrialKeys) {
    if (map.count(key) != 0) {
      throw std::invalid_argument(
          "serve does not take sweep key " + key +
          ": it only shapes generated trials (trial-only keys: " +
          join_spec_list(kTrialKeys) + ")");
    }
  }
  const SweepSpec spec = SweepSpec::from_map(map);
  const ExperimentConfig cell = single_config("serve", spec);

  const std::string on_error = flags.get("on-error", "abort");
  if (on_error != "abort" && on_error != "skip") {
    throw std::invalid_argument("--on-error must be abort or skip, got '" +
                                on_error + "'");
  }
  const bool skip_bad_lines = on_error == "skip";
  const std::int64_t snapshot_every = flags.get_int("snapshot-every", 0);
  if (snapshot_every < 0) {
    throw std::invalid_argument(
        "--snapshot-every must be a non-negative event count (0 disables "
        "periodic checkpoints), got " + std::to_string(snapshot_every));
  }
  if (snapshot_every > 0 && !flags.has("snapshot-out")) {
    throw std::invalid_argument(
        "--snapshot-every needs --snapshot-out to name the checkpoint file");
  }

  const Scenario scenario = build_scenario(cell);
  auto mapper = make_mapper(cell.mapper, cell.candidate_window);
  auto dropper = make_dropper(cell.dropper);
  OnlineConfig config = cell.engine_config(0).online_config();
  config.shed.total_pending_watermark =
      nonnegative_int_flag(flags, "shed-watermark");
  config.shed.machine_backlog_watermark =
      nonnegative_int_flag(flags, "shed-machine-backlog");
  OnlineScheduler scheduler(scenario.pet, scenario.profile.machine_types,
                            *mapper, *dropper, config);
  // What a snapshot carries and a restore must match: the cell's spec map
  // without its name and the trial-only keys, plus the shed watermarks.
  SpecMap echo = spec.to_map();
  echo.erase("name");
  for (const std::string& key : kTrialKeys) echo.erase(key);
  echo["shed-watermark"] = {
      std::to_string(config.shed.total_pending_watermark)};
  echo["shed-machine-backlog"] = {
      std::to_string(config.shed.machine_backlog_watermark)};

  // Resurrect a snapshotted daemon before touching the stream: the restored
  // scheduler continues exactly where the snapshotted one stopped, so
  // feeding it the remainder of the stream reproduces the uninterrupted
  // run's decision log byte for byte (tools/serve_resume_smoke.sh).
  if (flags.has("restore")) {
    std::ifstream snapshot_in(flags.get("restore", ""));
    if (!snapshot_in) {
      throw std::runtime_error("cannot read " + flags.get("restore", ""));
    }
    scheduler.restore(snapshot_in, echo);
  }

  std::ifstream stream_file;
  std::istream* events = &std::cin;
  if (flags.has("stream") && flags.get("stream", "") != "-") {
    stream_file.open(flags.get("stream", ""));
    if (!stream_file) {
      throw std::runtime_error("cannot read " + flags.get("stream", ""));
    }
    events = &stream_file;
  }
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (flags.has("out")) {
    out_file.open(flags.get("out", ""));
    if (!out_file) {
      throw std::runtime_error("cannot write " + flags.get("out", ""));
    }
    out = &out_file;
  }
  std::ofstream stats_file;
  std::ostream* stats = &std::cerr;
  if (flags.has("stats-out")) {
    stats_file.open(flags.get("stats-out", ""));
    if (!stats_file) {
      throw std::runtime_error("cannot write " + flags.get("stats-out", ""));
    }
    stats = &stats_file;
  }

  using Clock = std::chrono::steady_clock;
  // One latency sample per stream event — bounded: a long-running daemon
  // must not grow a vector by one double per event forever.
  LatencyReservoir latency_ns(8192);
  long long events_seen = 0;
  long long decisions_out = 0;
  long long arrivals = 0;
  long long drops_proactive = 0, drops_reactive = 0, drops_expired = 0;
  long long shed = 0;
  long long lines_skipped = 0;

  std::string line;
  long long line_no = 0;
  // One event's decision records, handed to the log in one write.
  std::string records;
  // One bad stream line must not cost the operator the whole run's stats:
  // every exit path below — clean EOF and error teardown alike — funnels
  // through the shutdown summary at the end of this function.
  const auto process_stream = [&]() {
    while (std::getline(*events, line)) {
      ++line_no;
      if (is_blank_or_comment(line)) continue;
      try {
        const StreamEvent event = parse_stream_event(line);
        // The scheduler validates every event and rejects it before any
        // state changes, so under --on-error=skip a rejected line leaves no
        // trace. Time the decision kernels only (callback + immediate start
        // confirmations); log I/O happens outside the clock so the latency
        // percentiles describe the admission service, not the disk.
        const Clock::time_point begin = Clock::now();
        const std::vector<Decision>& decisions =
            apply_stream_event(scheduler, event);
        const Clock::time_point end = Clock::now();

        if (event.kind == StreamEvent::Kind::Arrive) ++arrivals;
        ++events_seen;
        latency_ns.add(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                .count()));
        records.clear();
        for (const Decision& decision : decisions) {
          ++decisions_out;
          switch (decision.kind) {
            case DecisionKind::DropProactive: ++drops_proactive; break;
            case DecisionKind::DropReactive: ++drops_reactive; break;
            case DecisionKind::ExpireUnmapped: ++drops_expired; break;
            case DecisionKind::ShedOverload: ++shed; break;
            default: break;
          }
          char record[kMaxDecisionChars];
          records.append(record, render_decision(record, decision));
          records.push_back('\n');
        }
        if (!records.empty()) {
          out->write(records.data(),
                     static_cast<std::streamsize>(records.size()));
        }
        // Periodic crash checkpoint: the decision log is flushed first so
        // the snapshot never claims events whose decisions have not hit the
        // log yet, and the write is atomic so a kill mid-checkpoint leaves
        // the previous snapshot intact.
        if (snapshot_every > 0 && events_seen % snapshot_every == 0) {
          out->flush();
          atomic_write_file(flags.get("snapshot-out", ""),
                            snapshot_to_string(scheduler, echo));
        }
      } catch (const std::exception& error) {
        if (!skip_bad_lines) {
          throw std::runtime_error("stream line " + std::to_string(line_no) +
                                   ": " + error.what());
        }
        // Structured recovery record in the decision log itself, so a
        // consumer tailing the log sees the gap in place.
        ++lines_skipped;
        *out << "error t=" << scheduler.now() << " line=" << line_no
             << " msg=\"" << error.what() << "\"\n";
      }
    }
  };
  std::exception_ptr teardown_error;
  try {
    process_stream();
  } catch (...) {
    teardown_error = std::current_exception();
  }
  out->flush();

  // Clean shutdown only: a snapshot taken mid-error would freeze a clock
  // the operator does not know the position of.
  if (!teardown_error && flags.has("snapshot-out")) {
    atomic_write_file(flags.get("snapshot-out", ""),
                      snapshot_to_string(scheduler, echo));
  }

  const double kernel_ns = latency_ns.total();
  const long long drops = drops_proactive + drops_reactive + drops_expired;
  // Sort the kept subsample once, extract every percentile from it.
  std::vector<double> latency_sorted = latency_ns.samples();
  std::sort(latency_sorted.begin(), latency_sorted.end());
  *stats << "serve: scenario=" << to_string(cell.scenario)
         << " mapper=" << cell.mapper
         << " dropper=" << cell.dropper.name()
         << " machines=" << scenario.profile.machine_types.size()
         << " capacity=" << config.queue_capacity << "\n"
         << "events=" << events_seen << " decisions=" << decisions_out
         << " arrivals=" << arrivals << " drops=" << drops
         << " (proactive=" << drops_proactive
         << " reactive=" << drops_reactive << " expired=" << drops_expired
         << ")\n"
         << "drop_rate=" << format_fixed(
                arrivals > 0 ? 100.0 * static_cast<double>(drops) /
                                   static_cast<double>(arrivals)
                             : 0.0, 2)
         << "% of arrivals\n";
  if (config.shed.active()) {
    *stats << "shed=" << shed << " (shed_rate=" << format_fixed(
                  arrivals > 0 ? 100.0 * static_cast<double>(shed) /
                                     static_cast<double>(arrivals)
                               : 0.0, 2)
           << "% of arrivals, watermark=" << config.shed.total_pending_watermark
           << " machine_backlog=" << config.shed.machine_backlog_watermark
           << ")\n";
  }
  if (skip_bad_lines) {
    *stats << "lines_skipped=" << lines_skipped << "\n";
  }
  *stats << "kernel_time_ms=" << format_fixed(kernel_ns / 1e6, 3)
         << " decisions_per_sec=" << format_fixed(
                kernel_ns > 0.0
                    ? static_cast<double>(decisions_out) * 1e9 / kernel_ns
                    : 0.0, 0)
         << "\n"
         << "event_latency_us: p50=" << format_fixed(
                percentile_sorted(latency_sorted, 50.0) / 1e3, 3)
         << " p99=" << format_fixed(
                percentile_sorted(latency_sorted, 99.0) / 1e3, 3)
         << " max=" << format_fixed(latency_ns.max() / 1e3, 3);
  if (latency_ns.stride() > 1) {
    // Percentiles come from the strided subsample past reservoir capacity;
    // max is always exact.
    *stats << " (percentiles over 1/" << latency_ns.stride()
           << " strided sample)";
  }
  *stats << "\n";
  stats->flush();
  // Error teardown: the summary above still made it out; now surface the
  // original failure (exit 1 via main's handler).
  if (teardown_error) std::rethrow_exception(teardown_error);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    if (handle_list_flags(flags)) return 0;
    // Subcommand word (bare, non-flag argv[1]); absent means `run` so
    // pre-subcommand invocations keep working.
    const bool named = argc > 1 && argv[1][0] != '-';
    const std::string command = named ? argv[1] : "run";
    if (command == "merge") {
      // Shard files are the bare (non-flag) tokens after the subcommand; a
      // single-dash token is neither a file nor a flag Flags would read.
      std::vector<std::string> files;
      for (int i = 2; i < argc; ++i) {
        if (argv[i][0] != '-') {
          files.emplace_back(argv[i]);
        } else if (argv[i][1] != '-') {
          throw std::invalid_argument(
              std::string("merge: unexpected argument '") + argv[i] +
              "' (flags are --key[=value])");
        }
      }
      return run_merge_command(flags, files);
    }
    if (command != "run" && command != "sweep" && command != "serve") {
      throw std::invalid_argument("unknown command: " + command +
                                  " (available: run, sweep, merge, serve)");
    }
    // Flags reads only --key[=value] tokens; any other would be dropped
    // silently (a spec path without --spec=, a single-dash flag).
    for (int i = named ? 2 : 1; i < argc; ++i) {
      if (std::string_view(argv[i]).starts_with("--")) continue;
      throw std::invalid_argument(
          command + ": unexpected argument '" + argv[i] +
          "' (flags are --key[=value]; a spec file is --spec=FILE)");
    }
    if (command == "run") return run_single(flags);
    if (command == "sweep") return run_sweep_command(flags);
    return run_serve_command(flags);
  } catch (const std::exception& error) {
    std::cerr << "taskdrop_cli: " << error.what() << "\n";
    return 1;
  }
}
