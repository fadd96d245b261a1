#pragma once

#include <iosfwd>
#include <string>

#include "exp/sweep.hpp"
#include "metrics/aggregate.hpp"
#include "util/table.hpp"

namespace taskdrop {

/// Formats a Summary as "mean ± ci" with the given precision.
std::string format_summary(const Summary& summary, int precision = 2);

/// Appends a labelled summary row (label, mean, ci) to a table that was
/// created with matching headers.
void add_summary_row(Table& table, const std::string& label,
                     const Summary& summary, int precision = 2);

// --- Consolidated sweep output. One long-format row per cell: the active
// axes identify it, then the standard summary metrics.

/// Headers: active axes + robustness/ci95/utility/cost/reactive-share.
Table sweep_table(const SweepReport& report);

/// sweep_table in RFC-4180-ish CSV.
void write_sweep_csv(std::ostream& os, const SweepReport& report);

/// Machine-readable dump (schema "taskdrop-sweep/v2"): every cell's full
/// axis point, the resolved config, and mean/ci95 of each summary metric
/// and of each integer per-trial counter (`dropper_invocations`,
/// `lost_to_failure`, `approx_on_time`, ...).
/// All numbers are emitted with the shortest round-trippable rendering;
/// non-finite summary values become null so the document stays valid JSON.
///
/// When `report.lease` is engaged (a run_sweep lease: an elastic range or
/// a `--shard`), the document grows the `lease` header (its `stride` only
/// when not 1), the canonical `spec` map, and per-trial metric payloads
/// per touched cell in place of the summary block — the mergeable form
/// read_sweep_shard_json consumes. Non-finite trial values are kept as the
/// strings "inf"/"-inf"/"nan" so they survive the round trip exactly.
void write_sweep_json(std::ostream& os, const SweepReport& report);

// --- Merging. A leased run (a `--shard` or an elastic range) emits one
// mergeable JSON document per lease; merging re-expands the shared spec
// header and reunites the per-trial payloads into a report
// bitwise-identical to the unpartitioned run_sweep (trial RNG is seeded
// per (cell, trial), so the partition cannot drift).

/// One parsed mergeable document: the header identifying its sweep and
/// the lease it ran, plus every (cell, trial) payload it carries.
struct SweepShardReport {
  std::string name;
  SweepLeaseRange lease;
  /// Canonical SweepSpec::to_map rendering shared by every document.
  SpecMap spec;
  struct TrialRecord {
    std::size_t cell = 0;
    int trial = 0;
    TrialMetrics metrics;
  };
  std::vector<TrialRecord> trials;
};

/// Parses a mergeable document written by write_sweep_json for a leased
/// run. Throws std::invalid_argument on malformed JSON (the error names
/// the line and byte offset — a truncated file from a killed worker is
/// rejected loudly, never half-read), an unsupported schema, an
/// out-of-range integer (a trial index or stride that would wrap when
/// narrowed), or a document without a lease header (plain sweep dumps
/// carry only summaries and cannot be merged).
SweepShardReport read_sweep_shard_json(std::istream& is);

struct MergeOptions {
  /// Tolerate the same (cell, trial) payload arriving from more than one
  /// document when the payloads are bitwise identical — the signature of a
  /// reclaimed lease whose original owner also finished (both executed the
  /// same deterministic unit). Divergent duplicate payloads are always a
  /// loud error: they mean the documents came from different code, specs,
  /// or corrupted files. Off by default, where any duplicate is an error.
  bool allow_reexecuted = false;
};

/// Reunites lease reports into the unpartitioned SweepReport: validates
/// the headers against the canonical spec rendering (equal specs and
/// names; order does not matter), re-expands the spec, places every trial
/// payload by its (cell, trial) key after checking that the lease carrying
/// it owns it, then re-runs summarize_trials per completed cell. Throws
/// std::invalid_argument when any unit is missing, duplicated (see
/// MergeOptions::allow_reexecuted), or misplaced — so a missing,
/// duplicated or mixed-count set of shards fails unit by unit.
SweepReport merge_sweep_reports(const std::vector<SweepShardReport>& shards,
                                const MergeOptions& options = {});

}  // namespace taskdrop
