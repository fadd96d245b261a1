#include "metrics/report.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace taskdrop {

std::string format_summary(const Summary& summary, int precision) {
  return format_fixed(summary.mean, precision) + " +/- " +
         format_fixed(summary.ci95, precision);
}

void add_summary_row(Table& table, const std::string& label,
                     const Summary& summary, int precision) {
  table.row().cell(label).cell(summary.mean, precision).cell(summary.ci95,
                                                             precision);
}

Table sweep_table(const SweepReport& report) {
  std::vector<std::string> headers = report.active_axes;
  headers.insert(headers.end(),
                 {"robustness (%)", "ci95", "utility (%)",
                  "cost/robustness ($)", "reactive share (%)"});
  Table table(std::move(headers));
  for (const SweepCellResult& cell : report.cells) {
    table.row();
    for (const std::string& axis : report.active_axes) {
      table.cell(axis_label(cell.point, axis));
    }
    table.cell(cell.result.robustness.mean)
        .cell(cell.result.robustness.ci95)
        .cell(cell.result.utility.mean)
        .cell(cell.result.normalized_cost.mean, 4)
        .cell(cell.result.reactive_share.mean);
  }
  return table;
}

void write_sweep_csv(std::ostream& os, const SweepReport& report) {
  sweep_table(report).print_csv(os);
}

namespace {

const char* const kSchema = "taskdrop-sweep/v2";

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// JSON has no literal for inf/nan; summaries degrade to null (consumers
/// treat the statistic as undefined).
std::string json_number(double value) {
  return std::isfinite(value) ? format_double(value) : std::string("null");
}

/// Trial payloads must round-trip bitwise through merge, so non-finite
/// values are preserved as the strings "inf"/"-inf"/"nan" instead.
std::string json_trial_number(double value) {
  return std::isfinite(value) ? format_double(value)
                              : '"' + format_double(value) + '"';
}

/// The per-trial payload schema, shared by the writer and the shard
/// reader so the two cannot drift apart.
struct TrialField {
  const char* key;
  double TrialMetrics::* real;
  long long TrialMetrics::* integer;
};

constexpr TrialField kTrialFields[] = {
    {"robustness_pct", &TrialMetrics::robustness_pct, nullptr},
    {"utility_pct", &TrialMetrics::utility_pct, nullptr},
    {"total_cost", &TrialMetrics::total_cost, nullptr},
    {"normalized_cost", &TrialMetrics::normalized_cost, nullptr},
    {"reactive_drop_share_pct", &TrialMetrics::reactive_drop_share_pct,
     nullptr},
    {"completed_on_time", nullptr, &TrialMetrics::completed_on_time},
    {"completed_late", nullptr, &TrialMetrics::completed_late},
    {"dropped_reactive_queued", nullptr,
     &TrialMetrics::dropped_reactive_queued},
    {"dropped_proactive", nullptr, &TrialMetrics::dropped_proactive},
    {"expired_unmapped", nullptr, &TrialMetrics::expired_unmapped},
    {"lost_to_failure", nullptr, &TrialMetrics::lost_to_failure},
    {"approx_on_time", nullptr, &TrialMetrics::approx_on_time},
    {"mapping_events", nullptr, &TrialMetrics::mapping_events},
    {"dropper_invocations", nullptr, &TrialMetrics::dropper_invocations},
};

void write_summary_json(std::ostream& os, const char* key,
                        const Summary& summary) {
  os << '"' << key << "\": {\"mean\": " << json_number(summary.mean)
     << ", \"ci95\": " << json_number(summary.ci95) << '}';
}

void write_point_json(std::ostream& os, const SweepPoint& point) {
  static const char* const kAxes[] = {
      "scenario",   "level",      "mapper",       "dropper", "gamma",
      "capacity",   "engagement", "conditioning", "failures"};
  os << "\"point\": {";
  bool first = true;
  for (const char* axis : kAxes) {
    os << (first ? "" : ", ") << '"' << axis << "\": \""
       << json_escape(axis_label(point, axis)) << '"';
    first = false;
  }
  os << '}';
}

void write_config_json(std::ostream& os, const ExperimentConfig& config) {
  os << "\"config\": {\"mapper\": \"" << json_escape(config.mapper)
     << "\", \"dropper\": \"" << config.dropper.name()
     << "\", \"tasks\": " << config.workload.n_tasks
     << ", \"oversub\": " << json_number(config.workload.oversubscription)
     << ", \"gamma\": " << json_number(config.workload.gamma)
     << ", \"capacity\": " << config.queue_capacity
     << ", \"trials\": " << config.trials << ", \"seed\": " << config.seed
     << '}';
}

void write_cell_summaries_json(std::ostream& os, const ExperimentResult& r) {
  os << "\"metrics\": {";
  write_summary_json(os, "robustness_pct", r.robustness);
  os << ", ";
  write_summary_json(os, "utility_pct", r.utility);
  os << ", ";
  write_summary_json(os, "normalized_cost", r.normalized_cost);
  os << ", ";
  write_summary_json(os, "reactive_share_pct", r.reactive_share);
  // The per-trial counters (dropper invocations, tasks lost to failure,
  // approx completions, ...) summarised the same way.
  for (const TrialField& field : kTrialFields) {
    if (field.integer == nullptr) continue;
    std::vector<double> values;
    values.reserve(r.trials.size());
    for (const TrialMetrics& trial : r.trials) {
      values.push_back(static_cast<double>(trial.*field.integer));
    }
    os << ", ";
    write_summary_json(os, field.key, summarize(values));
  }
  os << '}';
}

void write_cell_trials_json(std::ostream& os, const SweepCellResult& cell) {
  os << "\"trials\": [";
  for (std::size_t j = 0; j < cell.trial_indices.size(); ++j) {
    const TrialMetrics& metrics = cell.result.trials[j];
    os << (j == 0 ? "\n" : ",\n") << "       {\"trial\": "
       << cell.trial_indices[j] << ", \"metrics\": {";
    bool first = true;
    for (const TrialField& field : kTrialFields) {
      os << (first ? "" : ", ") << '"' << field.key << "\": ";
      if (field.real != nullptr) {
        os << json_trial_number(metrics.*field.real);
      } else {
        os << metrics.*field.integer;
      }
      first = false;
    }
    os << "}}";
  }
  os << "\n     ]";
}

}  // namespace

void write_sweep_json(std::ostream& os, const SweepReport& report) {
  // A lease report is the mergeable form: lease header, canonical spec
  // map, and per-trial payloads instead of summaries.
  const bool mergeable = report.lease.has_value();
  os << "{\n  \"schema\": \"" << kSchema << "\",\n  \"name\": \""
     << json_escape(report.name) << '"';
  if (report.lease) {
    os << ",\n  \"lease\": {\"id\": " << report.lease->id
       << ", \"begin\": " << report.lease->begin
       << ", \"end\": " << report.lease->end;
    // Contiguous (elastic) leases omit the default stride, so their
    // documents stay byte-identical to the pre-stride format.
    if (report.lease->stride != 1) {
      os << ", \"stride\": " << report.lease->stride;
    }
    os << '}';
  }
  if (mergeable) {
    os << ",\n  \"spec\": {";
    bool first = true;
    for (const auto& [key, values] : report.spec_map) {
      os << (first ? "\n" : ",\n") << "    \"" << json_escape(key)
         << "\": [";
      for (std::size_t i = 0; i < values.size(); ++i) {
        os << (i == 0 ? "" : ", ") << '"' << json_escape(values[i]) << '"';
      }
      os << ']';
      first = false;
    }
    os << "\n  }";
  }
  os << ",\n  \"cells\": [";
  bool first_cell = true;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const SweepCellResult& cell = report.cells[i];
    // A mergeable document carries only the cells it owns trials of.
    if (mergeable && cell.trial_indices.empty()) continue;
    os << (first_cell ? "\n" : ",\n") << "    {";
    if (mergeable) os << "\"cell\": " << i << ",\n     ";
    write_point_json(os, cell.point);
    os << ",\n     ";
    write_config_json(os, cell.config);
    os << ",\n     ";
    if (mergeable) {
      write_cell_trials_json(os, cell);
    } else {
      write_cell_summaries_json(os, cell.result);
    }
    os << '}';
    first_cell = false;
  }
  os << "\n  ]\n}\n";
}

// --- Shard-document parsing, via the shared util/json reader. Helpers
// below bind the "sweep shard JSON" error context once.

namespace {

const std::string& json_context() {
  static const std::string context = "sweep shard JSON";
  return context;
}

const JsonValue& require_member(const JsonValue& object, const char* key,
                                const char* where) {
  return json_require(object, key, where, json_context());
}

double double_of(const JsonValue& value, const char* where) {
  return json_double(value, where, json_context());
}

long long integer_of(const JsonValue& value, const char* where) {
  return json_integer(value, where, json_context());
}

/// An integer member checked against [min, max] before any narrowing, so
/// a wrapped value (trial 2^32) is an error instead of an alias of trial 0.
long long bounded_integer_of(const JsonValue& value, const char* where,
                             long long min, long long max) {
  const long long parsed = integer_of(value, where);
  if (parsed < min || parsed > max) {
    throw std::invalid_argument(
        "sweep shard JSON: " + std::string(where) + " " +
        std::to_string(parsed) + " out of range [" + std::to_string(min) +
        ", " + std::to_string(max) + "]");
  }
  return parsed;
}

const std::string& string_of(const JsonValue& value, const char* where) {
  return json_string(value, where, json_context());
}

/// Bitwise payload equality, field for field through the shared schema
/// table. Doubles are compared as their bit patterns (memcpy, not ==):
/// re-executed units must reproduce *exactly* the same bytes, and NaN
/// payloads must compare equal to themselves.
bool trials_bitwise_equal(const TrialMetrics& a, const TrialMetrics& b) {
  for (const TrialField& field : kTrialFields) {
    if (field.real != nullptr) {
      std::uint64_t bits_a = 0;
      std::uint64_t bits_b = 0;
      std::memcpy(&bits_a, &(a.*field.real), sizeof(bits_a));
      std::memcpy(&bits_b, &(b.*field.real), sizeof(bits_b));
      if (bits_a != bits_b) return false;
    } else if (a.*field.integer != b.*field.integer) {
      return false;
    }
  }
  return true;
}

}  // namespace

SweepShardReport read_sweep_shard_json(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const JsonValue root = parse_json(buffer.str(), json_context());
  if (root.kind != JsonValue::Kind::Object) {
    throw std::invalid_argument("sweep shard JSON: document is not an object");
  }

  const std::string& schema =
      string_of(require_member(root, "schema", "document"), "schema");
  if (schema != kSchema) {
    throw std::invalid_argument("sweep shard JSON: unsupported schema \"" +
                                schema + "\" (expected \"" + kSchema + "\")");
  }

  SweepShardReport shard;
  shard.name = string_of(require_member(root, "name", "document"), "name");

  const JsonValue* lease_header = json_find(root, "lease");
  if (lease_header == nullptr) {
    throw std::invalid_argument(
        "sweep shard JSON: no lease header — this is a plain sweep dump "
        "(summaries only); mergeable documents come from sweep --shard I/N "
        "or sweep --elastic");
  }
  constexpr long long kMaxCount = std::numeric_limits<long long>::max();
  shard.lease.id =
      integer_of(require_member(*lease_header, "id", "lease"), "lease.id");
  shard.lease.begin = static_cast<std::size_t>(bounded_integer_of(
      require_member(*lease_header, "begin", "lease"), "lease.begin", 0,
      kMaxCount));
  shard.lease.end = static_cast<std::size_t>(bounded_integer_of(
      require_member(*lease_header, "end", "lease"), "lease.end", 0,
      kMaxCount));
  // A missing stride is a contiguous lease (the elastic format).
  if (const JsonValue* stride = json_find(*lease_header, "stride")) {
    shard.lease.stride = static_cast<std::size_t>(
        bounded_integer_of(*stride, "lease.stride", 1, kMaxCount));
  }
  shard.lease.validate();

  const JsonValue& spec = require_member(root, "spec", "document");
  if (spec.kind != JsonValue::Kind::Object) {
    throw std::invalid_argument("sweep shard JSON: spec is not an object");
  }
  for (const auto& [key, values] : spec.members) {
    if (values.kind != JsonValue::Kind::Array) {
      throw std::invalid_argument("sweep shard JSON: spec key " + key +
                                  " is not an array");
    }
    std::vector<std::string>& list = shard.spec[key];
    for (const JsonValue& item : values.items) {
      list.push_back(string_of(item, "spec value"));
    }
  }

  const JsonValue& cells = require_member(root, "cells", "document");
  if (cells.kind != JsonValue::Kind::Array) {
    throw std::invalid_argument("sweep shard JSON: cells is not an array");
  }
  for (const JsonValue& cell : cells.items) {
    const std::size_t cell_index = static_cast<std::size_t>(
        bounded_integer_of(require_member(cell, "cell", "cell"), "cell", 0,
                           kMaxCount));
    const JsonValue& trials = require_member(cell, "trials", "cell");
    if (trials.kind != JsonValue::Kind::Array) {
      throw std::invalid_argument("sweep shard JSON: trials is not an array");
    }
    for (const JsonValue& trial : trials.items) {
      SweepShardReport::TrialRecord record;
      record.cell = cell_index;
      record.trial = static_cast<int>(bounded_integer_of(
          require_member(trial, "trial", "trial"), "trial", 0,
          std::numeric_limits<int>::max()));
      const JsonValue& metrics = require_member(trial, "metrics", "trial");
      for (const TrialField& field : kTrialFields) {
        const JsonValue& value = require_member(metrics, field.key, "metrics");
        if (field.real != nullptr) {
          record.metrics.*field.real = double_of(value, field.key);
        } else {
          record.metrics.*field.integer = integer_of(value, field.key);
        }
      }
      shard.trials.push_back(std::move(record));
    }
  }
  return shard;
}

SweepReport merge_sweep_reports(const std::vector<SweepShardReport>& shards,
                                const MergeOptions& options) {
  if (shards.empty()) {
    throw std::invalid_argument("merge: no shard reports given");
  }
  const SweepShardReport& first = shards.front();
  for (const SweepShardReport& shard : shards) {
    if (shard.name != first.name) {
      throw std::invalid_argument("merge: shards name different sweeps (\"" +
                                  first.name + "\" vs \"" + shard.name +
                                  "\")");
    }
    if (shard.spec != first.spec) {
      throw std::invalid_argument(
          "merge: shard spec headers differ — every shard must come from "
          "the same canonical spec");
    }
  }

  // Re-expand the shared spec header; the canonical-rendering check means
  // every shard process expanded this exact grid.
  const SweepSpec spec = SweepSpec::from_map(first.spec);
  if (spec.to_map() != first.spec) {
    throw std::invalid_argument(
        "merge: shard spec header is not the canonical to_map rendering");
  }
  const std::vector<SweepCell> cells = expand(spec);
  const std::size_t trials_per_cell = static_cast<std::size_t>(spec.trials);
  const std::size_t units = cells.size() * trials_per_cell;

  std::vector<std::vector<TrialMetrics>> trials(
      cells.size(), std::vector<TrialMetrics>(trials_per_cell));
  std::vector<std::vector<bool>> have(
      cells.size(), std::vector<bool>(trials_per_cell, false));
  for (const SweepShardReport& shard : shards) {
    const SweepLeaseRange& lease = shard.lease;
    lease.validate();
    if (lease.end > units) {
      throw std::invalid_argument("merge: " + lease_text(lease) +
                                  " exceeds the grid's " +
                                  std::to_string(units) + " units");
    }
    for (const SweepShardReport::TrialRecord& record : shard.trials) {
      if (record.cell >= cells.size()) {
        throw std::invalid_argument(
            "merge: cell index " + std::to_string(record.cell) +
            " out of range (grid has " + std::to_string(cells.size()) +
            " cells)");
      }
      if (record.trial < 0 || record.trial >= spec.trials) {
        throw std::invalid_argument(
            "merge: trial index " + std::to_string(record.trial) +
            " out of range (spec has " + std::to_string(spec.trials) +
            " trials)");
      }
      const std::size_t unit =
          sweep_unit(record.cell, record.trial, spec.trials);
      if (!lease_owns(lease, unit)) {
        throw std::invalid_argument(
            "merge: trial " + std::to_string(record.trial) + " of cell " +
            std::to_string(record.cell) + " does not belong to " +
            lease_text(lease));
      }
      auto slot = have[record.cell].begin() + record.trial;
      if (*slot) {
        // Deterministic trial seeding means a reclaimed-and-also-finished
        // unit reproduces the exact bytes; anything else is corruption or
        // a spec/code mismatch, and is loud with or without
        // allow_reexecuted.
        if (!trials_bitwise_equal(
                trials[record.cell][static_cast<std::size_t>(record.trial)],
                record.metrics)) {
          throw std::invalid_argument(
              "merge: divergent re-executed payloads for trial " +
              std::to_string(record.trial) + " of cell " +
              std::to_string(record.cell) +
              " — the documents disagree bitwise and cannot both be right");
        }
        if (!options.allow_reexecuted) {
          throw std::invalid_argument(
              "merge: duplicate payload for trial " +
              std::to_string(record.trial) + " of cell " +
              std::to_string(record.cell) +
              " (re-run merge with --allow-reexecuted if this is a "
              "reclaimed lease)");
        }
        continue;
      }
      *slot = true;
      trials[record.cell][static_cast<std::size_t>(record.trial)] =
          record.metrics;
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t t = 0; t < trials_per_cell; ++t) {
      if (!have[c][t]) {
        throw std::invalid_argument("merge: missing trial " +
                                    std::to_string(t) + " of cell " +
                                    std::to_string(c));
      }
    }
  }

  SweepReport report;
  report.name = spec.name;
  report.active_axes = active_axes_of(spec);
  report.cells.resize(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    report.cells[c].point = cells[c].point;
    report.cells[c].config = cells[c].config;
    report.cells[c].result = summarize_trials(std::move(trials[c]));
    report.cells[c].trial_indices.resize(trials_per_cell);
    for (std::size_t t = 0; t < trials_per_cell; ++t) {
      report.cells[c].trial_indices[t] = static_cast<int>(t);
    }
  }
  return report;
}

}  // namespace taskdrop
