#include "online/snapshot.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace taskdrop {
namespace {

constexpr const char* kMagic = "taskdrop-online-snapshot";
constexpr const char* kVersion = "v1";

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("snapshot: " + what);
}

/// FNV-1a over a fixed-width little-endian byte view of `value`.
template <typename T>
void fnv_mix(std::uint64_t& hash, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
}

const char* engagement_name(DropperEngagement engagement) {
  return engagement == DropperEngagement::EveryMappingEvent
             ? "every_mapping_event"
             : "on_deadline_miss";
}

TaskState task_state_from_name(const std::string& name) {
  for (TaskState s : {TaskState::Unmapped, TaskState::Queued,
                      TaskState::Running, TaskState::CompletedOnTime,
                      TaskState::CompletedLate, TaskState::DroppedReactive,
                      TaskState::DroppedProactive, TaskState::LostToFailure}) {
    if (name == to_string(s)) return s;
  }
  bad("unknown task state '" + name + "'");
}

/// Reads the next line; throws on EOF.
std::string next_line(std::istream& in, const char* section) {
  std::string line;
  if (!std::getline(in, line)) {
    bad(std::string("unexpected end of snapshot (reading ") + section + ")");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

/// Next whitespace token of `in`; throws naming `what` when exhausted.
std::string next_token(std::istringstream& in, const std::string& what) {
  std::string token;
  if (!(in >> token)) bad("missing " + what);
  return token;
}

/// Next token, required to be `key=<value>`; returns <value>.
std::string expect_kv(std::istringstream& in, const std::string& key) {
  const std::string token = next_token(in, key + "=...");
  const std::string prefix = key + "=";
  if (token.rfind(prefix, 0) != 0) {
    bad("expected " + key + "=..., got '" + token + "'");
  }
  return token.substr(prefix.size());
}

long long parse_ll(const std::string& what, const std::string& text) {
  if (text.empty()) bad(what + " is empty");
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    bad(what + " is not an integer: '" + text + "'");
  }
  return value;
}

long long parse_kv_ll(std::istringstream& in, const std::string& key) {
  return parse_ll(key, expect_kv(in, key));
}

std::uint64_t parse_u64(const std::string& what, const std::string& text) {
  if (text.empty() || text[0] == '-') bad(what + " must be non-negative");
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    bad(what + " is not an integer: '" + text + "'");
  }
  return value;
}

bool parse_kv_bool(std::istringstream& in, const std::string& key) {
  const long long value = parse_kv_ll(in, key);
  if (value != 0 && value != 1) bad(key + " must be 0 or 1");
  return value != 0;
}

double parse_double(const std::string& what, const std::string& text) {
  if (text.empty()) bad(what + " is empty");
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) {
    bad(what + " is not a number: '" + text + "'");
  }
  return value;
}

void expect_literal(std::istringstream& in, const std::string& literal) {
  const std::string token = next_token(in, "'" + literal + "'");
  if (token != literal) {
    bad("expected '" + literal + "', got '" + token + "'");
  }
}

void expect_line_done(std::istringstream& in) {
  std::string trailing;
  if (in >> trailing) bad("trailing token '" + trailing + "'");
}

void check(bool ok, const std::string& what) {
  if (!ok) bad(what);
}

}  // namespace

std::uint64_t pet_fingerprint(const PetMatrix& pet) {
  std::uint64_t hash = 14695981039346656037ull;
  fnv_mix(hash, pet.task_type_count());
  fnv_mix(hash, pet.machine_type_count());
  for (TaskTypeId task = 0; task < pet.task_type_count(); ++task) {
    for (MachineTypeId machine = 0; machine < pet.machine_type_count();
         ++machine) {
      const Pmf& pmf = pet.pmf(task, machine);
      fnv_mix(hash, pmf.offset());
      fnv_mix(hash, pmf.stride());
      fnv_mix(hash, static_cast<std::uint64_t>(pmf.size()));
      for (std::size_t i = 0; i < pmf.size(); ++i) {
        fnv_mix(hash, pmf.prob_at_index(i));
      }
    }
  }
  return hash;
}

void OnlineScheduler::snapshot(std::ostream& out) const {
  out << kMagic << ' ' << kVersion << '\n';
  out << "config capacity=" << config_.queue_capacity
      << " engagement=" << engagement_name(config_.engagement)
      << " condition_running=" << (config_.condition_running ? 1 : 0)
      << " volatile_machines=" << (config_.volatile_machines ? 1 : 0)
      << " approx_enabled=" << (config_.approx.enabled ? 1 : 0)
      << " approx_time_factor=" << format_double(config_.approx.time_factor)
      << " approx_utility_weight="
      << format_double(config_.approx.utility_weight)
      << " shed_total=" << config_.shed.total_pending_watermark
      << " shed_machine=" << config_.shed.machine_backlog_watermark
      << " pet=" << pet_fingerprint(state_.pet()) << '\n';
  out << "clock now=" << state_.now() << '\n';
  out << "flags deadline_miss_pending=" << (deadline_miss_pending_ ? 1 : 0)
      << '\n';
  out << "counters mapping_events=" << mapping_events_
      << " dropper_invocations=" << dropper_invocations_
      << " shed=" << shed_count_ << '\n';
  const std::string mapper_state = mapper_.snapshot_state();
  out << "mapper name=" << mapper_.name() << " state="
      << (mapper_state.empty() ? "-" : mapper_state) << '\n';

  out << "tasks n=" << state_.task_count() << '\n';
  for (const Task& task : state_.tasks()) {
    out << "T " << task.id << ' ' << task.type << ' ' << task.arrival << ' '
        << task.deadline << ' ' << to_string(task.state) << ' '
        << (task.approximate ? 1 : 0) << ' ' << task.machine << ' '
        << task.start_time << ' ' << task.finish_time << ' '
        << task.drop_time << ' ' << task.actual_execution << '\n';
  }

  out << "machines n=" << state_.machines().size() << '\n';
  for (const Machine& machine : state_.machines()) {
    out << "M " << machine.id << ' ' << machine.type << ' '
        << (machine.up ? 1 : 0) << ' ' << (machine.running ? 1 : 0) << ' '
        << machine.run_start << ' ' << machine.run_end << ' '
        << machine.run_token << ' ' << machine.busy_ticks << ' '
        << start_offered_[static_cast<std::size_t>(machine.id)] << " q "
        << machine.queue.size();
    for (const TaskId id : machine.queue) out << ' ' << id;
    out << '\n';
  }

  out << "batch n=" << state_.batch().size();
  for (const TaskId id : state_.batch()) out << ' ' << id;
  out << '\n';
  out << "end " << kMagic << '\n';
}

void OnlineScheduler::restore(std::istream& in) {
  // Every callback but register_task runs a mapping event or needs one.
  check(state_.task_count() == 0 && mapping_events_ == 0,
        "restore target must be a freshly constructed scheduler");

  // Header.
  {
    std::istringstream line(next_line(in, "header"));
    expect_literal(line, kMagic);
    const std::string version = next_token(line, "format version");
    check(version == kVersion, "unsupported snapshot version '" + version +
                                   "' (this build reads " + kVersion + ")");
    expect_line_done(line);
  }

  // Config echo: a snapshot only restores into the identical kernel stack.
  {
    std::istringstream line(next_line(in, "config"));
    expect_literal(line, "config");
    check(parse_kv_ll(line, "capacity") == config_.queue_capacity,
          "queue capacity differs from the snapshotted config");
    check(expect_kv(line, "engagement") ==
              engagement_name(config_.engagement),
          "dropper engagement differs from the snapshotted config");
    check(parse_kv_bool(line, "condition_running") ==
              config_.condition_running,
          "condition_running differs from the snapshotted config");
    check(parse_kv_bool(line, "volatile_machines") ==
              config_.volatile_machines,
          "volatile_machines differs from the snapshotted config");
    check(parse_kv_bool(line, "approx_enabled") == config_.approx.enabled,
          "approx extension differs from the snapshotted config");
    // float-eq-ok: the echo is written with shortest-round-trip rendering,
    // so bitwise equality is exactly the "same config" contract.
    check(parse_double("approx_time_factor",
                       expect_kv(line, "approx_time_factor")) ==
              config_.approx.time_factor,
          "approx time factor differs from the snapshotted config");
    // float-eq-ok: same shortest-round-trip echo contract as above.
    check(parse_double("approx_utility_weight",
                       expect_kv(line, "approx_utility_weight")) ==
              config_.approx.utility_weight,
          "approx utility weight differs from the snapshotted config");
    check(parse_kv_ll(line, "shed_total") ==
              config_.shed.total_pending_watermark,
          "shed total watermark differs from the snapshotted config");
    check(parse_kv_ll(line, "shed_machine") ==
              config_.shed.machine_backlog_watermark,
          "shed machine watermark differs from the snapshotted config");
    check(parse_u64("pet fingerprint", expect_kv(line, "pet")) ==
              pet_fingerprint(state_.pet()),
          "PET fingerprint differs — snapshot was taken against a "
          "different scenario");
    expect_line_done(line);
  }

  Tick restored_now = 0;
  {
    std::istringstream line(next_line(in, "clock"));
    expect_literal(line, "clock");
    restored_now = parse_kv_ll(line, "now");
    expect_line_done(line);
  }
  {
    std::istringstream line(next_line(in, "flags"));
    expect_literal(line, "flags");
    deadline_miss_pending_ = parse_kv_bool(line, "deadline_miss_pending");
    expect_line_done(line);
  }
  {
    std::istringstream line(next_line(in, "counters"));
    expect_literal(line, "counters");
    mapping_events_ = parse_kv_ll(line, "mapping_events");
    dropper_invocations_ = parse_kv_ll(line, "dropper_invocations");
    shed_count_ = parse_kv_ll(line, "shed");
    expect_line_done(line);
  }
  {
    std::istringstream line(next_line(in, "mapper"));
    expect_literal(line, "mapper");
    const std::string name = expect_kv(line, "name");
    check(name == mapper_.name(),
          "snapshot was taken with mapper '" + name + "', restoring with '" +
              std::string(mapper_.name()) + "'");
    const std::string state = expect_kv(line, "state");
    mapper_.restore_state(state == "-" ? std::string() : state);
    expect_line_done(line);
  }

  // Task table, machines and batch are parsed into local tables and
  // handed to the state at the end.
  std::vector<Task> tasks;
  std::vector<Machine> machines = state_.machines();
  std::vector<TaskId> batch;

  // Task table.
  {
    std::istringstream line(next_line(in, "tasks"));
    expect_literal(line, "tasks");
    const long long count = parse_kv_ll(line, "n");
    check(count >= 0, "negative task count");
    expect_line_done(line);
    tasks.reserve(static_cast<std::size_t>(count));
    for (long long i = 0; i < count; ++i) {
      std::istringstream task_line(next_line(in, "task table"));
      expect_literal(task_line, "T");
      Task task;
      task.id = parse_ll("task id", next_token(task_line, "task id"));
      check(task.id == i, "task ids must be dense and ascending");
      task.type = static_cast<TaskTypeId>(
          parse_ll("task type", next_token(task_line, "task type")));
      check(task.type >= 0 && task.type < state_.pet().task_type_count(),
            "task type out of range for this PET");
      task.arrival = parse_ll("arrival", next_token(task_line, "arrival"));
      task.deadline = parse_ll("deadline", next_token(task_line, "deadline"));
      task.state = task_state_from_name(next_token(task_line, "task state"));
      const long long approx =
          parse_ll("approx flag", next_token(task_line, "approx flag"));
      check(approx == 0 || approx == 1, "approx flag must be 0 or 1");
      task.approximate = approx != 0;
      task.machine = static_cast<MachineId>(
          parse_ll("task machine", next_token(task_line, "task machine")));
      check(task.machine >= -1 &&
                task.machine < static_cast<MachineId>(machines.size()),
            "task machine out of range");
      task.start_time =
          parse_ll("start time", next_token(task_line, "start time"));
      task.finish_time =
          parse_ll("finish time", next_token(task_line, "finish time"));
      task.drop_time =
          parse_ll("drop time", next_token(task_line, "drop time"));
      task.actual_execution = parse_ll(
          "actual execution", next_token(task_line, "actual execution"));
      expect_line_done(task_line);
      tasks.push_back(task);
    }
  }

  // Machines.
  {
    std::istringstream line(next_line(in, "machines"));
    expect_literal(line, "machines");
    const long long count = parse_kv_ll(line, "n");
    check(count == static_cast<long long>(machines.size()),
          "machine count differs from the constructed fleet");
    expect_line_done(line);
    for (std::size_t m = 0; m < machines.size(); ++m) {
      std::istringstream machine_line(next_line(in, "machine table"));
      expect_literal(machine_line, "M");
      Machine& machine = machines[m];
      check(parse_ll("machine id", next_token(machine_line, "machine id")) ==
                machine.id,
            "machine ids must be dense and ascending");
      check(parse_ll("machine type",
                     next_token(machine_line, "machine type")) ==
                machine.type,
            "machine type differs from the constructed fleet");
      const long long up = parse_ll("up", next_token(machine_line, "up"));
      const long long running =
          parse_ll("running", next_token(machine_line, "running"));
      check((up == 0 || up == 1) && (running == 0 || running == 1),
            "up/running flags must be 0 or 1");
      machine.up = up != 0;
      machine.running = running != 0;
      machine.run_start =
          parse_ll("run_start", next_token(machine_line, "run_start"));
      machine.run_end =
          parse_ll("run_end", next_token(machine_line, "run_end"));
      machine.run_token = static_cast<std::uint32_t>(
          parse_ll("run_token", next_token(machine_line, "run_token")));
      machine.busy_ticks =
          parse_ll("busy_ticks", next_token(machine_line, "busy_ticks"));
      const TaskId offer = parse_ll(
          "start offer", next_token(machine_line, "start offer"));
      check(offer >= -1 && offer < static_cast<TaskId>(tasks.size()),
            "start offer out of range");
      start_offered_[m] = offer;
      expect_literal(machine_line, "q");
      const long long queued =
          parse_ll("queue length", next_token(machine_line, "queue length"));
      check(queued >= 0 && queued <= machine.capacity,
            "queue length exceeds capacity");
      machine.queue.clear();
      for (long long k = 0; k < queued; ++k) {
        const TaskId id = parse_ll(
            "queued task id", next_token(machine_line, "queued task id"));
        check(id >= 0 && id < static_cast<TaskId>(tasks.size()),
              "queued task id out of range");
        const Task& task = tasks[static_cast<std::size_t>(id)];
        check(task.machine == machine.id,
              "queued task does not reference its machine");
        check(task.state == (machine.running && k == 0 ? TaskState::Running
                                                       : TaskState::Queued),
              "queued task state disagrees with its queue position");
        machine.queue.push_back(id);
      }
      check(!machine.running || queued > 0,
            "a running machine must have a queue head");
      expect_line_done(machine_line);
    }
  }

  // Batch queue, in arrival order (the state rebuilds its expiry heap).
  {
    std::istringstream line(next_line(in, "batch"));
    expect_literal(line, "batch");
    const long long count = parse_kv_ll(line, "n");
    check(count >= 0 && count <= static_cast<long long>(tasks.size()),
          "batch size out of range");
    for (long long i = 0; i < count; ++i) {
      const TaskId id =
          parse_ll("batch task id", next_token(line, "batch task id"));
      check(id >= 0 && id < static_cast<TaskId>(tasks.size()),
            "batch task id out of range");
      check(tasks[static_cast<std::size_t>(id)].state == TaskState::Unmapped,
            "batch task is not in state unmapped");
      batch.push_back(id);
    }
    expect_line_done(line);
  }
  {
    std::istringstream line(next_line(in, "trailer"));
    expect_literal(line, "end");
    expect_literal(line, kMagic);
    expect_line_done(line);
  }

  // Re-root the derived state at the restored clock. The completion
  // chains, CDF views and revision-keyed memos rebuild lazily from the
  // logical state, bit-identically to the incrementally maintained
  // originals.
  state_.restore(std::move(tasks), machines, batch, restored_now);
}

std::string snapshot_to_string(const OnlineScheduler& scheduler) {
  std::ostringstream out;
  scheduler.snapshot(out);
  return out.str();
}

void restore_from_string(OnlineScheduler& scheduler,
                         const std::string& snapshot) {
  std::istringstream in(snapshot);
  scheduler.restore(in);
}

}  // namespace taskdrop
