#include "online/snapshot.hpp"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/spec_parser.hpp"

namespace taskdrop {
namespace {

constexpr const char* kMagic = "taskdrop-online-snapshot";
constexpr const char* kVersion = "v2";

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

/// The next token of `in` as the integer field `what`. Snapshot numbers
/// parse as spec values do (util/spec_parser), with the field named.
long long next_int(std::istringstream& in, const std::string& what) {
  return parse_spec_i64("snapshot: " + what, next_token(in, what));
}

long long parse_kv_ll(std::istringstream& in, const std::string& key) {
  return parse_spec_i64("snapshot: " + key, expect_kv(in, key));
}

/// A restored time, held to the live state's horizon (`lowest` as in
/// SystemState::check_time).
Tick parse_time(const std::string& what, const std::string& text,
                Tick lowest) {
  const Tick t = parse_spec_i64("snapshot: " + what, text);
  try {
    SystemState::check_time(what.c_str(), t, lowest);
  } catch (const std::invalid_argument& error) {
    bad(error.what());
  }
  return t;
}

/// A 0/1 field.
bool parse_bit(const std::string& what, const std::string& text) {
  const long long value = parse_spec_i64("snapshot: " + what, text);
  if (value != 0 && value != 1) bad(what + " must be 0 or 1");
  return value != 0;
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

/// Every key whose values differ between the two echoes, with both values.
std::string echo_differences(const SpecMap& snapshotted, const SpecMap& echo) {
  const auto rendered = [](const SpecMap& map, const std::string& key) {
    const auto it = map.find(key);
    return it == map.end() ? std::string("unset")
                           : "'" + join_spec_list(it->second) + "'";
  };
  SpecMap both = snapshotted;  // for the union of the two key sets
  both.insert(echo.begin(), echo.end());
  std::string out;
  for (const auto& entry : both) {
    const std::string then = rendered(snapshotted, entry.first);
    const std::string now = rendered(echo, entry.first);
    if (then == now) continue;
    out += (out.empty() ? "" : "; ") + entry.first + " " + then +
           " in the snapshot, " + now + " here";
  }
  return out;
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

void OnlineScheduler::snapshot(std::ostream& out, const SpecMap& echo) const {
  out << kMagic << ' ' << kVersion << '\n';
  out << "config n=" << echo.size() << " pet=" << pet_fingerprint(state_.pet())
      << '\n' << spec_to_text(echo);
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

void OnlineScheduler::restore(std::istream& in, const SpecMap& echo) {
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

  // Configuration echo and PET fingerprint: both must match this run's.
  {
    std::istringstream line(next_line(in, "config"));
    expect_literal(line, "config");
    const long long keys = parse_kv_ll(line, "n");
    const std::string pet = expect_kv(line, "pet");
    expect_line_done(line);
    std::string text;
    for (long long i = 0; i < keys; ++i) {
      text += next_line(in, "config echo") + '\n';
    }
    SpecMap snapshotted;
    try {
      snapshotted = parse_spec_text(text);
    } catch (const std::invalid_argument& error) {
      bad(std::string("config echo: ") + error.what());
    }
    check(snapshotted == echo,
          "configuration differs from the snapshotted one: " +
              echo_differences(snapshotted, echo));
    check(pet == std::to_string(pet_fingerprint(state_.pet())),
          "PET fingerprint differs — snapshot was taken against a "
          "different scenario");
  }

  Tick restored_now = 0;
  {
    std::istringstream line(next_line(in, "clock"));
    expect_literal(line, "clock");
    restored_now = parse_time("now", expect_kv(line, "now"), 0);
    expect_line_done(line);
  }
  {
    std::istringstream line(next_line(in, "flags"));
    expect_literal(line, "flags");
    deadline_miss_pending_ = parse_bit(
        "deadline_miss_pending", expect_kv(line, "deadline_miss_pending"));
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
    // Grows per line read: an edited count sizes no allocation.
    for (long long i = 0; i < count; ++i) {
      std::istringstream task_line(next_line(in, "task table"));
      expect_literal(task_line, "T");
      Task task;
      task.id = next_int(task_line, "task id");
      check(task.id == i, "task ids must be dense and ascending");
      task.type = static_cast<TaskTypeId>(next_int(task_line, "task type"));
      check(task.type >= 0 && task.type < state_.pet().task_type_count(),
            "task type out of range for this PET");
      task.arrival =
          parse_time("arrival", next_token(task_line, "arrival"), 0);
      task.deadline =
          parse_time("deadline", next_token(task_line, "deadline"),
                     -SystemState::kTimeHorizon);
      task.state = task_state_from_name(next_token(task_line, "task state"));
      task.approximate =
          parse_bit("approx flag", next_token(task_line, "approx flag"));
      task.machine =
          static_cast<MachineId>(next_int(task_line, "task machine"));
      check(task.machine >= -1 &&
                task.machine < static_cast<MachineId>(machines.size()),
            "task machine out of range");
      task.start_time = next_int(task_line, "start time");
      task.finish_time = next_int(task_line, "finish time");
      task.drop_time = next_int(task_line, "drop time");
      task.actual_execution = next_int(task_line, "actual execution");
      expect_line_done(task_line);
      tasks.push_back(task);
    }
  }

  // Each task id sits in at most one queue slot or batch entry.
  std::vector<bool> placed(tasks.size(), false);
  const auto place = [&](TaskId id, const std::string& what) -> const Task& {
    check(id >= 0 && id < static_cast<TaskId>(tasks.size()) &&
              !placed[static_cast<std::size_t>(id)],
          what + " out of range or listed twice");
    placed[static_cast<std::size_t>(id)] = true;
    return tasks[static_cast<std::size_t>(id)];
  };

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
      check(next_int(machine_line, "machine id") == machine.id,
            "machine ids must be dense and ascending");
      check(next_int(machine_line, "machine type") == machine.type,
            "machine type differs from the constructed fleet");
      machine.up = parse_bit("up", next_token(machine_line, "up"));
      machine.running =
          parse_bit("running", next_token(machine_line, "running"));
      machine.run_start =
          parse_time("run_start", next_token(machine_line, "run_start"), 0);
      machine.run_end = next_int(machine_line, "run_end");
      machine.run_token = static_cast<std::uint32_t>(
          next_int(machine_line, "run_token"));
      machine.busy_ticks = next_int(machine_line, "busy_ticks");
      const TaskId offer = next_int(machine_line, "start offer");
      check(offer >= -1 && offer < static_cast<TaskId>(tasks.size()),
            "start offer out of range");
      start_offered_[m] = offer;
      expect_literal(machine_line, "q");
      const long long queued = next_int(machine_line, "queue length");
      check(queued >= 0 && queued <= machine.capacity,
            "queue length exceeds capacity");
      machine.queue.clear();
      for (long long k = 0; k < queued; ++k) {
        const TaskId id = next_int(machine_line, "queued task id");
        const Task& task = place(id, "queued task id");
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
      const TaskId id = next_int(line, "batch task id");
      check(place(id, "batch task id").state == TaskState::Unmapped,
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

std::string snapshot_to_string(const OnlineScheduler& scheduler,
                               const SpecMap& echo) {
  std::ostringstream out;
  scheduler.snapshot(out, echo);
  return out.str();
}

void restore_from_string(OnlineScheduler& scheduler,
                         const std::string& snapshot, const SpecMap& echo) {
  std::istringstream in(snapshot);
  scheduler.restore(in, echo);
}

}  // namespace taskdrop
