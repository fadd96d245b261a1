#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// What one child process cost: wall time from spawn to exit, CPU time
/// (user + system) and peak resident set from wait4.
struct ChildRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double maxrss_mb = 0.0;
  int exit_code = -1;
};

/// Runs child processes from a helper forked when perfbench starts.
///
/// Linux starts a child's ru_maxrss from the resident set of the process
/// that forked it (a vfork-style spawn hands over the parent's own
/// high-water mark at exec), so a daemon spawned from the grown benchmark
/// process would report that process's peak, not its own. The helper is
/// forked while perfbench is still small and does every spawn and wait itself.
class Spawner {
 public:
  /// Forks the helper; call before perfbench allocates its workload.
  Spawner();
  /// Closes the request pipe and waits for the helper to exit.
  ~Spawner();
  Spawner(const Spawner&) = delete;
  Spawner& operator=(const Spawner&) = delete;

  /// Runs `argv` (argv[0] is a path) with stdin and stdout on /dev/null
  /// and waits for it to exit.
  ChildRun run(const std::vector<std::string>& argv);

 private:
  int request_fd_ = -1;
  int reply_fd_ = -1;
  pid_t helper_ = -1;
};

}  // namespace perfbench
