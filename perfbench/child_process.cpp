#include "child_process.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>

extern char** environ;

namespace perfbench {

namespace {

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Spawns and reaps one child; runs inside the helper.
ChildRun spawn_and_wait(std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  ChildRun run;
  const auto t0 = std::chrono::steady_clock::now();
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return run;  // exit_code -1: could not spawn
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                   .count();
  run.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
                  1e-6;
  run.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return run;
}

/// The helper's loop: one request (argument count, then each argument as
/// length + bytes) in, one ChildRun out, until perfbench closes the pipe.
[[noreturn]] void helper_main(int request_fd, int reply_fd) {
  for (;;) {
    std::uint32_t count = 0;
    if (!read_all(request_fd, &count, sizeof count)) _exit(0);
    std::vector<std::string> argv(count);
    for (std::string& arg : argv) {
      std::uint32_t size = 0;
      if (!read_all(request_fd, &size, sizeof size)) _exit(1);
      arg.resize(size);
      if (!read_all(request_fd, arg.data(), size)) _exit(1);
    }
    const ChildRun run = spawn_and_wait(argv);
    if (!write_all(reply_fd, &run, sizeof run)) _exit(1);
  }
}

}  // namespace

Spawner::Spawner() {
  // A dead helper must surface as a write error, not kill perfbench.
  std::signal(SIGPIPE, SIG_IGN);
  int request[2];
  int reply[2];
  if (pipe2(request, O_CLOEXEC) != 0 || pipe2(reply, O_CLOEXEC) != 0) {
    throw std::runtime_error("Spawner: pipe failed");
  }
  helper_ = fork();
  if (helper_ < 0) throw std::runtime_error("Spawner: fork failed");
  if (helper_ == 0) {
    ::close(request[1]);
    ::close(reply[0]);
    helper_main(request[0], reply[1]);
  }
  ::close(request[0]);
  ::close(reply[1]);
  request_fd_ = request[1];
  reply_fd_ = reply[0];
}

Spawner::~Spawner() {
  ::close(request_fd_);
  ::close(reply_fd_);
  int status = 0;
  while (waitpid(helper_, &status, 0) < 0 && errno == EINTR) {
  }
}

ChildRun Spawner::run(const std::vector<std::string>& argv) {
  bool ok = true;
  const auto count = static_cast<std::uint32_t>(argv.size());
  ok = ok && write_all(request_fd_, &count, sizeof count);
  for (const std::string& arg : argv) {
    const auto size = static_cast<std::uint32_t>(arg.size());
    ok = ok && write_all(request_fd_, &size, sizeof size) &&
         write_all(request_fd_, arg.data(), size);
  }
  ChildRun run;
  if (!ok || !read_all(reply_fd_, &run, sizeof run)) {
    throw std::runtime_error("Spawner: helper process is gone");
  }
  if (run.exit_code == -1) {
    throw std::runtime_error("cannot spawn " + argv.front());
  }
  return run;
}

}  // namespace perfbench
