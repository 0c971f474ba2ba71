#include "fleet/process.hpp"

#include <cctype>
#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define SEANCE_FLEET_UNIX 1
#endif

namespace seance::fleet {

std::string self_exe_path(const char* argv0) {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
#endif
  return argv0;
}

std::string default_runner_id() {
  std::string host = "local";
#ifdef SEANCE_FLEET_UNIX
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') host = buf;
  // Hostnames are [A-Za-z0-9.-] by convention only; keep the id a valid
  // DirBackend runner id whatever the kernel reports.
  for (char& c : host) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '-') {
      c = '_';
    }
  }
  return host + "-" + std::to_string(static_cast<long>(getpid()));
#else
  return host;
#endif
}

#ifdef SEANCE_FLEET_UNIX

namespace {

class ProcessRun final : public SliceRun {
 public:
  explicit ProcessRun(pid_t pid) : pid_(pid) {}

  ~ProcessRun() override {
    // Never leak a tracked child: a run dropped before completion is
    // killed and reaped here so no zombie outlives the runner.
    if (!reaped_) {
      kill(pid_, SIGKILL);
      int status = 0;
      (void)waitpid(pid_, &status, 0);
    }
  }

  bool poll(std::string* exit_detail) override {
    if (!reaped_) {
      int status = 0;
      // Per-pid, WNOHANG: only this tracked child is ever reaped, so a
      // foreign child of the embedding process is left alone.
      const pid_t got = waitpid(pid_, &status, WNOHANG);
      if (got == 0) return false;
      reaped_ = true;
      if (got < 0) {
        detail_ = "waitpid failed";
      } else if (WIFSIGNALED(status)) {
        detail_ = "killed by signal " + std::to_string(WTERMSIG(status));
      } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        detail_ = "exited with status " + std::to_string(WEXITSTATUS(status));
      }
    }
    if (exit_detail != nullptr) *exit_detail = detail_;
    return true;
  }

  void cancel() override {
    if (!reaped_) kill(pid_, SIGKILL);
  }

 private:
  pid_t pid_;
  bool reaped_ = false;
  std::string detail_;
};

}  // namespace

std::unique_ptr<SliceRun> ProcessExecutor::start(const Slice& slice) {
  const std::vector<std::string> args = build_(slice);
  if (args.empty()) return nullptr;
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return nullptr;
  if (pid == 0) {
    // execvp, not execv: when /proc/self/exe is unavailable the exe path
    // falls back to argv[0], which may be a bare name found via PATH.
    execvp(argv[0], argv.data());
    std::_Exit(127);  // exec failed; the parent reports the status
  }
  return std::make_unique<ProcessRun>(pid);
}

#else  // !SEANCE_FLEET_UNIX

std::unique_ptr<SliceRun> ProcessExecutor::start(const Slice&) {
  return nullptr;
}

#endif

}  // namespace seance::fleet
