// Subprocess slice execution.
//
// ProcessExecutor is the production SliceExecutor, for local `--shards`
// runs and `--fleet-dir` runners alike: fork + execvp of a caller-built
// argv (the CLI re-execing itself as a `--shard-worker u/U` worker),
// polled with per-pid waitpid(WNOHANG) — only tracked children are ever
// reaped, so a foreign child of the embedding process is never swallowed.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"

namespace seance::fleet {

/// True when this platform can fork/exec slice workers (ProcessExecutor
/// works).  False on non-unix builds: callers must gate `--shards` on it.
#if defined(__unix__) || defined(__APPLE__)
inline constexpr bool kHasProcessExec = true;
#else
inline constexpr bool kHasProcessExec = false;
#endif

/// Resolves the running executable (readlink /proc/self/exe on Linux),
/// falling back to `argv0` — which execvp can still resolve via PATH.
[[nodiscard]] std::string self_exe_path(const char* argv0);

/// "host-pid" — a runner id unique enough for a directory fleet when the
/// user does not name the runner.  Always a valid DirBackend runner id.
[[nodiscard]] std::string default_runner_id();

class ProcessExecutor final : public SliceExecutor {
 public:
  using ArgvBuilder = std::function<std::vector<std::string>(const Slice&)>;
  /// `build` produces the worker argv for a slice (argv[0] is the
  /// executable path or name).
  explicit ProcessExecutor(ArgvBuilder build) : build_(std::move(build)) {}
  /// nullptr when fork fails or the platform has no process execution.
  [[nodiscard]] std::unique_ptr<SliceRun> start(const Slice& slice) override;

 private:
  ArgvBuilder build_;
};

}  // namespace seance::fleet
