// Fleet layer: leased shard execution.
//
// PR 5's sharding welded the whole orchestrator — worker spawn, the reap
// loop, resume logic, store merging — into the CLI, capping a corpus run
// at one process tree on one box.  This module lifts that machinery out
// so any entry point (CLI, serve, a future daemon) and any number of
// cooperating machines can drive a batch:
//
//   * DirBackend (fleet/dir.hpp) — who may run a slice right now:
//     acquire / heartbeat / complete / abandon over named slices ("u/U"
//     of a round-robin ShardPlan), through atomic lease files in one
//     directory.  A `--fleet-dir` fleet shares that directory; a local
//     `--shards K` run is a one-runner fleet over a private one.
//
//   * SliceExecutor — how a slice actually runs.  The production
//     executor (fleet/process.hpp) re-execs the CLI as a worker process
//     per slice, exactly PR 5's crash-isolation model; tests substitute
//     stubs that write store files directly.
//
// FleetRunner drives both: static LPT order (heaviest slice first,
// rotated per runner so a fleet fans out instead of colliding), work
// stealing (an idle runner acquires any unclaimed or heartbeat-expired
// slice), and health-checked re-lease of slices whose runner died.  The
// slice store files are the single source of truth — a slice counts as
// done only when its file holds a complete, identity-matching report
// (slice_file_complete), never merely because a process exited 0 — so
// the merged report stays byte-identical to the single-process run for
// every runner count and steal schedule: store::merge reorders rows by
// name into submission order, and the worker protocol itself
// ("--shard-worker u/U" over the shared corpus recipe) never varies.
//
// Known best-effort window: a runner wrongly declared dead (e.g. paused
// past the lease TTL) may still be writing its slice store while the
// thief rewrites it.  The loser's next heartbeat notices the lost lease
// and cancels its worker, and completion always re-reads the file
// content, so the race narrows to a torn file that fails
// slice_file_complete and is re-run — never to silently merged rows.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver/shard.hpp"
#include "store/store.hpp"

namespace seance::fleet {

class DirBackend;

/// Default lease-unit count for directory fleets: enough granularity
/// that a handful of runners can steal meaningful work from each other
/// without ballooning per-unit spawn overhead.  Local runs default to
/// one unit per worker process instead (the PR 5 layout).
inline constexpr int kDefaultFleetUnits = 16;

/// One lease unit: a named slice of the corpus plan.  Everything here is
/// a pure function of (index, total, corpus) — never of the runner — so
/// a stolen or re-leased slice lands in the same store file under the
/// same `# shard:` tag as one run by its original owner.
struct Slice {
  int index = 0;
  int total = 1;
  std::string tag;         ///< ShardPlan::slice_tag(index, total)
  std::string store_path;  ///< <dir>/ShardPlan::slice_file(index, total)
  std::vector<std::string> job_names;  ///< submission order
  double cost = 0.0;  ///< summed estimate_cost, the LPT ordering key
};

/// Builds the lease units for `plan` over job `names`, store files under
/// `dir`.  `costs` (per corpus job, may be empty for unit costs) feeds
/// each slice's LPT key.
[[nodiscard]] std::vector<Slice> make_slices(const driver::ShardPlan& plan,
                                             const std::vector<std::string>& names,
                                             const std::vector<double>& costs,
                                             const std::string& dir);

enum class LeaseState : std::uint8_t {
  kFree,     ///< unclaimed
  kHeld,     ///< leased and heartbeat-fresh
  kExpired,  ///< leased but the holder stopped heartbeating — stealable
  kDone,     ///< completed; the slice store is authoritative
  kDead,     ///< gave up: no (further) attempts allowed
};

struct AcquireResult {
  bool ok = false;
  /// The lease was taken over from an expired holder (a steal or a
  /// dead-runner re-lease) rather than claimed free.
  bool stolen = false;
  std::string detail;  ///< why not, or whom it was re-leased from
};

/// A slice execution in flight.
class SliceRun {
 public:
  virtual ~SliceRun() = default;
  /// Non-blocking: true once the run has finished, with `exit_detail`
  /// empty for a clean exit or a human-readable failure ("killed by
  /// signal 6", ...).  Idempotent after completion.
  [[nodiscard]] virtual bool poll(std::string* exit_detail) = 0;
  /// Best-effort stop (lost lease, runner shutdown).  poll() still
  /// reports the final state afterwards.
  virtual void cancel() = 0;
};

/// How a slice runs.  The production implementation re-execs the CLI as
/// a worker process (fleet/process.hpp); tests substitute stubs.
class SliceExecutor {
 public:
  virtual ~SliceExecutor() = default;
  /// Starts the slice; nullptr when the run could not be spawned.
  [[nodiscard]] virtual std::unique_ptr<SliceRun> start(const Slice& slice) = 0;
};

struct FleetOptions {
  std::string runner_id = "runner-0";
  /// Simultaneous slice runs this runner drives (the local worker-process
  /// budget).
  int max_concurrent = 1;
  /// Heartbeat cadence for held leases; pick well under the lease TTL
  /// (the CLI uses TTL/3).
  double heartbeat_ms = 2000;
  /// Idle delay between scheduling rounds.
  double poll_ms = 10;
  /// Treat a slice whose store file is already complete (identity and
  /// job-set match) as done without re-running it — `--resume`, and the
  /// normal state of late joiners in fleet mode.
  bool reuse_complete = false;
  /// Keep polling until every unit is resolved fleet-wide (done or dead)
  /// — required before merging.  When false the runner exits once it can
  /// no longer contribute (nothing acquirable, nothing running).
  bool wait_for_fleet = true;
  /// Stop acquiring after this many units (-1 = unlimited); a bounded
  /// helper runner for tests and canary rollouts.
  int max_units = -1;
  /// Test hook: die (std::_Exit(3), workers cancelled, held leases left
  /// to expire) as soon as more than this many units have been acquired.
  /// -1 = off.  The dead-runner scenario a surviving fleet must heal.
  int die_after_acquires = -1;
  /// Whole-corpus identity, for reuse_complete file checks.
  store::CorpusIdentity identity;
};

enum class UnitOutcome : std::uint8_t {
  kPending = 0,  ///< unresolved (only in reports of non-waiting runners)
  kCompleted,    ///< this runner ran it to a complete store file
  kReused,       ///< store file was already complete; no run needed
  kElsewhere,    ///< another runner completed it
  kDead,         ///< attempts exhausted; merge records the lost jobs
};

struct UnitResult {
  UnitOutcome outcome = UnitOutcome::kPending;
  bool stolen = false;      ///< our acquire was a steal / re-lease
  double wall_ms = 0.0;     ///< our execution time, when we ran it
  std::string exit_detail;  ///< last failed run's detail, empty if clean
};

struct FleetReport {
  std::vector<UnitResult> units;  ///< by slice index
  int executed = 0;   ///< kCompleted by this runner
  int reused = 0;     ///< kReused by this runner
  int stolen = 0;     ///< acquires that were steals / re-leases
  int elsewhere = 0;  ///< kElsewhere
  int dead = 0;       ///< kDead
  /// Every unit is done or dead — the fleet finished and a merged
  /// report is meaningful.  False only for non-waiting runners.
  [[nodiscard]] bool all_resolved() const;
  double wall_ms = 0.0;
};

/// Drives one runner: poll running slices, heartbeat held leases, and
/// greedily acquire pending units in LPT order (heaviest first, rotated
/// by search::fnv64(runner_id) so concurrent runners fan out) until the
/// fleet resolves.  An idle runner acquiring an expired lease *is* the work
/// stealing / dead-runner re-lease — no separate mechanism.
class FleetRunner {
 public:
  FleetRunner(DirBackend& lease, SliceExecutor& executor, FleetOptions options);
  [[nodiscard]] FleetReport run(const std::vector<Slice>& slices);

 private:
  DirBackend& lease_;
  SliceExecutor& executor_;
  FleetOptions options_;
};

/// True when `path` holds a complete, identity-matching report for
/// exactly this slice: the resume criterion, and the fleet's completion
/// authority (a unit is done because its file says so, not because a
/// process exited 0).
[[nodiscard]] bool slice_file_complete(const std::string& path,
                                       const store::CorpusIdentity& identity,
                                       const std::string& shard_tag,
                                       std::vector<std::string> slice_names);

/// Loads every unit's store file (tolerating the torn tail a crashed
/// worker leaves) and store::merge's them back into one whole-corpus
/// report in `job_order`; jobs lost to dead units come back as kCrashed
/// rows annotated with the unit's exit detail.  Byte-identical to the
/// single-process report when every unit completed.  Throws
/// std::runtime_error on identity violations (via store::merge).
[[nodiscard]] store::StoredReport merge_units(
    const store::CorpusIdentity& identity, const std::vector<Slice>& slices,
    const FleetReport& fleet, const std::vector<std::string>& job_order);

}  // namespace seance::fleet
