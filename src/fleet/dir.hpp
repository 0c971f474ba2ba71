// The lease backend: lease files in one directory.
//
// Independent runner processes — on one box or many, via any shared
// filesystem — coordinate a corpus run through it (`--fleet-dir`), and a
// local `--shards K` run is a one-runner fleet over a private mkdtemp
// directory with max_attempts = 1 (no retry after a failed worker).  All
// state is plain files under the directory, one name per artifact:
//
//   fleet-config          corpus identity + unit count, written once by
//                         the first runner (atomic hard-link publish) and
//                         byte-verified by every joiner — two runners
//                         with different recipes or granularity fail
//                         loudly instead of corrupting each other
//   lease-u-of-U          slice u's lease: holder id, ownership nonce,
//                         attempt count.  Freshness is the file's mtime,
//                         refreshed by heartbeat()
//   done-u-of-U           completion marker (the slice store passed
//                         slice_file_complete on the holder)
//   shard-u-of-U.csv      the slice store itself (written by workers;
//                         named by driver::ShardPlan::slice_file).  Slice
//                         paths are the caller's: a local run keeps them
//                         in --shard-dir, outside the lease directory
//
// Protocol:
//   * claim free      — publish the lease file via hard-link (atomic
//                       create-exclusive with complete content); losers
//                       see EEXIST
//   * steal expired   — write a temp lease, rename over (atomic replace),
//                       read back: whoever's nonce survived owns it.  The
//                       attempt count carries over +1; once it reaches
//                       max_attempts the slice is kDead — a
//                       deterministically crashing job cannot re-lease
//                       forever
//   * heartbeat       — verify the nonce is still ours, then bump mtime;
//                       a lost nonce means the lease was stolen and the
//                       caller must stop its worker
//   * abandon         — backdate the mtime far past the TTL so the next
//                       acquire (any runner, including us) can steal
//                       immediately instead of waiting out the clock
//
// Freshness compares the lease mtime against this machine's filesystem
// clock; cross-machine deployments need the usual NTP discipline, and
// TTLs should dwarf expected skew.

#pragma once

#include <string>
#include <unordered_map>

#include "fleet/fleet.hpp"

namespace seance::fleet {

/// One instance per runner process; all calls are made from the runner's
/// driving thread.
class DirBackend {
 public:
  struct Options {
    /// Spliced into file names, so only [A-Za-z0-9._-] and non-empty.
    std::string runner_id = "runner-0";
    /// A lease not heartbeaten for this long is expired (stealable).
    double lease_ttl_ms = 10000;
    /// Total execution attempts a slice gets across the whole fleet
    /// before it is declared dead.
    int max_attempts = 3;
  };

  /// Creates `dir` if needed.  Throws std::runtime_error naming the
  /// problem when it cannot, or when the runner id is not a plain
  /// file-name token (see Options::runner_id).
  DirBackend(std::string dir, Options options);

  /// Publishes (first runner) or byte-verifies (joiners) the fleet
  /// config binding this directory to one corpus identity and one
  /// lease-unit count.  Throws std::runtime_error on a mismatch — a
  /// runner with different recipe flags or `--lease-units` must not
  /// join, its workers would compute a different plan.
  void bind(const store::CorpusIdentity& identity, int units);

  /// Try to take the slice: claims a free lease, or steals an expired
  /// one.  Never blocks.
  [[nodiscard]] AcquireResult acquire(const Slice& slice);
  /// Refresh a held lease; false means the lease was lost (stolen after
  /// expiry) and the caller must stop working on the slice.
  [[nodiscard]] bool heartbeat(const Slice& slice);
  /// Mark the slice done (its store file is complete), whoever holds
  /// the lease now.  False when the done marker could not be written.
  [[nodiscard]] bool complete(const Slice& slice);
  /// Give the slice up after a failed run: release it for another
  /// attempt, or retire it (kDead) once max_attempts is spent.
  void abandon(const Slice& slice);
  [[nodiscard]] LeaseState status(const Slice& slice);

 private:
  struct LeaseFile {
    std::string runner;
    std::string nonce;
    int attempts = 0;
  };

  [[nodiscard]] std::string lease_path(const Slice& slice) const;
  [[nodiscard]] std::string done_path(const Slice& slice) const;
  /// False when no lease file exists; an existing-but-garbled file reads
  /// as attempts 0 from runner "?" so it stays stealable once stale.
  [[nodiscard]] bool read_lease(const std::string& path, LeaseFile* out) const;
  [[nodiscard]] bool lease_fresh(const std::string& path) const;
  [[nodiscard]] std::string new_nonce();

  std::string dir_;
  Options options_;
  std::uint64_t nonce_counter_ = 0;
  /// Nonces of leases this instance acquired, by slice tag — ownership
  /// verification for heartbeat/abandon.
  std::unordered_map<std::string, std::string> held_;
};

}  // namespace seance::fleet
