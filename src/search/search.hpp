#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

/// Shared branch-and-bound search core.
///
/// The three exact searches in the pipeline — the covering engine
/// (`logic::solve_min_cover`), state-minimization's closed-cover search
/// (`minimize::reduce`), and USTT partition assignment
/// (`assign::assign_ustt`) — all follow the same shape: depth-first
/// descent from a greedy incumbent, strict-improvement replacement, a
/// node budget that truncates the search while keeping the incumbent,
/// and an exactness flag derived from whether the budget bound. This
/// module owns the two pieces they share:
///
///  * `NodeBudget` — the single budget-accounting convention
///    (`++nodes > budget` charges and truncates; `nodes <= budget`
///    after the search means the result is a proof). All three engines
///    charge it.
///  * `TranspositionTable` — a bounded open-addressed memo over
///    64-bit signatures of reduced subproblems, storing one certified
///    lower bound on the additional cost to complete from that
///    subproblem. The two memoized engines, `minimize::reduce` and
///    `assign::assign_ustt`, consult it before expanding a node and
///    prune subtrees whose bound cannot strictly improve the incumbent.
///    On leaving a node whose search stayed within budget, each engine
///    stores `limit - g`, where `g` is the cost already spent and
///    `limit` the cost a completion must beat on exit: the search proved
///    that no completion below the node costs less, and when the subtree
///    improved the incumbent the value is the subtree's optimum. The
///    cover engine keeps no memo: on its budget-truncated charts the
///    probes cost more time than they saved, and bought no gates.
///
/// Soundness contract: an entry must not exceed the true optimal
/// completion cost of the subproblem it keys, regardless of which
/// search stored it, so keeping the larger of two entries is sound.
/// Because the engines replace incumbents only on strict improvement
/// and the table prunes only subtrees whose every completion is >= the
/// incumbent, a warm table can change node counts but never the
/// returned solution of a search that completes within budget — the
/// property `tests/test_search_property.cpp` checks differentially. A search that *exhausts* its budget keeps
/// whatever incumbent the pruned traversal reached, which is
/// warmth-dependent by nature; pipelines that promise byte-identical
/// reports therefore scope entries to one result computation (see
/// `clear()`) instead of sharing warmth across results.
///
/// It also owns the cooperative job deadline (`DeadlineScope`,
/// `poll_deadline`): a job stops, on its own thread, at the first
/// checkpoint past its budget. Checkpoints: `NodeBudget::charge()` every
/// 1024 nodes (all three engines); in the sharp path, per OFF cube as
/// the lazy OFF-cover loop grows it and again before the split scan,
/// and per maximality-filter cube; per `merge_levels` group, per
/// `compute_incidence` prime, per `greedy_cover` pick, per
/// `verify_equations` entry, per `run_procedures` 64-lane word, and per
/// `find_hazards` state.
namespace seance::search {

/// FNV-1a over raw bytes: the repo's one content hash. The search core
/// sits below every other library, so the api cache keys and corpus
/// fingerprints and the fleet's runner rotation and lease nonces all use
/// this copy. Its offset basis, 1469598103934665603, is one digit short
/// of the published 14695981039346656037; it stays, because every
/// persisted cache name and fingerprint was derived from it
/// (tests/test_search.cpp pins the values).
std::uint64_t fnv64(const void* data, std::size_t len);
inline std::uint64_t fnv64(std::string_view bytes) {
  return fnv64(bytes.data(), bytes.size());
}

/// Finalizing scramble of a single word (splitmix64 tail). Used to
/// derive well-distributed per-element hashes that are then combined
/// commutatively (plain sum) for order-independent set signatures.
/// Memo keys are built from it and `hash_mix`, so their values are
/// result-relevant (tests/test_search.cpp pins them).
inline std::uint64_t hash_u64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-dependent combine of two hashes.
inline std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) {
  return hash_u64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

struct TtStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;

  TtStats& operator+=(const TtStats& other) {
    hits += other.hits;
    misses += other.misses;
    stores += other.stores;
    evictions += other.evictions;
    return *this;
  }
};

/// Bounded open-addressed transposition table (the FlatCubeSet /
/// warm-tier idiom: power-of-two capacity, short linear probe window,
/// deterministic replacement). Not thread-safe — one instance per
/// worker.
///
/// Storage: one cache-line-aligned allocation. The pipeline's table is
/// 1 MiB (`core::SynthesisOptions::tt_mb`): it fits in a per-core L2
/// and spans 256 4 KiB pages, within the second-level TLB's reach, so
/// the random probes of a deep search need neither huge pages nor
/// prefetching.
class TranspositionTable {
 public:
  /// Sizes the table to the largest power-of-two slot count that fits
  /// in `bytes` (minimum one probe window). `bytes == 0` is allowed
  /// and yields a table that still works but thrashes; callers gate
  /// "off" by passing a null pointer instead.
  explicit TranspositionTable(std::size_t bytes);

  /// The slot count the constructor would pick for `bytes` — capacity
  /// is result-relevant (it decides evictions, which decide probe hits,
  /// which steer truncated searches), so callers that reuse a table
  /// across differently-configured requests compare this against
  /// capacity() to detect a mismatch without allocating.
  [[nodiscard]] static std::size_t slot_count_for(std::size_t bytes);

  /// Looks up `key`'s lower bound; counts a hit or a miss.
  std::optional<std::uint32_t> probe(std::uint64_t key);

  /// Records `lower_bound` for `key`, keeping the larger of it and any
  /// bound already stored; every call counts a store. A new key takes
  /// the first empty slot of its window, and the scan stops there as
  /// probe's does: slots are never emptied between clears and eviction
  /// writes the home slot, so no entry for the key can lie past an
  /// empty one. Evicts deterministically (home slot) when the probe
  /// window is full.
  void store(std::uint64_t key, std::uint32_t lower_bound);

  /// Drops every entry in O(1), keeping capacity and the cumulative
  /// stats: it bumps the table's epoch, which turns every slot stamped
  /// with an older one into an empty slot for probe, store and dump.
  /// Only when the 16-bit epoch wraps does it wipe the slots, so a
  /// stamp can never come back to life. Callers that must keep results
  /// reproducible clear at each result boundary (one batch job, one
  /// serve request): a *truncated* search legitimately returns a
  /// warmth-dependent incumbent, so entries may never outlive the result
  /// computation that stored them — only the allocation and the
  /// counters persist across jobs.
  void clear();

  const TtStats& stats() const { return stats_; }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return live_; }

  /// Every live (key, lower bound) entry in slot order, for tests.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> dump() const;

  /// Start of the slot storage (its alignment is tested).
  const void* storage() const { return slots_.get(); }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
    std::uint16_t epoch = 0;  // the clear() generation that wrote it
  };
  // The epoch lives in padding: slot_count_for divides by sizeof(Slot),
  // and capacity decides results, so a narrower or wider slot would
  // move them.
  static_assert(sizeof(Slot) == 16);

  struct FreeStorage {
    void operator()(Slot* p) const;
  };

  /// Replacement key for an incoming key of 0. It decides key 0's home
  /// slot, and with it which entries key 0 evicts, so it is
  /// result-relevant.
  static constexpr std::uint64_t kZeroKey = 0x9e3779b97f4a7c15ull;

  /// Remaps key 0 in place and returns the key's home slot index: the
  /// one rule probe and store share.
  std::size_t home(std::uint64_t& key) const {
    if (key == 0) key = kZeroKey;
    return static_cast<std::size_t>(key & mask_);
  }

  /// A slot holds an entry iff it was written since the last clear().
  /// `epoch_` is never 0, so never-written and wiped slots are empty.
  bool live(const Slot& s) const { return s.epoch == epoch_; }

  std::unique_ptr<Slot[], FreeStorage> slots_;
  std::size_t capacity_ = 0;
  std::uint64_t mask_ = 0;
  std::size_t live_ = 0;
  std::uint16_t epoch_ = 1;
  TtStats stats_;
};

/// Thrown by `poll_deadline()`. Checkpoints sit between whole updates,
/// so the unwound job leaves its transposition table usable.
struct DeadlineExceeded : std::runtime_error {
  DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
};

/// The calling thread's deadline, `timeout_ms` from construction until
/// the scope ends. Nested scopes: the earlier deadline wins. A budget
/// past the steady clock's range (about 292 years) sets none.
class DeadlineScope {
 public:
  using Clock = std::chrono::steady_clock;
  explicit DeadlineScope(double timeout_ms);
  ~DeadlineScope();
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

  /// True once this scope's own deadline has passed.
  [[nodiscard]] bool expired() const;

 private:
  Clock::time_point deadline_;  // this scope's own; max() = none
  Clock::time_point outer_;     // the thread's deadline before this scope
};

/// Throws `DeadlineExceeded` once the calling thread's deadline has
/// passed; a no-op when no `DeadlineScope` is active.
void poll_deadline();

/// Unified node/budget accounting. The single convention all three
/// engines share (the historical skew between `++nodes_ >= budget_`,
/// `nodes_ > budget_` pre-increment, and friends made `exact` either
/// off by one or unfalsifiable):
///
///   * `charge()` — call once per expanded node; when it returns true
///     the budget is exceeded and the caller must unwind, keeping its
///     incumbent. Every 1024th charge also polls the deadline.
///   * `exact()` — true iff the search never exceeded the budget, i.e.
///     the result is a proof rather than a truncation artifact.
class NodeBudget {
 public:
  explicit NodeBudget(std::size_t budget) : budget_(budget) {}

  bool charge() {
    if ((++nodes_ & 1023u) == 0) poll_deadline();
    return nodes_ > budget_;
  }
  bool exhausted() const { return nodes_ > budget_; }
  bool exact() const { return nodes_ <= budget_; }
  std::size_t nodes() const { return nodes_; }
  std::size_t budget() const { return budget_; }
  void reset() { nodes_ = 0; }

 private:
  std::size_t nodes_ = 0;
  std::size_t budget_;
};

}  // namespace seance::search
