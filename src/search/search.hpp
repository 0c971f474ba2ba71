#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <tuple>
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
///    after the search means the result is a proof).
///  * `TranspositionTable` — a bounded open-addressed memo over
///    `fnv64` signatures of reduced subproblems, storing a
///    `Bound{None,Lower,Upper,Exact}` kind plus a value (the
///    additional cost to complete from that subproblem). Engines
///    consult it before expanding a node and prune subtrees whose
///    certified lower bound cannot strictly improve the incumbent.
///
/// Soundness contract: a `Lower`/`Upper`/`Exact` entry must bracket the
/// true optimal completion cost of the subproblem it keys, regardless
/// of which search stored it. Because the engines replace incumbents
/// only on strict improvement and the table prunes only subtrees whose
/// every completion is >= the incumbent, a warm table can change node
/// counts but never the returned solution of a search that completes
/// within budget — the property `tests/test_search_property.cpp`
/// checks differentially. A search that *exhausts* its budget keeps
/// whatever incumbent the pruned traversal reached, which is
/// warmth-dependent by nature; pipelines that promise byte-identical
/// reports therefore scope entries to one result computation (see
/// `clear()`) instead of sharing warmth across results.
namespace seance::search {

/// Bound kind for a memoized subproblem value (robocide `bound.h`
/// encoding: Exact == Lower | Upper).
enum class Bound : std::uint8_t {
  kNone = 0,
  kLower = 1,
  kUpper = 2,
  kExact = 3,
};

constexpr bool has_lower(Bound b) {
  return (static_cast<std::uint8_t>(b) &
          static_cast<std::uint8_t>(Bound::kLower)) != 0;
}

constexpr bool has_upper(Bound b) {
  return (static_cast<std::uint8_t>(b) &
          static_cast<std::uint8_t>(Bound::kUpper)) != 0;
}

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

/// FNV-1a over a packed word array (the natural signature input for
/// the engines' bitset state).
std::uint64_t hash_words(const std::uint64_t* words, std::size_t count);

/// Finalizing scramble of a single word (splitmix64 tail). Used to
/// derive well-distributed per-element hashes that are then combined
/// commutatively (plain sum) for order-independent set signatures.
std::uint64_t hash_u64(std::uint64_t x);

/// Order-dependent combine of two hashes.
std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b);

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
class TranspositionTable {
 public:
  struct Entry {
    Bound bound = Bound::kNone;
    std::uint32_t value = 0;
  };

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

  /// Looks up `key`; counts a hit or a miss.
  std::optional<Entry> probe(std::uint64_t key);

  /// Inserts or merges an entry for `key`. Merge rules keep the most
  /// informative bound: Exact wins; Lower keeps the max value; Upper
  /// keeps the min; a Lower meeting an Upper at the same value
  /// promotes to Exact; otherwise the Lower side is preferred (it is
  /// the pruning side). Evicts deterministically (home slot) when the
  /// probe window is full.
  void store(std::uint64_t key, Bound bound, std::uint32_t value);

  /// Drops every entry, keeping capacity and the cumulative stats.
  /// Callers that must keep results reproducible clear at each result
  /// boundary (one batch job, one serve request): a *truncated* search
  /// legitimately returns a warmth-dependent incumbent, so entries may
  /// never outlive the result computation that stored them — only the
  /// allocation and the counters persist across jobs.
  void clear();

  const TtStats& stats() const { return stats_; }
  void reset_stats() { stats_ = TtStats{}; }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const { return live_; }

  /// Every live entry, for the bound-soundness audit in tests.
  std::vector<std::tuple<std::uint64_t, Bound, std::uint32_t>> dump() const;

 private:
  struct Slot {
    std::uint64_t key = 0;  // 0 == empty (incoming 0 keys are remapped)
    std::uint32_t value = 0;
    Bound bound = Bound::kNone;
  };

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  std::size_t live_ = 0;
  TtStats stats_;
};

/// Unified node/budget accounting. The single convention all three
/// engines share (the historical skew between `++nodes_ >= budget_`,
/// `nodes_ > budget_` pre-increment, and friends made `exact` either
/// off by one or unfalsifiable):
///
///   * `charge()` — call once per expanded node; when it returns true
///     the budget is exceeded and the caller must unwind, keeping its
///     incumbent.
///   * `exact()` — true iff the search never exceeded the budget, i.e.
///     the result is a proof rather than a truncation artifact.
class NodeBudget {
 public:
  explicit NodeBudget(std::size_t budget) : budget_(budget) {}

  bool charge() { return ++nodes_ > budget_; }
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
