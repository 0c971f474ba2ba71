// Tracey USTT (unicode single-transition-time) state assignment
// (SEANCE step 3; Tracey 1966 [19]).
//
// In USTT operation a transition s -> t fires all differing state
// variables at once.  The assignment is critical-race-free iff for every
// pair of transitions (s -> t) and (u -> v) in the same input column with
// disjoint state pairs, some state variable takes one value on {s, t} and
// the opposite value on {u, v}: the variable *separates* the transition
// "dichotomy" ({s,t}; {u,v}).  (Stable states count as degenerate
// transitions, separating in-flight transitions from parked rows.)
//
// The synthesis problem is: find the minimum number of two-block
// partitions of the state set covering every dichotomy.  We generate the
// dichotomies, reduce by dominance, merge compatible dichotomies into
// maximal classes and run an exact branch-and-bound cover (greedy
// fallback), then complete partial codes and enforce unicode (unique row
// codes) by re-solving with extra separation constraints when necessary.
//
// Every search is certified with Tracey's own formulation: a set cover
// whose rows are the dichotomies and whose columns are the complete
// two-block partitions of the states they mention
// (detail::tracey_certificate), whose lower bound holds even when its own
// search is truncated.  It is built when that chart fits the exact-cover
// cell ceiling logic::kExactCellLimit, as the equation covers are.  A
// greedy (or first-fit extended) incumbent at the bound is returned as
// proven without searching; the branch and bound otherwise stops as soon
// as an incumbent reaches the bound, returning the classes an unbounded
// search would (incumbents change only on strict improvement); and a
// search that runs out of budget above the cover's own solution returns
// the cover's partitions.  The search also looks only for solutions no
// larger than the cover's own, so it reaches a class count the cover
// proves without first walking the larger ones.
// Past the cell ceiling the search runs unbounded.
//
// The branch and bound tests fits on bit planes (detail::FitPlanes):
// fitting a class is the AND of the pairwise fits of its members, so each
// open class keeps one bit per dichotomy and orientation, narrowed by an
// AND as members join.  When no class may be opened any more, a node is
// pruned as soon as some unplaced dichotomy fits no class in either
// orientation (forward checking; Haralick and Elliott, "Increasing tree
// search efficiency for constraint satisfaction problems", AI 1980).
// Both prunes drop only subtrees without a leaf below the current limit,
// so a search that finishes within its budget returns the classes a
// plain depth-first search does.
//
// This header is the production path: dominance reduction is
// popcount-bucketed (only a strictly larger dichotomy can dominate, so
// each dichotomy is tested against the larger buckets only — and the
// common largest bucket is never scanned at all), and the partition
// search resumes incrementally when the uniqueness-completion loop adds
// separation requirements: all colliding pairs of a round are collected
// at once, placed into the incumbent solution first (an exact solution
// that absorbs them without a new class stays exact), and only otherwise
// is the branch and bound re-entered — warm-started from that incumbent.
// The seed implementation is retained as the test-only oracle
// tests/oracles/assign/ustt_reference.hpp;
// tests/test_assign_equivalence.cpp holds the two paths to the same
// dichotomy set, the same variable count, and verify_ustt-valid codes on
// both sides.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "flowtable/table.hpp"
#include "minimize/reduce.hpp"  // StateSet
#include "search/search.hpp"

namespace seance::assign {

using minimize::StateSet;

/// An unordered pair of disjoint state sets that must be separated by at
/// least one state variable.
struct Dichotomy {
  StateSet a = 0;
  StateSet b = 0;

  [[nodiscard]] bool valid() const { return a != 0 && b != 0 && (a & b) == 0; }
  friend bool operator==(const Dichotomy&, const Dichotomy&) = default;
};

/// All transition dichotomies of the table, one per unordered pair of
/// non-interacting transitions sharing an input column (deduplicated,
/// dominance-reduced: a dichotomy implied by a larger one is dropped).
[[nodiscard]] std::vector<Dichotomy> transition_dichotomies(
    const flowtable::FlowTable& table);

/// A candidate state variable: states in `zero` get 0, states in `ones`
/// get 1, remaining states are free.
struct Partition {
  StateSet zeros = 0;
  StateSet ones = 0;
};

/// True iff the partition separates the dichotomy (a on one side, b on the
/// other).
[[nodiscard]] bool separates(const Partition& p, const Dichotomy& d);

struct AssignOptions {
  /// Node budget for the partition search's branch and bound.  It does
  /// not bound Tracey's certificate, which has its own
  /// (detail::kCertificateNodeBudget), so a zero budget still certifies.
  std::size_t node_budget = 500'000;
};

struct Assignment {
  /// code[s] = state code, bit v = value of state variable v.
  std::vector<std::uint32_t> codes;
  int num_vars = 0;
  /// The solved partitions, one per variable.
  std::vector<Partition> partitions;
  bool exact = true;  ///< false if the greedy fallback produced the cover
  /// Uniqueness-completion rounds that found at least one code collision
  /// and re-solved.  The production path collects every colliding pair
  /// per round, so this is bounded by the depth of the collision
  /// structure rather than the number of colliding pairs.
  int completion_rounds = 0;
};

/// Computes a USTT assignment.  Throws std::runtime_error if the table has
/// incompatible requirements (cannot happen for well-formed normal-mode
/// tables).
///
/// `tt` (optional) memoizes partition-search subproblem bounds; with
/// `tt == nullptr` the search is node-for-node identical to the
/// memoization-free engine.
[[nodiscard]] Assignment assign_ustt(const flowtable::FlowTable& table,
                                     const AssignOptions& options = {},
                                     search::TranspositionTable* tt = nullptr);

/// Verifies USTT critical-race freedom of an arbitrary code assignment:
/// for every input column and every pair of non-interacting transitions,
/// some variable separates them; and codes are distinct.  Fills `why` on
/// failure.  Exposed for tests and as a cross-check inside the synthesis
/// pipeline.
[[nodiscard]] bool verify_ustt(const flowtable::FlowTable& table,
                               const std::vector<std::uint32_t>& codes,
                               int num_vars, std::string* why = nullptr);

namespace detail {

/// Orders the pair so a < b (blocks are disjoint and non-empty, so the
/// masks never compare equal).
[[nodiscard]] Dichotomy canonical(Dichotomy d);

/// States that transiently park at their own code inside `column` while a
/// multiple-input-change transition is in flight (one singleton mask per
/// state).  Shared by dichotomy generation and verify_ustt.
[[nodiscard]] std::vector<StateSet> transient_parkers(
    const flowtable::FlowTable& table, int column);

/// Deduplicated, canonically sorted transition dichotomies *before*
/// dominance reduction — the common input of the production and reference
/// dominance passes, kept shared so the two reductions are compared on
/// identical input.
[[nodiscard]] std::vector<Dichotomy> raw_dichotomies(
    const flowtable::FlowTable& table);

/// Whether dichotomy d can join partition p without a state on both
/// sides: a on the zero side and b on the one side, or the reverse when
/// `flip` is set.
[[nodiscard]] bool fits(const Partition& p, const Dichotomy& d, bool flip);

/// Expands partitions into per-state codes (bit v = side of partition v).
[[nodiscard]] std::vector<std::uint32_t> codes_from_partitions(
    int num_states, const std::vector<Partition>& parts);

/// Node budget for the certificate's cover search.  Proving the golden
/// hardest-20x6-0003's six-partition optimum takes about 906k nodes.  A
/// search that spends the whole budget on a chart near the cell ceiling
/// took at most 0.1 s in the sweep of generated tables and random charts
/// recorded in BENCH_31.json (`certificate_cost_sweep`).
inline constexpr std::size_t kCertificateNodeBudget = 2'000'000;

/// Longest dichotomy list the partition search takes.  Its planes hold
/// 2·n² bits of pairwise fits and as many again for the undo stack (one
/// class's planes per depth), plus 2n bits per open class: about 32 MiB
/// at this limit.  A longer list throws std::length_error before any
/// plane is allocated.  The golden and seed-7 corpora search at most 178
/// and 776 dichotomies; reduced generated tables pass the limit from
/// about 45 states and 4 inputs, where their equations already exceed
/// logic::kMaxVars.
inline constexpr std::size_t kMaxSearchDichotomies = 8192;

/// Pairwise fit planes over an ordered dichotomy list, one bit per
/// dichotomy.  A class's fit planes are two such rows, one per
/// orientation: bit j of plane r is set iff dichotomy j fits the class
/// at orientation r (the `flip` of the partition search, which puts b on
/// the zero side).  Fitting a class is the AND of fitting each member,
/// so the planes of a class follow from its members' rows here.
class FitPlanes {
 public:
  /// Throws std::length_error past kMaxSearchDichotomies.
  explicit FitPlanes(const std::vector<Dichotomy>& dichotomies);

  /// 64-bit words per plane; a class's two planes take 2 * words().
  [[nodiscard]] std::size_t words() const { return words_; }

  /// Writes the planes of a class opened with dichotomy m (unflipped).
  /// Only the words holding dichotomies `from` on are written: a search
  /// at index `from` never reads the bits of earlier dichotomies again.
  void open(std::uint64_t* planes, std::size_t m, std::size_t from) const;

  /// Narrows a class's planes once dichotomy m joins it at `flip`, in the
  /// words holding dichotomies `from` on.
  void merge(std::uint64_t* planes, std::size_t m, bool flip,
             std::size_t from) const;

  /// Whether dichotomy j fits the class at `flip`.
  [[nodiscard]] bool fits(const std::uint64_t* planes, std::size_t j,
                          bool flip) const {
    return (planes[(flip ? words_ : 0) + j / 64] >> (j % 64)) & 1u;
  }

  /// Whether some dichotomy from `first` on fits none of `num_classes`
  /// consecutive classes' planes in either orientation.
  [[nodiscard]] bool some_fits_nowhere(const std::uint64_t* planes,
                                       std::size_t num_classes,
                                       std::size_t first) const;

 private:
  std::size_t count_ = 0;
  std::size_t words_ = 0;
  /// Row (m, r) at (2m + r) * words_: the planes of a class made of m.
  std::vector<std::uint64_t> rows_;
};

/// Tracey's cover of a dichotomy set: its certified lower bound on the
/// number of partitions, and the cover's own partitions (complete over the
/// mentioned states; empty if the cover search found none in budget).
struct Certificate {
  std::size_t bound = 0;
  std::vector<Partition> partitions;
};

/// Solves Tracey's formulation: one row per dichotomy, one column per
/// complete two-block partition of the n states the dichotomies mention
/// (n = the highest state + 1), with state n-1 always on the zero side so
/// mirror images are dropped.  Every class the partition search builds
/// extends to a complete partition, so the cover's optimum is the minimum
/// class count.  nullopt when there are no dichotomies or the chart has
/// more than logic::kExactCellLimit cells.  Polls the job deadline
/// through the cover search's node budget.
[[nodiscard]] std::optional<Certificate> tracey_certificate(
    const std::vector<Dichotomy>& dichotomies);

/// The partition search alone, as assign_ustt runs it before the codes
/// are completed: greedy incumbent, Tracey's certificate, then the branch
/// and bound, on `dichotomies` sorted most-constrained-first.
struct PartitionResult {
  std::vector<Partition> classes;
  bool exact = true;   ///< as Assignment::exact
  std::size_t nodes = 0;  ///< nodes the branch and bound charged (0: none ran)
  bool truncated = false;  ///< the branch and bound ran out of budget
};
[[nodiscard]] PartitionResult solve_partitions(
    std::vector<Dichotomy> dichotomies, std::size_t node_budget,
    search::TranspositionTable* tt = nullptr);

}  // namespace detail

}  // namespace seance::assign
