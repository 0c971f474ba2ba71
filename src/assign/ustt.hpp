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

#include <cstdint>
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
  /// Require all state codes distinct (the "unicode" in USTT).  On by
  /// default per the paper.
  bool ensure_unique = true;
  /// Node budget for the exact cover search.
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
/// some variable separates them; and (if `require_unique`) codes are
/// distinct.  Fills `why` on failure.  Exposed for tests and as a
/// cross-check inside the synthesis pipeline.
[[nodiscard]] bool verify_ustt(const flowtable::FlowTable& table,
                               const std::vector<std::uint32_t>& codes,
                               int num_vars, bool require_unique = true,
                               std::string* why = nullptr);

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

/// Expands partitions into per-state codes (bit v = side of partition v).
[[nodiscard]] std::vector<std::uint32_t> codes_from_partitions(
    int num_states, const std::vector<Partition>& parts);

}  // namespace detail

}  // namespace seance::assign
