// State minimization of incompletely specified flow tables (SEANCE step 2).
//
// The paper removes redundant states "using state machine minimization
// methods [8]" (Kohavi).  For incompletely specified machines the problem
// is a minimal *closed cover* by compatibles, not a partition:
//   1. pair-chart compatibility fixpoint,
//   2. maximal compatibles (clique enumeration),
//   3. prime compatibles with Grasselli-Luccio dominance,
//   4. branch-and-bound minimal closed cover,
//   5. reduced-table construction (re-normalized to normal mode).
//
// This header is the packed-word production path: the pair chart is a
// vector of per-state StateSet adjacency rows kept at a fixpoint by a
// worklist over an implication index, prime generation walks the submask
// lattice of the maximal compatibles exactly once (bitmap dedup, implied
// classes computed lazily and memoized per candidate), and the
// closed-cover search keeps an incremental obligation frontier instead of
// rescanning its chosen set at every node.  The seed implementation is
// retained verbatim (plus hot-path bugfixes) as the test-only oracle
// tests/oracles/minimize/reduce_reference.hpp;
// tests/test_minimize_equivalence.cpp holds the two paths equal — same
// pair chart, same prime list, same search tree (node counts), same
// class count.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flowtable/table.hpp"
#include "search/search.hpp"

namespace seance::minimize {

/// Set of states as a bitmask (state i = bit i); bounds tables to
/// flowtable::kMaxStates rows.
using StateSet = std::uint64_t;

/// Pair-compatibility chart as per-state adjacency rows: bit t of row s is
/// set iff states s and t are compatible (the diagonal is set — every
/// state is self-compatible).  Computed by seeding output conflicts and
/// propagating implied-pair incompatibility with a worklist over a
/// reverse-implication index, so each (pair, column) edge is scanned a
/// constant number of times instead of once per fixpoint sweep.
[[nodiscard]] std::vector<StateSet> compatibility_rows(
    const flowtable::FlowTable& table);

/// True iff all states in `set` are pairwise compatible.
[[nodiscard]] bool is_compatible_set(const flowtable::FlowTable& table,
                                     const std::vector<StateSet>& rows,
                                     StateSet set);

/// Maximal compatibles (maximal cliques of the pair-compatibility graph).
[[nodiscard]] std::vector<StateSet> maximal_compatibles(
    const flowtable::FlowTable& table, const std::vector<StateSet>& rows);

/// The implied classes Γ(C): for each input column, the set of successor
/// states of C's members; only classes with >= 2 states not contained in C
/// impose closure obligations and are returned.
[[nodiscard]] std::vector<StateSet> implied_classes(
    const flowtable::FlowTable& table, StateSet compatible);

struct PrimeCompatible {
  StateSet states = 0;
  std::vector<StateSet> implied;  ///< Γ(states)
};

/// Prime compatibles: compatibles not dominated by a strict superset with
/// closure obligations no stronger than their own (Grasselli-Luccio).
/// Every candidate (a nonempty submask of some maximal compatible) is
/// visited exactly once; implied classes are computed lazily (a superset
/// prime with no obligations excludes without them) and memoized.
[[nodiscard]] std::vector<PrimeCompatible> prime_compatibles(
    const flowtable::FlowTable& table, const std::vector<StateSet>& rows);

struct ReductionResult {
  flowtable::FlowTable reduced;
  /// Chosen closed cover; class i becomes reduced state i.
  std::vector<StateSet> classes;
  /// For each original state, one reduced state whose class contains it.
  std::vector<int> state_to_class;
  /// Closed-cover branch-and-bound accounting: nodes expanded, and whether
  /// the search completed inside the budget (false = greedy incumbent or
  /// best-so-far returned).  The reference and bitset engines must agree
  /// on `cover_nodes` — the equivalence suite pins it.
  std::size_t cover_nodes = 0;
  bool cover_exact = true;
};

struct ReduceOptions {
  /// Node budget for the exact branch-and-bound closed-cover search;
  /// exceeded -> greedy completion.
  std::size_t node_budget = 1'000'000;
};

/// Full minimization.  The input must be normal-mode; the result is
/// normal-mode again (chains introduced by merging are re-normalized).
/// Throws std::invalid_argument if a specified entry's output vector is
/// neither empty (= all don't-care) nor exactly num_outputs() wide.
///
/// `tt` (optional) memoizes closed-cover subproblem bounds keyed by the
/// chosen-class set; with `tt == nullptr` the search is node-for-node
/// identical to the memoization-free engine (the equivalence suite pins
/// it against the reference oracle).
[[nodiscard]] ReductionResult reduce(const flowtable::FlowTable& table,
                                     const ReduceOptions& options = {},
                                     search::TranspositionTable* tt = nullptr);

/// Checks that `classes` is a closed cover of the table (every state
/// covered, every implied class inside some chosen class); fills `why` on
/// failure.  Exposed for tests.
[[nodiscard]] bool is_closed_cover(const flowtable::FlowTable& table,
                                   const std::vector<StateSet>& classes,
                                   std::string* why = nullptr);

namespace detail {

/// Shared back half of reduce()/reference_reduce(): orders the chosen
/// classes deterministically — (countr_zero, full value), the full-value
/// tiebreak pins the relative order of overlapping classes that share
/// their lowest member across stdlib sort implementations — then builds
/// the reduced table, merged outputs, and the state_to_class map.
[[nodiscard]] ReductionResult build_reduction(const flowtable::FlowTable& table,
                                              std::vector<StateSet> classes);

/// Validates output-vector widths once up front: every specified entry
/// must carry either an empty vector (all don't-care) or exactly
/// num_outputs() trits.  Throws std::invalid_argument naming the entry.
/// merged_output_bit and outputs_conflict both rely on this invariant.
void validate_output_widths(const flowtable::FlowTable& table);

/// Outputs of two entries conflict iff some bit is 0 in one and 1 in the
/// other (empty/short vectors are all-don't-care past their end).
[[nodiscard]] bool outputs_conflict(const flowtable::Entry& a,
                                    const flowtable::Entry& b);

/// Bron-Kerbosch maximal-clique enumeration over adjacency rows
/// (diagonal must be clear).  Shared by both pair-chart representations.
void bron_kerbosch(const std::vector<StateSet>& adj, StateSet r, StateSet p,
                   StateSet x, std::vector<StateSet>& out);

}  // namespace detail

}  // namespace seance::minimize
