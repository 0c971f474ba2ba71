// Seed implementation of the USTT assignment, retained as the
// differential oracle for the production path in ustt.hpp (the same role
// minimize/reduce_reference.hpp plays for state minimization).
//
// The algorithms are the original all-pairs O(D^2) dominance sweep and
// the one-collision-per-round uniqueness completion that rebuilds the
// partition search from scratch for every colliding pair.  Both paths
// consume detail::raw_dichotomies, so tests/test_assign_equivalence.cpp
// compares the dominance reductions on identical input and holds the two
// engines to the same kept set, the same variable count, and
// verify_ustt-valid codes.

#pragma once

#include <vector>

#include "assign/ustt.hpp"

namespace seance::assign {

/// Dominance-reduced transition dichotomies via the seed's all-pairs
/// sweep.  Same contract (and, by construction, same result) as
/// transition_dichotomies().
[[nodiscard]] std::vector<Dichotomy> reference_transition_dichotomies(
    const flowtable::FlowTable& table);

/// The seed's partition search on its own: greedy incumbent, then a plain
/// depth-first branch and bound (no certificate, fit planes, cap or
/// forward check) over the same most-constrained-first order.  Sets
/// `finished` iff it ran to completion within `budget` nodes.
[[nodiscard]] std::vector<Partition> reference_partitions(
    std::vector<Dichotomy> dichotomies, std::size_t budget, bool* finished);

/// Full seed-path assignment: fresh partition search per uniqueness
/// round, one colliding pair added per round.  Same contract as
/// assign_ustt(); completion_rounds counts the rounds that found a
/// collision (= pairs added, one at a time).
[[nodiscard]] Assignment reference_assign_ustt(const flowtable::FlowTable& table,
                                               const AssignOptions& options = {});

}  // namespace seance::assign
