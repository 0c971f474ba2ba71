// Reference exact cover search — the branch and bound as it was before
// the compacted residual chart and the greedy ceiling.
//
// The production solver (logic/cover_engine.cpp) renumbers the rows
// left after the root reduction in fail-first order and searches over
// bitsets of those rows only.  This version keeps every bitset at the
// full chart width and walks the fail-first order row by row.  It is
// kept ONLY as an oracle (tests/test_cover_engine.cpp), built only into
// the test-only seance_oracles library.  With its greedy ceiling on, the
// differential test asserts both return the same columns, flags, node
// counts and lower bounds.  With it off, it is the search as it was
// before the ceiling, and a property test bounds the production
// results by its own.  One line differs from the solver it replaced:
// the unit-row pass takes a row's column bitset through data(), because
// on a chart with no columns that bitset is empty and operator[] on it
// traps under _GLIBCXX_ASSERTIONS.

#pragma once

#include <cstddef>

#include "logic/cover_engine.hpp"

namespace seance::logic {

/// Same contract as solve_min_cover when `greedy_ceiling` is set: the
/// greedy cover of the residual chart (here an eager argmax scan over
/// the full-width bitsets) bounds the search until a cover of at most
/// its size is reached, and is returned when none is.  Without it, the
/// search starts with no incumbent, as solve_min_cover did before the
/// ceiling, and a budget that runs out before the first complete cover
/// returns found = false.
[[nodiscard]] MinCoverResult reference_solve_min_cover(
    const CoverTable& table, std::size_t node_budget, bool greedy_ceiling);

}  // namespace seance::logic
