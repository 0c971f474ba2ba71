// Reference exact cover search — the branch and bound as it was before
// the compacted residual chart.
//
// The production solver (logic/cover_engine.cpp) renumbers the rows
// left after the root reduction in fail-first order and searches over
// bitsets of those rows only.  This version keeps every bitset at the
// full chart width and walks the fail-first order row by row.  It is
// kept ONLY as an oracle: the differential test
// (tests/test_cover_engine.cpp) asserts both return the same columns,
// flags, node counts and lower bounds.  It is built only into the
// test-only seance_oracles library.  One line differs from the solver
// it replaced: the unit-row pass takes a row's column bitset through
// data(), because on a chart with no columns that bitset is empty and
// operator[] on it traps under _GLIBCXX_ASSERTIONS.

#pragma once

#include <cstddef>

#include "logic/cover_engine.hpp"

namespace seance::logic {

/// Same contract as solve_min_cover.
[[nodiscard]] MinCoverResult reference_solve_min_cover(
    const CoverTable& table, std::size_t node_budget);

}  // namespace seance::logic
