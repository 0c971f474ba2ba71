// Reference consensus repair — the per-minterm SIC static-1 pass as it
// was before packed truth tables (logic/truth_table.hpp).
//
// The production pass (logic/ternary.cpp) reads the function from a
// packed truth table and answers "does one cube contain this pair" from
// a per-minterm mask of free variables.  This version evaluates the
// cover minterm by minterm and scans the cover for a containing cube at
// every pair.  It is kept ONLY as an oracle: the differential suite
// (tests/test_consensus_equivalence.cpp) asserts both passes add the
// same cubes in the same order and return the same values.  It is
// built only into the test-only seance_oracles library.

#pragma once

#include "logic/cube.hpp"

namespace seance::logic {

/// Same contract as sic_static1_hazard_free.
[[nodiscard]] bool reference_sic_static1_hazard_free(const Cover& cover);

/// Same contract as make_sic_static1_hazard_free.
int reference_make_sic_static1_hazard_free(Cover& cover);

}  // namespace seance::logic
