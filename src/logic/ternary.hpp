// Ternary (0/1/X) evaluation — Eichelberger's hazard-detection algebra.
//
// The paper cites Eichelberger [5] for hazard classification.  A SOP cover
// is free of a static hazard for an input transition iff its ternary value
// with the changing variables at X is determinate.  We use this both as a
// unit-testable oracle for the all-prime-implicant property of fsv covers
// (single-variable moves can never glitch) and inside the simulator's
// static checks.

#pragma once

#include <span>

#include "logic/cube.hpp"
#include "logic/expr.hpp"

namespace seance::logic {

enum class Val3 : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

[[nodiscard]] Val3 and3(Val3 a, Val3 b);
[[nodiscard]] Val3 or3(Val3 a, Val3 b);
[[nodiscard]] Val3 not3(Val3 a);

/// Ternary value of a cover with variable i bound to `vals[i]`.
[[nodiscard]] Val3 eval3(const Cover& cover, std::span<const Val3> vals);

/// Ternary value of an expression tree.
[[nodiscard]] Val3 eval3(const ExprPtr& e, std::span<const Val3> vals);

/// Eichelberger static check for the input transition `from` -> `to`:
/// variables that differ are driven to X.  Returns true iff the cover
/// cannot glitch during the transition:
///  * static transitions (f(from) == f(to)) must evaluate determinate;
///  * dynamic transitions are conservatively accepted only when the
///    ternary value is determinate or the function is single-cube-monotone
///    over the transition cube (no 1-0-1 / 0-1-0 excursion possible).
[[nodiscard]] bool ternary_transition_clean(const Cover& cover, Minterm from,
                                            Minterm to);

/// Static-1 hazard freedom for all single-variable moves inside the ON-set:
/// true iff every pair of adjacent ON minterms lies in a single cube.
/// This is the guarantee the paper buys by keeping *all* prime implicants
/// in the fsv cover (paper §5.3 step 7).  Exhaustive over 2^num_vars: the
/// function is read from a packed truth table (logic/truth_table.hpp) and
/// each pair from a per-minterm mask of the free variables of the cubes
/// containing it, 4 bytes per minterm.
[[nodiscard]] bool sic_static1_hazard_free(const Cover& cover);

/// Adds consensus implicants (paper §2.1: "adding consensus gates") until
/// the cover is static-1 hazard-free for single-variable moves.  The
/// cover's ON-set is taken as the exact function (don't-cares were
/// resolved when the cover was selected); each added cube is an implicant
/// of that function, greedily enlarged toward a prime.  Returns the
/// number of cubes added.  Pairs are visited in increasing (minterm,
/// variable) order and each added cube updates the pair masks at once,
/// so the cubes added, and their order, are those of a scan that asks the
/// cover for a containing cube at every pair (the test-only oracle
/// tests/oracles/logic/consensus_reference.hpp).  The enlargement's
/// implicant test reads 64 minterms per word of the truth table.
int make_sic_static1_hazard_free(Cover& cover);

}  // namespace seance::logic
