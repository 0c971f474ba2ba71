// Scalar cover-level ternary verifier, retained as the differential
// oracle for the bit-parallel verifiers in sim/ternary_verify.hpp and
// sim/ternary_netsim.hpp.
//
// This is the one-transition-at-a-time implementation the production
// code replaced: each transition gets its own Val3 state vector, and
// Procedures A and B each iterate the covers (eval3) Gauss-Seidel style,
// fsv first, then y0..yN-1, until a pass changes nothing or the
// 4 * (N + 2) bound runs out.  Both production verifiers now share one
// 64-lane driver, so a bug in that driver would show in both of them
// alike; tests/test_ternary_netsim.cpp compares them against this
// oracle, which shares no evaluation code with the driver.  It is built
// only into the test-only seance_oracles library.

#pragma once

#include "core/synthesize.hpp"
#include "logic/ternary.hpp"
#include "sim/ternary_verify.hpp"

namespace seance::sim {

namespace detail {

/// The scalar slot-update rule.  Widening must be monotone in the
/// information order (0,1 below X): an X never narrows back to a binary
/// value mid-widening, and a binary slot whose next value differs — even
/// if the next value is binary — goes to X, because "the value moved" is
/// exactly what some delay assignment can stretch into a glitch.
/// (An earlier version wrote `next` whenever the slot was already X,
/// which let a later pass narrow an X back to binary and under-report
/// Procedure-A violations; the gate-level differential in
/// test_ternary_netsim pins the monotone rule.)  detail::update_planes
/// must agree with it lane by lane.
inline bool update_slot(logic::Val3& slot, logic::Val3 next, bool widen_only) {
  if (widen_only) {
    if (slot == logic::Val3::kX || next == slot) return false;
    slot = logic::Val3::kX;
    return true;
  }
  if (next == slot) return false;
  slot = next;
  return true;
}

}  // namespace detail

/// Same contract and the same report, byte for byte, as ternary_verify.
[[nodiscard]] TernaryReport ternary_verify_reference(
    const core::FantomMachine& machine, bool fsv_low = true);

}  // namespace seance::sim
