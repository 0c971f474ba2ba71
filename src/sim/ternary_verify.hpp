// Static hazard verification by Eichelberger's ternary procedure [5].
//
// Complements the event-driven simulator with a delay-independent check:
// for every stable-state transition of a synthesized machine,
//   Procedure A drives the changing inputs to X and iterates the
//   feedback functions to a ternary fixpoint — any state variable that
//   is supposed to stay invariant must remain at its binary value
//   (X here = a function M-hazard some delay assignment can realize);
//   Procedure B then applies the final input vector and iterates again —
//   the machine must resolve to exactly the destination code.
//
// Because ternary evaluation abstracts *all* delay assignments at once,
// a PASS here is stronger than any number of simulated walks; the paper's
// fsv=0 hold semantics is precisely what makes Procedure A succeed on
// FANTOM machines.
//
// The procedures run on Kleene bitplanes, 64 transitions to a word, in
// one driver (detail::run_procedures) that this cover-level verifier and
// the gate-level one in ternary_netsim.hpp share; they differ only in
// how they compute a feedback variable's next value.  Each Gauss-Seidel
// pass updates fsv first, then y0..yN-1, and a word keeps passing until
// no live lane changes or the 4 * (N + 2) bound runs out.  A lane that
// has a pass without change is at its fixpoint and stays there, so each
// lane ends exactly where iterating its transition alone would stop, and
// it is a fixpoint overrun iff it changed on every one of the bound
// passes.  Lanes past the last transition are masked out of every
// change, overrun and violation test.

#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/synthesize.hpp"

namespace seance::sim {

struct TernaryReport {
  int transitions_checked = 0;
  /// Invariant state bits that went to X during Procedure A (function
  /// M-hazards reachable under some delay assignment).
  int procedure_a_violations = 0;
  /// Transitions whose Procedure-B fixpoint is not exactly the
  /// destination code (critical race / undetermined settling).
  int procedure_b_violations = 0;
  /// Fixpoint iterations that exhausted their bound without converging.
  /// Kleene feedback cannot overrun — A only widens, and B, starting
  /// from A's fixpoint, only narrows, so each settles within N + 2
  /// passes — but a non-zero count would mean the analysis of those
  /// transitions is unsound, so clean() reports false.
  int fixpoint_overruns = 0;
  std::string first_failure;  ///< human-readable description, empty if clean

  [[nodiscard]] bool clean() const {
    return procedure_a_violations == 0 && procedure_b_violations == 0 &&
           fixpoint_overruns == 0;
  }
  bool operator==(const TernaryReport&) const = default;
};

namespace detail {

/// A ternary value in each of 64 lanes: bit k of `one` says lane k may
/// be 1, bit k of `zero` that it may be 0.  0 = (0,1), 1 = (1,0),
/// X = (1,1).  AND is one&/zero|, OR the dual, NOT swaps the planes.
struct Planes {
  std::uint64_t one = 0;
  std::uint64_t zero = ~std::uint64_t{0};
};

/// The slot-update rule, per lane; returns the lanes that changed.
/// Widening (Procedure A) is the join in the information order: a binary
/// slot whose next value differs goes to X — "the value moved" is what
/// some delay assignment can stretch into a glitch — and an X never
/// narrows back.  Narrowing (Procedure B) writes the next value through.
inline std::uint64_t update_planes(Planes& slot, Planes next, bool widen_only) {
  std::uint64_t changed;
  if (widen_only) {
    changed = (next.one & ~slot.one) | (next.zero & ~slot.zero);
    slot.one |= next.one;
    slot.zero |= next.zero;
  } else {
    changed = (next.one ^ slot.one) | (next.zero ^ slot.zero);
    slot = next;
  }
  return changed;
}

/// How a verifier computes the next value of a feedback variable.
class Feedback {
 public:
  virtual ~Feedback() = default;
  /// Called once before the first pass, and only when at least one
  /// transition is checked.  fsv's next value is asked for only when
  /// `fsv_low` is false.
  virtual void prepare(bool fsv_low) { (void)fsv_low; }
  /// The next value of variable `var` (layout numbering: a state
  /// variable or fsv) over the current values `vars` of every variable.
  [[nodiscard]] virtual Planes next(int var, std::span<const Planes> vars) = 0;
};

/// Procedures A and B over every specified stable-state transition of
/// `machine`, 64 at a time, with the next values from `feedback`.
/// `fsv_low` pins fsv to 0 instead of asking `feedback` for it.
[[nodiscard]] TernaryReport run_procedures(const core::FantomMachine& machine,
                                           bool fsv_low, Feedback& feedback);

}  // namespace detail

/// Runs both procedures over every specified stable-state transition.
/// `fsv_low` pins fsv to 0 during Procedure A (the protection window —
/// the paper's timing discipline keeps fsv low for the duration of the
/// input transient); when false fsv is evaluated ternarily as well.
[[nodiscard]] TernaryReport ternary_verify(const core::FantomMachine& machine,
                                           bool fsv_low = true);

}  // namespace seance::sim
