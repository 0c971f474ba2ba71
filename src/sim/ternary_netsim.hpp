// Gate-level ternary (0/1/X) verification of the exported netlist.
//
// The cover-level verifier (ternary_verify.hpp) runs Eichelberger's
// Procedures A and B against the synthesized *equations*; this one runs
// the same procedures against the structural *gate network* that
// build_fantom assembles and to_verilog exports — the artifact a
// downstream tool actually elaborates.  Feedback is cut exactly where
// the netlist cuts it: at the y placeholder BUFs and at the fsv net.
// Each cut's cone is compiled once per call into a flat postorder op
// list, and the shared 64-lane driver (detail::run_procedures) sweeps
// it on Kleene bitplanes in the same Gauss-Seidel order as the
// cover-level iteration (fsv first, then y0..yN-1), with the same
// per-lane fixpoint and overrun rule.  So a machine whose factored gate
// forms are Kleene-equivalent to its covers produces an identical
// TernaryReport.  Running both and diffing the reports is the
// round-trip oracle: cover-level verdict, gate-level verdict on the
// built netlist, and gate-level verdict on the re-imported
// parse_verilog(to_verilog(...)) netlist must agree.

#pragma once

#include "core/synthesize.hpp"
#include "netlist/netlist.hpp"
#include "sim/ternary_verify.hpp"

namespace seance::sim {

/// Runs Procedures A and B over every specified stable-state transition
/// of `machine`, evaluating the gate network instead of the covers.
/// `netlist` must expose the FANTOM observation points build_fantom
/// registers: inputs named x0..x{j-1}, outputs "y0".."y{N-1}" and (when
/// the layout has fsv) "fsv".  Works on a freshly built netlist or on
/// one re-imported through parse_verilog.  `fsv_low` pins the fsv *net*
/// to 0 (the paper's protection window), matching the cover-level
/// verifier.  Throws std::invalid_argument when the netlist lacks the
/// expected nets or the fsv net aliases an input or state cut, and
/// std::logic_error naming the net on a feedback cycle not broken by a
/// cut or a BUF/NOT without exactly one fanin — the latter two only
/// when at least one transition is checked, and (with `fsv_low`) not
/// for the fsv cone, which is then never evaluated.
[[nodiscard]] TernaryReport gate_ternary_verify(const netlist::Netlist& netlist,
                                                const core::FantomMachine& machine,
                                                bool fsv_low = true);

/// Convenience: assembles the netlist with build_fantom first.
[[nodiscard]] TernaryReport gate_ternary_verify(const core::FantomMachine& machine,
                                                bool fsv_low = true);

}  // namespace seance::sim
