// Structural-Verilog reader for the subset to_verilog emits.
//
// The verified artifact is the exported module, not the in-memory graph
// that produced it: the gate-level ternary pipeline is literally
// export -> parse_verilog -> ternary-verify, so a netlist that round-trips
// through its own Verilog is checked in the same form a downstream tool
// would elaborate.  The reader reconstructs nets at their original
// indices (internal wires are named n<index>, input ports fill the
// remaining slots in declaration order), so for any module produced by
// to_verilog the round trip is exact:
//
//   to_verilog(parse_verilog(v), name) == v
//
// Accepted grammar (whitespace-insensitive, `//` line comments allowed):
//
//   module <id> ( {input|output} wire <id> {, ...} );
//     wire n<k>;  ...
//     assign <lhs> = <rhs>;  ...
//   endmodule
//
// where <rhs> is 1'b0 | 1'b1 | <id> | ~<id> | ~(<id> | ...) |
// <id> & <id> ... | <id> | <id> ....  Feedback (a right-hand side naming
// a not-yet-defined wire) is only accepted through plain-copy assigns —
// the BUF-only feedback invariant the ternary netlist verifier cuts on.
//
// One pass: a cursor lexes on demand with one token of lookahead (no
// token vector), the body is read into flat records, and the gates are
// built once every wire is known, with each fanin list reserved exactly.
// Names resolve as follows:
//
//   - Wires are keyed by index.  A wire must be spelled n<k>, k at most
//     10,000,000; "n2" and "n02" are the same wire (a duplicate).
//   - An operand is the wire at its n<k> index only when spelled exactly
//     like that wire's declaration; otherwise it names an input port.
//   - Assignments are keyed by spelling: "assign n02" defines a wire
//     declared as n02, never one declared as n2.  Canonical n<k> (no
//     leading zero) and output-port spellings take flat arrays; other
//     spellings take a name lookup.
//
// Error contract: every failure throws std::runtime_error
// "parse_verilog: line <L>: <what>", naming the offending token, and the
// messages are pinned by tests.  A character the lexer rejects wins over
// every other error, wherever it sits.  Otherwise errors found while
// reading come in reading order; after the read, the checks run in a
// fixed order: the lowest wire index past the net count (a gap), a
// duplicate input port, a wire spelled like an input port, then per wire
// in index order its missing assign, unknown operands and non-buffer
// feedback, then per output port in declaration order, and last the
// first assignment in spelling order that defines nothing.

#pragma once

#include <string>

#include "netlist/netlist.hpp"

namespace seance::netlist {

/// Parses one structural module back into a Netlist.  Output ports must
/// carry to_verilog's `o_` prefix (stripped to recover the output name).
/// Throws std::runtime_error naming the line on malformed input, unknown
/// identifiers, duplicate definitions, or feedback through a non-BUF gate.
[[nodiscard]] Netlist parse_verilog(const std::string& text);

}  // namespace seance::netlist
