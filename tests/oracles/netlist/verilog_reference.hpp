// Reference structural-Verilog writer and reader, retained as the
// differential oracle for netlist::to_verilog and netlist::parse_verilog.
//
// These are the codec as it was before the single-pass kernels: the
// writer streams through an std::ostringstream and builds a std::string
// per net reference; the reader tokenizes the whole text into a vector,
// parses it with a token cursor, keeps each assignment's operands in
// their own vector, and looks names up in std::map/unordered_map.  Both
// are kept verbatim, so one behaviour differs from production: an output
// named "" is emitted as port `o_`, which this reader then rejects
// (production gives it the positional default `o_out<net>`).
// tests/test_verilog_equivalence.cpp asserts that both writers emit the
// same bytes and both readers return the same Netlist or throw the same
// message.  Built only into the test-only seance_oracles library.

#pragma once

#include <string>

#include "netlist/netlist.hpp"

namespace seance::netlist {

[[nodiscard]] std::string reference_to_verilog(const Netlist& netlist,
                                               const std::string& module_name);

[[nodiscard]] Netlist reference_parse_verilog(const std::string& text);

}  // namespace seance::netlist
