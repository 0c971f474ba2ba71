// Malformed-input gauntlet: hostile and truncated KISS2 text, ill-formed
// STGs and malformed structural Verilog must surface as clean
// std::exception errors — never a crash, a silent drop, or undefined
// behaviour.  This test is labeled
// `fast`, so the ASan/UBSan CI leg runs every case under the sanitizers;
// the shift-width and overflow hazards it probes (a 33rd STG signal, a
// 17th input) are exactly the ones that would only show up there.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "flowtable/kiss.hpp"
#include "netlist/verilog.hpp"
#include "stg/stg.hpp"

namespace seance {
namespace {

/// Runs `fn`, returning the exception message ("" when nothing threw).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

void expect_error(const std::string& message, const std::string& needle) {
  EXPECT_FALSE(message.empty()) << "expected an exception mentioning \""
                                << needle << "\", but nothing threw";
  EXPECT_NE(message.find(needle), std::string::npos) << message;
}

std::string parse_error(const std::string& text) {
  return error_of([&] { (void)flowtable::parse_kiss2(text); });
}

// ---------------------------------------------------------------- KISS2

TEST(MalformedKiss, EmptyAndCommentOnlyInputs) {
  expect_error(parse_error(""), "missing or bad .i");
  expect_error(parse_error("# nothing here\n\n   \n"), "missing or bad .i");
}

TEST(MalformedKiss, TruncatedHeaders) {
  expect_error(parse_error(".i\n"), "bad .i");
  expect_error(parse_error(".i 2\n.o\n"), "bad .o");
  expect_error(parse_error(".i 2\n.s banana\n"), "bad .s");
  expect_error(parse_error(".i 2\n.p\n"), "bad .p");
  expect_error(parse_error(".i 2\n.r\n"), "bad .r");
  // Header-only file: directives parse but there is nothing to build.
  expect_error(parse_error(".i 2\n.o 1\n"), "no product lines");
}

TEST(MalformedKiss, HostileHeaderValues) {
  expect_error(parse_error(".i 0\n.o 1\n0 a a 1\n"), "missing or bad .i");
  expect_error(parse_error(".i -3\n.o 1\n0 a a 1\n"), "missing or bad .i");
  expect_error(parse_error(".i x\n"), "bad .i");
  // Inputs beyond the 16-bit column index are rejected by the FlowTable
  // layer before any shift can go out of range.
  const std::string wide(17, '0');
  expect_error(parse_error(".i 17\n.o 1\n" + wide + " a a 1\n"),
               "num_inputs out of range");
}

/// `states` distinct stable states, each named once as a current state.
std::string kiss_with_states(int states, int inputs) {
  std::string text = ".i " + std::to_string(inputs) + "\n.o 1\n";
  const std::string pattern(static_cast<std::size_t>(inputs), '-');
  for (int s = 0; s < states; ++s) {
    const std::string name = "s" + std::to_string(s);
    text += pattern + " " + name + " " + name + " 0\n";
  }
  return text;
}

TEST(MalformedKiss, TooManyStatesFailsBeforeTheTableIsBuilt) {
  // 65 states at .i 16 would be 65 x 65536 entries; the parser refuses
  // by count before allocating any of them.
  expect_error(parse_error(kiss_with_states(65, 16)),
               "65 states exceeds the limit of 64");
  // Next-only states count too: `y` is the 65th.
  expect_error(parse_error(kiss_with_states(63, 1) + "0 x y 0\n1 x x 0\n"),
               "65 states exceeds the limit of 64");
  // The limit itself still parses.
  const flowtable::FlowTable table =
      flowtable::parse_kiss2(kiss_with_states(64, 1));
  EXPECT_EQ(table.num_states(), 64);
}

TEST(MalformedKiss, TooManyTableEntriesFailsBeforeTheTableIsBuilt) {
  // 64 states pass the state limit, but at .i 16 the table would hold
  // 64 x 65536 entries: hundreds of MB from a 66-line file.
  expect_error(parse_error(kiss_with_states(64, 16)),
               "64 states x 65536 columns = 4194304 table entries exceeds "
               "the limit of 65536");
  expect_error(parse_error(kiss_with_states(2, 16)),
               "2 states x 65536 columns");
  // The limit itself still parses.
  const flowtable::FlowTable table =
      flowtable::parse_kiss2(kiss_with_states(1, 16));
  EXPECT_EQ(table.num_states(), 1);
  EXPECT_EQ(table.num_columns(), 65536);
}

TEST(MalformedKiss, UnknownDirective) {
  expect_error(parse_error(".q 3\n"), "unknown directive '.q'");
  expect_error(parse_error(".\n"), "unknown directive '.'");
}

TEST(MalformedKiss, TruncatedProductLines) {
  expect_error(parse_error(".i 1\n.o 1\n0\n"), "product line needs 4 fields");
  expect_error(parse_error(".i 1\n.o 1\n0 s0\n"), "product line needs 4 fields");
  expect_error(parse_error(".i 1\n.o 1\n0 s0 s1\n"), "product line needs 4 fields");
}

TEST(MalformedKiss, PatternLengthMismatches) {
  expect_error(parse_error(".i 2\n.o 1\n0 s0 s0 1\n"),
               "input pattern length != .i");
  expect_error(parse_error(".i 1\n.o 2\n0 s0 s0 1\n"),
               "output pattern length != .o");
}

TEST(MalformedKiss, BadPatternCharactersAreRejectedNotDropped) {
  // 'x' used to expand to zero columns, silently discarding the product.
  expect_error(parse_error(".i 1\n.o 1\nx s0 s0 1\n"),
               "input pattern character 'x'");
  expect_error(parse_error(".i 2\n.o 1\n0* s0 s0 1\n"),
               "input pattern character '*'");
  expect_error(parse_error(".i 1\n.o 1\n0 s0 s0 2\n"), "output character '2'");
  // The diagnostic carries the line number of the offending product.
  expect_error(parse_error(".i 1\n.o 1\n0 s0 s0 1\n? s0 s0 1\n"),
               "line 4");
}

TEST(MalformedKiss, ConflictingNextStates) {
  expect_error(parse_error(".i 1\n.o 1\n0 s0 s0 1\n0 s0 s1 1\n"),
               "conflicting next state");
  // A '-' wildcard overlapping a concrete pattern conflicts the same way.
  expect_error(parse_error(".i 1\n.o 1\n- s0 s0 1\n1 s0 s1 1\n"),
               "conflicting next state");
}

TEST(MalformedKiss, BinaryGarbageThrowsCleanly) {
  // The 12 bytes of the literal, embedded NUL included; the terminator
  // is not part of the input.
  const std::string garbage("\x01\x02\xff\xfe zz\n\x00.i\n", 12);
  const std::string msg = parse_error(garbage);
  EXPECT_FALSE(msg.empty()) << "binary garbage parsed without error";
}

TEST(MalformedKiss, MissingFileThrows) {
  expect_error(error_of([] {
                 (void)flowtable::load_kiss2_file("/nonexistent/nope.kiss2");
               }),
               "cannot open kiss2 file");
}

TEST(MalformedKiss, SurvivorsStillParse) {
  // Positive controls: quirks the parser deliberately tolerates.
  const flowtable::FlowTable t = flowtable::parse_kiss2(
      ".i 1\n.o 1\n.s 99\n.p 1\n0 s0 * -\n1 s0 s0 1\n.e\ngarbage after .e\n");
  EXPECT_EQ(t.num_states(), 1);  // sloppy .s header is sized by reality
  EXPECT_FALSE(t.entry(0, 0).specified());  // '*' = unspecified next
}

// ------------------------------------------------------------------ STG

TEST(MalformedStg, BuilderRejectsBadIndices) {
  stg::Stg s;
  expect_error(error_of([&] { (void)s.add_transition(0, true); }),
               "bad signal index");
  expect_error(error_of([&] { (void)s.transition("ghost", true); }),
               "unknown signal ghost");
  const int a = s.add_signal("a", /*is_input=*/true);
  const int up = s.add_transition(a, true);
  expect_error(error_of([&] { s.add_arc(up, 99, 0); }),
               "bad transition index");
  expect_error(error_of([&] { s.add_arc(up, up, 2); }), "tokens must be 0/1");
}

TEST(MalformedStg, ValidateCatchesStructuralHoles) {
  stg::Stg s;
  const int a = s.add_signal("a", /*is_input=*/true);
  (void)s.add_transition(a, true);  // no arcs at all
  std::string why;
  EXPECT_FALSE(s.validate(&why));
  expect_error(error_of([&] { (void)s.to_flow_table(); }), "invalid structure");
}

TEST(MalformedStg, NoInputSignalsIsInvalid) {
  stg::Stg s;
  const int b = s.add_signal("b", /*is_input=*/false);
  const int up = s.add_transition(b, true);
  const int dn = s.add_transition(b, false);
  s.add_arc(up, dn, 0);
  s.add_arc(dn, up, 1);
  std::string why;
  EXPECT_FALSE(s.validate(&why));
  EXPECT_NE(why.find("no input signals"), std::string::npos) << why;
}

TEST(MalformedStg, ThirtyThirdSignalIsRejectedBeforeTheShift) {
  // ExplorationState holds signal values in a uint32_t; signal index 32
  // would shift out of range in fire().  validate() must refuse first.
  stg::Stg s;
  for (int i = 0; i < 33; ++i) {
    (void)s.add_signal("s" + std::to_string(i), /*is_input=*/i == 0);
  }
  // One structurally-complete transition keeps the arc count tiny, so the
  // signal-count check (not the 64-place cap) is what must fire.
  const int up = s.add_transition(0, true);
  s.add_arc(up, up, 0);
  std::string why;
  EXPECT_FALSE(s.validate(&why));
  EXPECT_NE(why.find("more than 32 signals"), std::string::npos) << why;
  expect_error(error_of([&] { (void)s.to_flow_table(); }),
               "more than 32 signals");
}

TEST(MalformedStg, SeventeenthInputIsRejectedBeforeTheFlowTable) {
  // FlowTable indexes columns by input valuation and caps inputs at 16;
  // the STG layer reports the limit in its own terms.
  stg::Stg s;
  int first_up = -1;
  int prev_dn = -1;
  for (int i = 0; i < 17; ++i) {
    const int sig = s.add_signal("in" + std::to_string(i), /*is_input=*/true);
    const int up = s.add_transition(sig, true);
    const int dn = s.add_transition(sig, false);
    s.add_arc(up, dn, 0);
    if (prev_dn >= 0) s.add_arc(prev_dn, up, 0);
    if (first_up < 0) first_up = up;
    prev_dn = dn;
  }
  s.add_arc(prev_dn, first_up, 1);
  std::string why;
  EXPECT_FALSE(s.validate(&why));
  EXPECT_NE(why.find("more than 16 input signals"), std::string::npos) << why;
}

TEST(MalformedStg, InconsistentFiringThrows) {
  // Two rising transitions of the same input in a cycle: the second +
  // fires with the signal already high.
  stg::Stg s;
  const int a = s.add_signal("a", /*is_input=*/true);
  const int up1 = s.add_transition(a, true);
  const int up2 = s.add_transition(a, true);
  s.add_arc(up1, up2, 0);
  s.add_arc(up2, up1, 1);
  expect_error(error_of([&] { (void)s.to_flow_table(); }),
               "inconsistent firing");
}

TEST(MalformedStg, NonQuiescingOutputsThrow) {
  // An autonomous output oscillator never reaches a stable marking.
  stg::Stg s;
  const int a = s.add_signal("a", /*is_input=*/true);
  const int a_up = s.add_transition(a, true);
  s.add_arc(a_up, a_up, 0);  // structurally present, never enabled
  const int b = s.add_signal("b", /*is_input=*/false);
  const int b_up = s.add_transition(b, true);
  const int b_dn = s.add_transition(b, false);
  s.add_arc(b_up, b_dn, 0);
  s.add_arc(b_dn, b_up, 1);
  expect_error(error_of([&] { (void)s.to_flow_table(); }),
               "outputs do not quiesce");
}

TEST(MalformedStg, WellFormedHandshakeStillConverts) {
  // Positive control: the canonical examples pass the tightened checks.
  std::string why;
  EXPECT_TRUE(stg::four_phase_handshake().validate(&why)) << why;
  EXPECT_TRUE(stg::parallel_join().validate(&why)) << why;
  const flowtable::FlowTable t = stg::four_phase_handshake().to_flow_table();
  EXPECT_GE(t.num_states(), 2);
}

// -------------------------------------------------------------- Verilog

TEST(MalformedVerilog, EveryDiagnosticIsPinned) {
  // One case per diagnostic, byte for byte: the message names the line
  // and the offending token.  Where several problems are present, the
  // first in reading order wins; past the parse, the lowest gap index
  // and the first stray assignment in spelling order are the ones named.
  const std::string kHead =
      "module m (input wire a, input wire b, output wire o_F);\n";
  const struct {
    std::string text;
    std::string message;
  } cases[] = {
      {"",
       "parse_verilog: line 1: unexpected end of input"},
      {"modul m ();",
       "parse_verilog: line 1: expected 'module', got 'modul'"},
      {"module 1'b0 (input wire a);\nendmodule\n",
       "parse_verilog: line 1: expected an identifier, got '1'b0'"},
      {"module m (inout wire a);\nendmodule\n",
       "parse_verilog: line 1: expected 'input' or 'output', got 'inout'"},
      {"module m (input wire a;\nendmodule\n",
       "parse_verilog: line 1: expected ')', got ';'"},
      {"module m ();\nendmodule\nextra\n",
       "parse_verilog: line 3: trailing input after endmodule"},
      {kHead + "  wire n2;\n  assign n2 = a + b;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 3: unexpected character '+'"},
      {kHead + "  wire x1;\nendmodule\n",
       "parse_verilog: line 2: wire 'x1' is not of the internal form n<index>"},
      {kHead + "  wire n2, n2;\nendmodule\n",
       "parse_verilog: line 2: duplicate wire 'n2'"},
      {kHead + "  wire n2;\n  wire n02;\nendmodule\n",
       "parse_verilog: line 3: duplicate wire 'n02'"},
      {kHead + "  wire n2;\n  assign n2 = a;\n  assign n2 = b;\nendmodule\n",
       "parse_verilog: line 4: duplicate assignment to 'n2'"},
      {kHead + "  wire n2;\n  assign n02 = a;\n  assign n02 = b;\nendmodule\n",
       "parse_verilog: line 4: duplicate assignment to 'n02'"},
      {kHead + "  reg n2;\nendmodule\n",
       "parse_verilog: line 2: expected 'wire', 'assign' or 'endmodule', got 'reg'"},
      {kHead + "  wire n2;\n  assign n2 = 1'b2;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 3: expected an operand, got '1'b2'"},
      {kHead + "  wire n2;\n  assign n2 = ~(a | );\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 3: expected an identifier, got ')'"},
      {kHead + "  wire n2;\n  assign n2 = a & b | a;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 3: mixed '&'/'|' without parentheses"},
      {kHead + "  wire n2;\n  assign n2 = a b;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 3: expected ';', got 'b'"},
      {kHead + "  wire n5;\n  assign n5 = a;\n  assign o_F = n5;\nendmodule\n",
       "parse_verilog: line 2: wire 'n5' leaves a gap: 3 nets declared but index 5 used"},
      {kHead + "  wire n9;\n  wire n7;\n  wire n2;\nendmodule\n",
       "parse_verilog: line 3: wire 'n7' leaves a gap: 5 nets declared but index 7 used"},
      {kHead + "  wire n99999999;\nendmodule\n",
       "parse_verilog: line 2: wire 'n99999999' is not of the internal form n<index>"},
      {kHead + "  wire n9999999, n9999999;\nendmodule\n",
       "parse_verilog: line 2: duplicate wire 'n9999999'"},
      {"module m (input wire a, input wire a, output wire o_F);\n  wire n2;\n  assign n2 = a;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 1: duplicate input port 'a'"},
      {"module m (input wire n0, output wire o_F);\n  wire n0;\n  assign n0 = n0;\n  assign o_F = n0;\nendmodule\n",
       "parse_verilog: line 2: wire 'n0' collides with an input port"},
      {kHead + "  wire n2;\n  assign n2 = nope;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 3: unknown identifier 'nope'"},
      {kHead + "  wire n2;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 2: wire 'n2' is never assigned"},
      {kHead + "  wire n2, n3;\n  assign n2 = a & n3;\n  assign n3 = n2;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 3: feedback into 'n2' through a non-buffer gate — only plain-copy assigns may reference later wires"},
      {kHead + "  wire n2;\n  assign n2 = a;\nendmodule\n",
       "parse_verilog: line 1: output port 'o_F' is never assigned"},
      {kHead + "  wire n2;\n  assign n2 = a;\n  assign o_F = a & b;\nendmodule\n",
       "parse_verilog: line 4: output port 'o_F' must be bound to a single net"},
      {"module m (input wire a, output wire F);\n  wire n1;\n  assign n1 = a;\n  assign F = n1;\nendmodule\n",
       "parse_verilog: line 1: output port 'F' lacks the o_<name> prefix to_verilog emits"},
      {"module m (input wire a, output wire o_F, output wire o_F);\n  wire n1;\n  assign n1 = a;\n  assign o_F = n1;\nendmodule\n",
       "parse_verilog: line 1: duplicate output 'o_F'"},
      {kHead + "  wire n2;\n  assign n2 = a;\n  assign zz = a;\n  assign bb = a;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 5: assignment to 'bb', which is neither a wire nor an output port"},
      {kHead + "  wire n2;\n  assign n2 = a;\n  assign n9999999 = b;\n  assign n3 = b;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 5: assignment to 'n3', which is neither a wire nor an output port"},
      {kHead + "  wire n2;\n  assign n2 = a;\n  assign n02 = b;\n  assign o_F = n2;\nendmodule\n",
       "parse_verilog: line 4: assignment to 'n02', which is neither a wire nor an output port"},
      {kHead + "  wire n02;\n  assign n2 = a;\n  assign o_F = n02;\nendmodule\n",
       "parse_verilog: line 2: wire 'n02' is never assigned"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    EXPECT_EQ(error_of([&] { (void)netlist::parse_verilog(c.text); }),
              c.message);
  }
}

}  // namespace
}  // namespace seance
