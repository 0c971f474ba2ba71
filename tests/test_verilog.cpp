#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "flowtable/table.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"

namespace seance::netlist {
namespace {

TEST(Verilog, SmallNetlistStructure) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g = n.add_gate(GateKind::kNor, {a, b}, "g");
  n.set_output("OUT", g);
  const std::string v = to_verilog(n, "tiny");
  EXPECT_NE(v.find("module tiny"), std::string::npos);
  EXPECT_NE(v.find("input wire a"), std::string::npos);
  EXPECT_NE(v.find("input wire b"), std::string::npos);
  EXPECT_NE(v.find("output wire o_OUT"), std::string::npos);
  EXPECT_NE(v.find("~(a | b)"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, ConstAndBufAndNot) {
  Netlist n;
  const int a = n.add_input("a");
  const int one = n.add_const(true);
  const int inv = n.add_gate(GateKind::kNot, {a});
  const int buf = n.add_placeholder("fb");
  n.connect(buf, inv);
  n.set_output("K", one);
  n.set_output("INV", inv);
  n.set_output("FB", buf);
  const std::string v = to_verilog(n, "m");
  EXPECT_NE(v.find("= 1'b1;"), std::string::npos);
  EXPECT_NE(v.find("= ~a;"), std::string::npos);
  EXPECT_NE(v.find("assign o_FB"), std::string::npos);
}

TEST(Verilog, AndOrOperators) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int c = n.add_input("c");
  const int g1 = n.add_gate(GateKind::kAnd, {a, b, c});
  const int g2 = n.add_gate(GateKind::kOr, {g1, c});
  n.set_output("F", g2);
  const std::string v = to_verilog(n, "m");
  EXPECT_NE(v.find("a & b & c"), std::string::npos);
  EXPECT_NE(v.find(" | "), std::string::npos);
}

class VerilogSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(VerilogSuite, FantomMachinesExport) {
  const auto table = bench_suite::load(bench_suite::by_name(GetParam()));
  const auto machine = core::synthesize(table);
  Netlist n;
  (void)build_fantom(machine, n);
  const std::string v = to_verilog(n, "fantom_" + GetParam());
  EXPECT_NE(v.find("module fantom_" + GetParam()), std::string::npos);
  EXPECT_NE(v.find("o_VOM"), std::string::npos);
  EXPECT_NE(v.find("o_SSD"), std::string::npos);
  EXPECT_NE(v.find("o_fsv"), std::string::npos);
  // Every wire declared before use: count assigns equals logic+const+buf.
  int assigns = 0;
  for (std::size_t pos = 0; (pos = v.find("assign", pos)) != std::string::npos;
       ++pos) {
    ++assigns;
  }
  EXPECT_GT(assigns, 10);
}

INSTANTIATE_TEST_SUITE_P(Table1, VerilogSuite,
                         ::testing::Values("test_example", "traffic", "lion",
                                           "lion9", "train11"));

// ---- export validation (the pre-fix code emitted `assign n = ;` for a
// zero-fanin gate and threw raw std::out_of_range for an unconnected
// placeholder) --------------------------------------------------------

TEST(VerilogValidation, RejectsUnconnectedPlaceholderNamingTheGate) {
  Netlist n;
  const int fb = n.add_placeholder("y0");
  n.set_output("Y", fb);
  try {
    (void)to_verilog(n, "m");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gate n0"), std::string::npos) << what;
    EXPECT_NE(what.find("'y0'"), std::string::npos) << what;
    EXPECT_NE(what.find("unconnected feedback placeholder"), std::string::npos)
        << what;
  }
}

TEST(VerilogValidation, RejectsZeroFaninLogicGateNamingTheGate) {
  Netlist n;
  const int g = n.add_gate(GateKind::kAnd, {}, "empty");
  n.set_output("F", g);
  try {
    (void)to_verilog(n, "m");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gate n0 (AND 'empty')"), std::string::npos) << what;
    EXPECT_NE(what.find("no fanin"), std::string::npos) << what;
  }
}

// ---- port sanitization (the pre-fix code emitted input names verbatim:
// an input literally named "n7" shorted to wire n7, a keyword name
// produced an unparsable module) ---------------------------------------

TEST(VerilogSanitize, InputNamedLikeInternalWireGainsUnderscore) {
  Netlist n;
  const int a = n.add_input("n7");
  n.set_output("F", n.add_gate(GateKind::kNot, {a}));
  const std::string v = to_verilog(n, "m");
  EXPECT_NE(v.find("input wire n7_"), std::string::npos) << v;
  EXPECT_EQ(v.find("input wire n7,"), std::string::npos) << v;
  EXPECT_NE(v.find("= ~n7_;"), std::string::npos) << v;
}

TEST(VerilogSanitize, KeywordAndInvalidCharacterInputs) {
  Netlist n;
  const int a = n.add_input("module");
  const int b = n.add_input("a-b");
  const int c = n.add_input("1st");
  n.set_output("F", n.add_gate(GateKind::kAnd, {a, b, c}));
  const std::string v = to_verilog(n, "m");
  EXPECT_NE(v.find("input wire module_"), std::string::npos) << v;
  EXPECT_NE(v.find("input wire a_b"), std::string::npos) << v;
  EXPECT_NE(v.find("input wire _1st"), std::string::npos) << v;
  EXPECT_NE(v.find("module_ & a_b & _1st"), std::string::npos) << v;
}

TEST(VerilogSanitize, CollidingInputsAreUniquified) {
  Netlist n;
  const int a = n.add_input("a b");
  const int b = n.add_input("a_b");
  n.set_output("F", n.add_gate(GateKind::kOr, {a, b}));
  const std::string v = to_verilog(n, "m");
  EXPECT_NE(v.find("input wire a_b,"), std::string::npos) << v;
  EXPECT_NE(v.find("input wire a_b_"), std::string::npos) << v;
  EXPECT_NE(v.find("a_b | a_b_"), std::string::npos) << v;
}

// ---- pinned bytes: the exact export of a small FANTOM machine (the
// single-input-change toggle, unreduced so it keeps a state variable).
// A diff here means the Verilog backend changed shape — regenerate
// consciously, it feeds the round-trip oracle and the CI drift gate ----

TEST(VerilogGolden, PinnedBytesOfToggleMachine) {
  flowtable::FlowTableBuilder b(1, 1);
  b.on("s0", "0", "s0", "0");
  b.on("s0", "1", "s1", "-");
  b.on("s1", "1", "s1", "1");
  b.on("s1", "0", "s0", "-");
  core::SynthesisOptions options;
  options.minimize_states = false;
  const auto machine = core::synthesize(b.build(), options);
  Netlist n;
  (void)build_fantom(machine, n);
  const std::string expected =
      "module fantom_toggle (\n"
      "  input wire x0,\n"
      "  input wire G,\n"
      "  output wire o_SSD,\n"
      "  output wire o_VOM,\n"
      "  output wire o_Z0,\n"
      "  output wire o_fsv,\n"
      "  output wire o_y0\n"
      ");\n"
      "  wire n2;\n"
      "  wire n3;\n"
      "  wire n4;\n"
      "  wire n5;\n"
      "  wire n6;\n"
      "  wire n7;\n"
      "  wire n8;\n"
      "  assign n2 = x0;\n"
      "  assign n3 = 1'b0;\n"
      "  assign n4 = ~(x0 | n2);\n"
      "  assign n5 = x0 & n2;\n"
      "  assign n6 = n4 | n5;\n"
      "  assign n7 = ~(G | n3);\n"
      "  assign n8 = n7 & n6;\n"
      "  assign o_SSD = n6;\n"
      "  assign o_VOM = n8;\n"
      "  assign o_Z0 = x0;\n"
      "  assign o_fsv = n3;\n"
      "  assign o_y0 = n2;\n"
      "endmodule\n";
  EXPECT_EQ(to_verilog(n, "fantom_toggle"), expected);
}

// ---- round trip: parse_verilog reconstructs nets at their original
// indices, so re-export is byte-identical -----------------------------

void check_round_trip(const Netlist& n, const std::string& what) {
  const std::string v = to_verilog(n, "m");
  const Netlist back = parse_verilog(v);
  // Byte-identical re-export implies the gate graph and outputs were
  // reconstructed exactly; only diagnostic gate names are lost (the
  // Verilog carries no place for them).
  EXPECT_EQ(to_verilog(back, "m"), v) << what;
  EXPECT_EQ(back.size(), n.size()) << what;
  EXPECT_EQ(back.outputs(), n.outputs()) << what;
}

TEST_P(VerilogSuite, RoundTripIsByteExact) {
  const auto table = bench_suite::load(bench_suite::by_name(GetParam()));
  Netlist fantom;
  (void)build_fantom(core::synthesize(table), fantom);
  check_round_trip(fantom, GetParam() + " fantom");

  core::SynthesisOptions naive;
  naive.add_fsv = false;
  Netlist baseline;
  (void)build_fantom(core::synthesize(table, naive), baseline);
  check_round_trip(baseline, GetParam() + " naive");
}

TEST(VerilogRoundTrip, GeneratedShapes) {
  for (const std::uint64_t seed : {3u, 9u, 31u}) {
    bench_suite::GeneratorOptions options;
    options.num_states = 6;
    options.num_inputs = 3;
    options.num_outputs = 2;
    options.seed = seed;
    Netlist n;
    (void)build_fantom(core::synthesize(bench_suite::generate(options)), n);
    check_round_trip(n, "generated seed " + std::to_string(seed));
  }
}

TEST(VerilogRoundTrip, SanitizedPortsSurviveReimport) {
  Netlist n;
  const int a = n.add_input("n7");
  const int b = n.add_input("module");
  n.set_output("F", n.add_gate(GateKind::kAnd, {a, b}));
  // Sanitized names are already clean on re-export, so the *second*
  // export is the byte-stable fixpoint.
  const std::string v = to_verilog(n, "m");
  const Netlist back = parse_verilog(v);
  EXPECT_EQ(to_verilog(back, "m"), v);
}

TEST(VerilogRoundTrip, EmptyOutputNameTakesAPositionalDefault) {
  // An output named "" used to be emitted as port `o_`, which the
  // reader rejects for lacking a name after the prefix.  Like an empty
  // input name (in<net>), it now takes out<net>, uniquified like any
  // other port: here against a real output spelled "out1".
  Netlist n;
  const int a = n.add_input("a");
  const int g = n.add_gate(GateKind::kNot, {a});
  n.set_output("", g);
  n.set_output("out1", a);
  const std::string v = to_verilog(n, "m");
  EXPECT_NE(v.find("  output wire o_out1,\n  output wire o_out1_\n"),
            std::string::npos)
      << v;
  const Netlist back = parse_verilog(v);
  EXPECT_EQ(back.output("out1"), g);
  EXPECT_EQ(back.output("out1_"), a);
  EXPECT_EQ(to_verilog(back, "m"), v);
}

// ---- parser diagnostics ---------------------------------------------

TEST(VerilogParse, ErrorsNameTheLine) {
  const std::string bad =
      "module m (\n"
      "  input wire a\n"
      ");\n"
      "  wire n1;\n"
      "  assign n1 = a &;\n"
      "endmodule\n";
  try {
    (void)parse_verilog(bad);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

TEST(VerilogParse, RejectedCharacterWinsOverEarlierErrors) {
  // A character the lexer rejects is reported wherever it sits, ahead of
  // a syntax error (line 1) or a duplicate wire (line 3) read before it.
  const std::pair<std::string, std::string> cases[] = {
      {"module m (input wire a;\nendmodule +\n",
       "parse_verilog: line 2: unexpected character '+'"},
      {"module m (input wire a);\n  wire n1;\n  wire n1;\n  assign n1 = a + a;\nendmodule\n",
       "parse_verilog: line 4: unexpected character '+'"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)parse_verilog(text);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(VerilogParse, RejectsNonBufFeedback) {
  const std::string cyclic =
      "module m (input wire a, output wire o_F);\n"
      "  wire n1, n2;\n"
      "  assign n1 = a & n2;\n"
      "  assign n2 = n1;\n"
      "  assign o_F = n2;\n"
      "endmodule\n";
  EXPECT_THROW((void)parse_verilog(cyclic), std::runtime_error);
}

TEST(VerilogParse, RejectsUnassignedWireAndUnknownIdentifier) {
  EXPECT_THROW((void)parse_verilog("module m (input wire a);\n"
                                   "  wire n1;\n"
                                   "endmodule\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_verilog("module m (input wire a);\n"
                                   "  wire n1;\n"
                                   "  assign n1 = nope;\n"
                                   "endmodule\n"),
               std::runtime_error);
}

TEST(VerilogParse, AcceptsBufFeedbackAndComments) {
  const std::string v =
      "// feedback through a plain copy is the placeholder idiom\n"
      "module m (input wire a, output wire o_Y);\n"
      "  wire n1, n2;\n"
      "  assign n1 = n2;  // forward reference, BUF\n"
      "  assign n2 = ~a;\n"
      "  assign o_Y = n1;\n"
      "endmodule\n";
  const Netlist n = parse_verilog(v);
  EXPECT_EQ(n.size(), 3);
  EXPECT_EQ(n.gates()[1].kind, GateKind::kBuf);
  EXPECT_EQ(n.gates()[1].fanin.at(0), 2);
  EXPECT_EQ(n.output("Y"), 1);
}

}  // namespace
}  // namespace seance::netlist
