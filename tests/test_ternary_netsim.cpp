#include "sim/ternary_netsim.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "logic/cube.hpp"
#include "logic/expr.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "sim/ternary_reference.hpp"
#include "sim/ternary_verify.hpp"

namespace seance::sim {
namespace {

using logic::Val3;

void expect_reports_equal(const TernaryReport& expected, const TernaryReport& got,
                          const std::string& what) {
  EXPECT_EQ(expected.transitions_checked, got.transitions_checked) << what;
  EXPECT_EQ(expected.procedure_a_violations, got.procedure_a_violations) << what;
  EXPECT_EQ(expected.procedure_b_violations, got.procedure_b_violations) << what;
  EXPECT_EQ(expected.fixpoint_overruns, got.fixpoint_overruns) << what;
  EXPECT_EQ(expected.first_failure, got.first_failure) << what;
}

/// The full differential for one machine, in both fsv modes: the scalar
/// oracle, the cover-level verdict, the gate-level verdict on the
/// freshly built netlist, and the gate-level verdict on the netlist
/// re-imported from its own Verilog must be identical.  The oracle is
/// what catches a fault in the 64-lane driver the other three share.
/// Returns the number of transitions checked.
int check_differential(const core::FantomMachine& machine, const std::string& what) {
  netlist::Netlist built;
  (void)netlist::build_fantom(machine, built);
  const netlist::Netlist reimported =
      netlist::parse_verilog(netlist::to_verilog(built, "m"));
  int transitions = 0;
  for (const bool fsv_low : {true, false}) {
    const std::string mode = what + (fsv_low ? " fsv-low" : " fsv-free");
    const TernaryReport oracle = ternary_verify_reference(machine, fsv_low);
    expect_reports_equal(oracle, ternary_verify(machine, fsv_low), mode + " cover");
    expect_reports_equal(oracle, gate_ternary_verify(built, machine, fsv_low),
                         mode + " built");
    expect_reports_equal(oracle,
                         gate_ternary_verify(reimported, machine, fsv_low),
                         mode + " reimported");
    transitions = oracle.transitions_checked;
  }
  return transitions;
}

class NetsimDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(NetsimDifferential, AgreesWithCoverLevelOnTable1Suite) {
  const auto table = bench_suite::load(bench_suite::by_name(GetParam()));
  check_differential(core::synthesize(table), GetParam() + " fantom");

  core::SynthesisOptions naive;
  naive.add_fsv = false;
  naive.consensus_repair = false;
  check_differential(core::synthesize(table, naive), GetParam() + " naive");

  core::SynthesisOptions flat;
  flat.factor = false;
  check_differential(core::synthesize(table, flat), GetParam() + " unfactored");
}

INSTANTIATE_TEST_SUITE_P(Table1, NetsimDifferential,
                         ::testing::Values("test_example", "traffic", "lion",
                                           "lion9", "train11"));

TEST(NetsimDifferential, AgreesOnGeneratedShapes) {
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    bench_suite::GeneratorOptions options;
    options.num_states = 6;
    options.num_inputs = 3;
    options.num_outputs = 2;
    options.seed = seed;
    const auto table = bench_suite::generate(options);
    check_differential(core::synthesize(table),
                       "generated seed " + std::to_string(seed));
  }
  // The 6x3 machines fit in one 64-lane word; the 8x4 hard shape spills
  // into a second, partial word, which is where dead lanes get masked.
  bool multi_word = false;
  bool partial_word = false;
  for (const std::uint64_t seed : {5u, 17u}) {
    bench_suite::GeneratorOptions options = driver::kHardShape;
    options.seed = seed;
    const auto table = bench_suite::generate(options);
    core::SynthesisOptions naive;
    naive.add_fsv = false;
    for (const auto& [synth, kind] :
         {std::pair{core::SynthesisOptions{}, "fantom"}, std::pair{naive, "naive"}}) {
      const int transitions =
          check_differential(core::synthesize(table, synth),
                             "hard seed " + std::to_string(seed) + " " + kind);
      multi_word |= transitions > 64;
      partial_word |= transitions > 64 && transitions % 64 != 0;
    }
  }
  EXPECT_TRUE(multi_word);
  EXPECT_TRUE(partial_word);
}

/// Hand-built machine that pins the monotone widen rule: fsv is the
/// constant-1 function and y0 copies fsv, so with fsv evaluated
/// ternarily Procedure A widens fsv 0 -> X (the value moved) and y0
/// follows it to X — an invariant-bit violation on every transition.
/// The pre-fix update rule let the second widening pass narrow the X
/// slots back to their binary next values (fsv -> 1, y0 -> 1), hiding
/// both violations.
core::FantomMachine widen_regression_machine() {
  flowtable::FlowTableBuilder b(1, 1);
  b.on("s0", "0", "s0", "0");
  b.on("s0", "1", "s0", "0");

  core::FantomMachine m;
  m.table = b.build();
  m.codes = {0};
  m.layout.num_inputs = 1;
  m.layout.num_state_vars = 1;
  m.layout.has_fsv = true;

  logic::Cover y0(3);  // y-space: x0, y0, fsv
  y0.add(logic::Cube::from_string("--1"));
  m.y.emplace_back(y0);
  m.y[0].expr = logic::Expr::var(2);

  logic::Cover tautology(2);  // (x, y) space: x0, y0
  tautology.add(logic::Cube::from_string("--"));
  m.fsv = core::Equation(tautology);
  m.fsv.expr = logic::Expr::constant(true);
  m.ssd = core::Equation(tautology);
  m.ssd.expr = logic::Expr::constant(true);
  return m;
}

TEST(TernaryNetsim, MonotoneWidenPinsRegressionMachine) {
  const core::FantomMachine m = widen_regression_machine();

  // fsv floating: both transitions widen fsv to X, y0 follows, and the
  // settled Procedure-B value (1) disagrees with the code (0).
  const TernaryReport free_fsv = ternary_verify(m, /*fsv_low=*/false);
  EXPECT_EQ(free_fsv.transitions_checked, 2);
  EXPECT_EQ(free_fsv.procedure_a_violations, 2) << free_fsv.first_failure;
  EXPECT_EQ(free_fsv.procedure_b_violations, 2) << free_fsv.first_failure;
  EXPECT_EQ(free_fsv.fixpoint_overruns, 0);

  // The protection window rescues the same machine: with fsv pinned low
  // y0 holds its code through A and settles to it in B.
  const TernaryReport pinned = ternary_verify(m, /*fsv_low=*/true);
  EXPECT_TRUE(pinned.clean()) << pinned.first_failure;

  // And the gate network must tell the same story in both modes.
  check_differential(m, "widen regression");
}

TEST(TernaryNetsim, UpdateSlotIsMonotoneWhenWidening) {
  // An X slot never narrows during widening, whatever the next value.
  for (const Val3 next : {Val3::k0, Val3::k1, Val3::kX}) {
    Val3 slot = Val3::kX;
    EXPECT_FALSE(detail::update_slot(slot, next, /*widen_only=*/true));
    EXPECT_EQ(slot, Val3::kX);
  }
  // A binary slot whose value moves widens to X, never to the new value.
  Val3 slot = Val3::k0;
  EXPECT_TRUE(detail::update_slot(slot, Val3::k1, /*widen_only=*/true));
  EXPECT_EQ(slot, Val3::kX);
  // Narrowing (Procedure B) writes the next value through.
  slot = Val3::kX;
  EXPECT_TRUE(detail::update_slot(slot, Val3::k1, /*widen_only=*/false));
  EXPECT_EQ(slot, Val3::k1);
}

Val3 lane_value(const detail::Planes& p, int lane) {
  const bool one = ((p.one >> lane) & 1u) != 0;
  const bool zero = ((p.zero >> lane) & 1u) != 0;
  return one && zero ? Val3::kX : (one ? Val3::k1 : Val3::k0);
}

void set_lane_value(detail::Planes& p, int lane, Val3 v) {
  const std::uint64_t bit = std::uint64_t{1} << lane;
  p.one = v == Val3::k0 ? p.one & ~bit : p.one | bit;
  p.zero = v == Val3::k1 ? p.zero & ~bit : p.zero | bit;
}

TEST(TernaryNetsim, PlaneUpdateMatchesScalarRuleInEveryLane) {
  constexpr std::array<Val3, 3> kVals{Val3::k0, Val3::k1, Val3::kX};
  for (const bool widen_only : {true, false}) {
    for (const Val3 slot_v : kVals) {
      for (const Val3 next_v : kVals) {
        // The pair under test sits in lanes 0 and 63; the lanes between
        // cycle through all nine (slot, next) pairs.
        detail::Planes slot;
        detail::Planes next;
        for (int lane = 0; lane < 64; ++lane) {
          const bool edge = lane == 0 || lane == 63;
          set_lane_value(slot, lane, edge ? slot_v : kVals[(lane / 3) % 3]);
          set_lane_value(next, lane, edge ? next_v : kVals[lane % 3]);
        }
        const detail::Planes before = slot;
        const std::uint64_t changed = detail::update_planes(slot, next, widen_only);
        for (int lane = 0; lane < 64; ++lane) {
          Val3 expected = lane_value(before, lane);
          const bool moved =
              detail::update_slot(expected, lane_value(next, lane), widen_only);
          EXPECT_EQ(((changed >> lane) & 1u) != 0, moved)
              << "lane " << lane << " widen " << widen_only;
          EXPECT_EQ(lane_value(slot, lane), expected)
              << "lane " << lane << " widen " << widen_only;
        }
      }
    }
  }
}

/// Hand-built machine whose y0 cover, next y0 = x1·¬y0 + ¬x1·y0 (cubes
/// -10- and -01-), toggles under x1 = 1 and holds under x1 = 0.  Two
/// states, each stable in all four columns, give 24 transitions: the 4
/// that keep x1 at 0 settle cleanly; the 20 that raise x1 or keep it at
/// 1 drive y0 to X in Procedure A and leave it there in B.
core::FantomMachine toggle_machine() {
  flowtable::FlowTableBuilder b(2, 1);
  for (const char* s : {"s0", "s1"}) {
    for (const char* col : {"00", "10", "01", "11"}) b.on(s, col, s, "0");
  }

  core::FantomMachine m;
  m.table = b.build();
  m.codes = {0, 0};
  m.layout.num_inputs = 2;
  m.layout.num_state_vars = 1;
  m.layout.has_fsv = true;

  logic::Cover y0(4);  // y-space: x0, x1, y0, fsv
  y0.add(logic::Cube::from_string("-10-"));
  y0.add(logic::Cube::from_string("-01-"));
  m.y.emplace_back(y0);
  using logic::Expr;
  m.y[0].expr = Expr::make_or(
      {Expr::make_and({Expr::var(1), Expr::negate(Expr::var(2))}),
       Expr::make_and({Expr::negate(Expr::var(1)), Expr::var(2)})});

  m.fsv = core::Equation(logic::Cover(3));  // constant 0 over (x0, x1, y0)
  m.fsv.expr = Expr::constant(false);
  logic::Cover tautology(3);
  tautology.add(logic::Cube::from_string("---"));
  m.ssd = core::Equation(tautology);
  m.ssd.expr = Expr::constant(true);
  return m;
}

TEST(TernaryNetsim, ToggleMachineSettlingLanesAreIsolated) {
  const core::FantomMachine m = toggle_machine();
  for (const bool fsv_low : {true, false}) {
    const TernaryReport r = ternary_verify(m, fsv_low);
    EXPECT_EQ(r.transitions_checked, 24);
    EXPECT_EQ(r.procedure_a_violations, 20) << r.first_failure;
    EXPECT_EQ(r.procedure_b_violations, 20) << r.first_failure;
    // Ternary iteration is monotone: A widens, B then only narrows from
    // A's fixpoint, so no cover or gate network can overrun the bound.
    EXPECT_EQ(r.fixpoint_overruns, 0);
    EXPECT_EQ(r.first_failure, "procedure A: y0 went X on s0 col 0 -> 2");
  }
  check_differential(m, "toggle machine");
}

/// A deliberately non-Kleene feedback that only a test can build: y0
/// toggles on every pass while x1 is a binary 1, and an X y0 steps to 0
/// first.  It stays put while x1 is 0 or X, so over the toggle table
/// Procedure A settles and Procedure B oscillates exactly on the
/// transitions whose final x1 is 1.
class OscillatingFeedback final : public detail::Feedback {
 public:
  detail::Planes next(int var, std::span<const detail::Planes> vars) override {
    EXPECT_EQ(var, 2);  // the only state variable; fsv is pinned low
    const detail::Planes x1 = vars[1];
    const detail::Planes y0 = vars[2];
    const std::uint64_t toggle = x1.one & ~x1.zero;
    const std::uint64_t binary = y0.one ^ y0.zero;
    const detail::Planes flipped{y0.zero & binary, y0.one | ~binary};
    return {(flipped.one & toggle) | (y0.one & ~toggle),
            (flipped.zero & toggle) | (y0.zero & ~toggle)};
  }
};

TEST(TernaryNetsim, OverrunsStayInTheirOwnLanes) {
  const core::FantomMachine m = toggle_machine();
  OscillatingFeedback feedback;
  const TernaryReport r = detail::run_procedures(m, /*fsv_low=*/true, feedback);
  EXPECT_EQ(r.transitions_checked, 24);
  // Per state: 6 transitions end at x1 = 1 (cols 2, 3) and overrun.
  EXPECT_EQ(r.fixpoint_overruns, 12);
  // Only 2 <-> 3 keeps x1 at 1 through A, widening y0 to X; after B's
  // X -> 0 step and 11 toggles (bound 12) it ends at 1, off the code.
  // The other overrunning lanes start B at 0, toggle 12 times and end
  // back on the code; the 12 lanes ending at x1 = 0 never move.
  EXPECT_EQ(r.procedure_a_violations, 4);
  EXPECT_EQ(r.procedure_b_violations, 4);
  EXPECT_EQ(r.first_failure, "procedure B: settling did not converge on s0 col 0 -> 2");
}

/// A y0 cone that loops back on itself through a BUF the verifier does
/// not cut: y0 = BUF(AND(x0, loop)), loop = BUF(AND(...)).
netlist::Netlist uncut_cycle_netlist(int* cycle_net) {
  netlist::Netlist n;
  const int x = n.add_input("x0");
  const int loop = n.add_placeholder("loop");
  const int gate = n.add_gate(netlist::GateKind::kAnd, {x, loop});
  n.connect(loop, gate);
  n.set_output("y0", n.add_gate(netlist::GateKind::kBuf, {gate}));
  n.set_output("fsv", n.add_const(false));
  *cycle_net = gate;
  return n;
}

TEST(TernaryNetsim, UncutFeedbackCycleThrowsNamingTheNet) {
  int cycle_net = -1;
  const netlist::Netlist n = uncut_cycle_netlist(&cycle_net);
  const core::FantomMachine m = widen_regression_machine();
  try {
    (void)gate_ternary_verify(n, m);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("feedback cycle through net n" +
                                         std::to_string(cycle_net)),
              std::string::npos)
        << e.what();
  }

  // With no transition to check the cones are never evaluated, so the
  // same netlist yields a clean, empty report.
  core::FantomMachine idle = m;
  flowtable::FlowTableBuilder b(1, 1);
  b.on("s0", "0", "s0", "0");
  idle.table = b.build();
  const TernaryReport r = gate_ternary_verify(n, idle);
  EXPECT_EQ(r, TernaryReport{});
}

TEST(TernaryNetsim, UnconnectedPlaceholderThrowsNamingTheNet) {
  netlist::Netlist n;
  const int x = n.add_input("x0");
  const int open = n.add_placeholder("open");
  n.set_output("y0", n.add_gate(netlist::GateKind::kOr, {x, open}));
  n.set_output("fsv", n.add_const(false));
  try {
    (void)gate_ternary_verify(n, widen_regression_machine());
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("gate n" + std::to_string(open) +
                                         " needs exactly one fanin"),
              std::string::npos)
        << e.what();
  }
}

TEST(TernaryNetsim, RejectsNetlistMissingExpectedNets) {
  const core::FantomMachine m = widen_regression_machine();
  netlist::Netlist n;
  const int x = n.add_input("not_x0");
  n.set_output("y0", n.add_gate(netlist::GateKind::kNot, {x}));
  n.set_output("fsv", n.add_const(false));
  EXPECT_THROW((void)gate_ternary_verify(n, m), std::invalid_argument);
}

TEST(TernaryNetsim, RejectsFsvAliasingAnInputOrStateCut) {
  const core::FantomMachine m = widen_regression_machine();
  {
    // fsv output pointing at the x0 input net: pinning it low would
    // drive a primary input.
    netlist::Netlist n;
    const int x = n.add_input("x0");
    n.set_output("y0", n.add_gate(netlist::GateKind::kNot, {x}));
    n.set_output("fsv", x);
    EXPECT_THROW((void)gate_ternary_verify(n, m), std::invalid_argument);
  }
  {
    // fsv output aliasing the y0 cut: pinning it would freeze the state.
    netlist::Netlist n;
    const int x = n.add_input("x0");
    const int y = n.add_gate(netlist::GateKind::kNot, {x});
    n.set_output("y0", y);
    n.set_output("fsv", y);
    EXPECT_THROW((void)gate_ternary_verify(n, m), std::invalid_argument);
  }
}

TEST(TernaryNetsim, ConvenienceOverloadBuildsTheNetlistItself) {
  const auto table = bench_suite::load(bench_suite::by_name("lion"));
  const auto machine = core::synthesize(table);
  const TernaryReport direct = gate_ternary_verify(machine);
  const TernaryReport cover = ternary_verify(machine);
  expect_reports_equal(cover, direct, "convenience overload");
}

}  // namespace
}  // namespace seance::sim
