#include "core/synthesize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <optional>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "logic/ternary.hpp"

namespace seance::core {
namespace {

using bench_suite::GeneratorOptions;
using flowtable::FlowTable;

FantomMachine synth_benchmark(const std::string& name,
                              const SynthesisOptions& options = {}) {
  return synthesize(bench_suite::load(bench_suite::by_name(name)), options);
}

TEST(Synthesize, TestExampleEndToEnd) {
  const FantomMachine m = synth_benchmark("test_example");
  std::string why;
  EXPECT_TRUE(verify_equations(m, &why)) << why;
  EXPECT_GE(m.layout.num_state_vars, 2);
  EXPECT_FALSE(m.hazards.fl.empty()) << "MIC-dense table must have hazards";
}

TEST(Synthesize, Table1SuiteVerifies) {
  for (const auto& bench : bench_suite::table1_suite()) {
    const FantomMachine m = synth_benchmark(bench.name);
    std::string why;
    EXPECT_TRUE(verify_equations(m, &why)) << bench.name << ": " << why;
  }
}

TEST(Synthesize, DepthReportStructure) {
  for (const auto& bench : bench_suite::table1_suite()) {
    const FantomMachine m = synth_benchmark(bench.name);
    const DepthReport d = m.depth_report();
    EXPECT_EQ(d.total_depth, d.fsv_depth + d.y_depth + 1) << bench.name;
    // fsv is an all-primes first-level-gate SOP: depth <= 3 unless empty.
    EXPECT_LE(d.fsv_depth, 3) << bench.name;
    // Factored Y: hold/excitation structure bounds depth by 5.
    EXPECT_LE(d.y_depth, 5) << bench.name;
  }
}

TEST(Synthesize, FsvIsAllPrimesAndFirstLevel) {
  const FantomMachine m = synth_benchmark("test_example");
  ASSERT_FALSE(m.fsv.cover.empty());
  EXPECT_TRUE(logic::is_first_level_gate_form(m.fsv.expr));
  EXPECT_TRUE(logic::equivalent_to_cover(m.fsv.expr, m.fsv.cover));
  // All-primes covers are static-1 hazard-free for single-variable moves.
  EXPECT_TRUE(logic::sic_static1_hazard_free(m.fsv.cover));
}

TEST(Synthesize, YExpressionsMatchCovers) {
  const FantomMachine m = synth_benchmark("lion");
  for (const Equation& eq : m.y) {
    EXPECT_TRUE(logic::equivalent_to_cover(eq.expr, eq.cover));
  }
}

// The paper's central functional claim: with fsv = 0 the next-state
// functions hold every invariant state bit at every intermediate input
// vector of every MIC stable-state transition (no function M-hazard).
TEST(Synthesize, MHazardFreedomFunctionalCheck) {
  for (const auto& bench : bench_suite::table1_suite()) {
    const FantomMachine m = synth_benchmark(bench.name);
    const FlowTable& t = m.table;
    const VariableLayout& layout = m.layout;
    for (int s_a = 0; s_a < t.num_states(); ++s_a) {
      const std::uint32_t code_a = m.codes[static_cast<std::size_t>(s_a)];
      for (int col_a : t.stable_columns(s_a)) {
        for (int col_b = 0; col_b < t.num_columns(); ++col_b) {
          if (col_b == col_a || !t.entry(s_a, col_b).specified()) continue;
          const int s_b = t.entry(s_a, col_b).next;
          const std::uint32_t code_b = m.codes[static_cast<std::size_t>(s_b)];
          const std::uint32_t diff =
              static_cast<std::uint32_t>(col_a ^ col_b);
          if (std::popcount(diff) <= 1) continue;
          for (std::uint32_t sub = (diff - 1) & diff; sub != 0;
               sub = (sub - 1) & diff) {
            const int col_k = static_cast<int>(static_cast<std::uint32_t>(col_a) ^ sub);
            const logic::Minterm point = layout.xy_minterm(col_k, code_a);
            for (int n = 0; n < layout.num_state_vars; ++n) {
              const std::uint32_t bit = 1u << n;
              if ((code_a & bit) != (code_b & bit)) continue;  // changing bit
              EXPECT_EQ(m.y[static_cast<std::size_t>(n)].cover.eval(point),
                        (code_a & bit) != 0)
                  << bench.name << ": invariant y" << n << " disturbed at state "
                  << t.state_name(s_a) << " column " << col_k;
            }
          }
        }
      }
    }
  }
}

TEST(Synthesize, BaselineOmitsFsv) {
  SynthesisOptions options;
  options.add_fsv = false;
  const FantomMachine m = synth_benchmark("test_example", options);
  EXPECT_TRUE(m.fsv.cover.empty());
  EXPECT_EQ(m.fsv.expr->op(), logic::Op::kConst);
  EXPECT_EQ(m.depth_report().fsv_depth, 0);
  std::string why;
  EXPECT_TRUE(verify_equations(m, &why)) << why;
}

TEST(Synthesize, UnfactoredOptionGivesTwoLevelY) {
  SynthesisOptions options;
  options.factor = false;
  const FantomMachine m = synth_benchmark("lion", options);
  for (const Equation& eq : m.y) {
    EXPECT_LE(eq.expr->depth(), 3);  // SOP with input inverters
    EXPECT_TRUE(logic::equivalent_to_cover(eq.expr, eq.cover));
  }
}

TEST(Synthesize, NoMinimizeKeepsRowCount) {
  SynthesisOptions options;
  options.minimize_states = false;
  const FantomMachine m = synth_benchmark("lion9", options);
  EXPECT_EQ(m.table.num_states(), 9);
  std::string why;
  EXPECT_TRUE(verify_equations(m, &why)) << why;
}

TEST(Synthesize, MinimizeReducesTrain11) {
  const FantomMachine m = synth_benchmark("train11");
  EXPECT_LT(m.table.num_states(), 11);
  ASSERT_TRUE(m.reduction.has_value());
}

TEST(Synthesize, SsdAssertsExactlyAtStableStates) {
  const FantomMachine m = synth_benchmark("traffic");
  const FlowTable& t = m.table;
  for (int s = 0; s < t.num_states(); ++s) {
    for (int c = 0; c < t.num_columns(); ++c) {
      if (!t.entry(s, c).specified()) continue;
      const logic::Minterm point =
          m.layout.xy_minterm(c, m.codes[static_cast<std::size_t>(s)]);
      EXPECT_EQ(m.ssd.cover.eval(point), t.is_stable(s, c))
          << "state " << t.state_name(s) << " column " << c;
    }
  }
}

TEST(Synthesize, ReportMentionsEquations) {
  const FantomMachine m = synth_benchmark("lion");
  const std::string report = m.report();
  EXPECT_NE(report.find("fsv ="), std::string::npos);
  EXPECT_NE(report.find("SSD ="), std::string::npos);
  EXPECT_NE(report.find("depths:"), std::string::npos);
}

TEST(Synthesize, GateCountPositive) {
  const FantomMachine m = synth_benchmark("lion");
  EXPECT_GT(m.gate_count(), 0);
  // Baseline machine is strictly smaller (no fsv network, no holds).
  SynthesisOptions options;
  options.add_fsv = false;
  const FantomMachine base = synth_benchmark("lion", options);
  EXPECT_LT(base.gate_count(), m.gate_count());
}

TEST(Synthesize, ThrowsWithoutStableState) {
  flowtable::FlowTable bad(1, 0, 2);
  bad.set(0, 0, 1);
  bad.set(1, 0, 1);
  bad.set(1, 1, 1);
  bad.set(0, 1, 1);
  EXPECT_THROW((void)synthesize(bad), std::runtime_error);
}

struct SynthCase {
  int states;
  int inputs;
  std::uint64_t seed;
};

class SynthesizeRandom : public ::testing::TestWithParam<SynthCase> {};

TEST_P(SynthesizeRandom, RandomTablesVerifyEndToEnd) {
  const auto& p = GetParam();
  GeneratorOptions gen;
  gen.num_states = p.states;
  gen.num_inputs = p.inputs;
  gen.num_outputs = 2;
  gen.seed = p.seed;
  const FlowTable t = bench_suite::generate(gen);
  const FantomMachine m = synthesize(t);
  std::string why;
  EXPECT_TRUE(verify_equations(m, &why)) << why;
  const DepthReport d = m.depth_report();
  EXPECT_EQ(d.total_depth, d.fsv_depth + d.y_depth + 1);
}

std::vector<SynthCase> synth_cases() {
  std::vector<SynthCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back({4, 2, seed});
    cases.push_back({5, 3, seed * 5});
    cases.push_back({8, 3, seed * 11});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomTables, SynthesizeRandom,
                         ::testing::ValuesIn(synth_cases()));

// verify_equations names the first equation it finds wrong, scanning
// entries (state, column) in order and, per entry, Y0.. before Z and SSD;
// fsv is checked last.  Each corruption below breaks one equation of a
// machine that verifies, and the exact message is pinned.
TEST(VerifyEquations, NamesTheFirstWrongEquation) {
  const FantomMachine good = synth_benchmark("test_example");
  ASSERT_TRUE(verify_equations(good));
  ASSERT_GE(good.y.size(), 2u);
  ASSERT_FALSE(good.z.empty());
  ASSERT_FALSE(good.fsv.cover.empty());
  const int y_vars = good.layout.y_space_vars();
  const int xy_vars = good.layout.xy_vars();
  const auto message = [](const FantomMachine& m) {
    std::string why;
    EXPECT_FALSE(verify_equations(m, &why));
    return why;
  };

  {  // One Y cube: flip the polarity of one literal of Y0's first cube.
    FantomMachine m = good;
    std::vector<logic::Cube> cubes = m.y[0].cover.cubes();
    const std::uint32_t literal = cubes[0].care() & (~cubes[0].care() + 1);
    cubes[0] = logic::Cube(y_vars, cubes[0].care(), cubes[0].value() ^ literal);
    m.y[0].cover = logic::Cover(y_vars, std::move(cubes));
    EXPECT_EQ(message(m), "Y0 wrong on transition (m_A, col 3)");
  }
  {  // The factored Y1 expression also asserts at the last parked point
     // (in entry order) where its cover is 0.
    FantomMachine m = good;
    std::optional<logic::Minterm> point;
    for (int s = m.table.num_states() - 1; s >= 0 && !point; --s) {
      for (int c = m.table.num_columns() - 1; c >= 0 && !point; --c) {
        const logic::Minterm p =
            m.layout.xy_minterm(c, m.codes[static_cast<std::size_t>(s)]);
        if (m.table.entry(s, c).specified() && !m.y[1].cover.eval(p)) point = p;
      }
    }
    ASSERT_TRUE(point.has_value());
    m.y[1].expr = logic::Expr::make_or(
        {m.y[1].expr, logic::first_level_product(logic::Cube::from_minterm(y_vars, *point))});
    EXPECT_EQ(message(m), "Y1 wrong on transition (m_B, col 7)");
  }
  {  // A Z cover that is constant 0.
    FantomMachine m = good;
    m.z[0].cover = logic::Cover(xy_vars);
    EXPECT_EQ(message(m), "Z0 wrong at stable (m_A, col 1)");
  }
  {  // An SSD cover that is constant 1, then constant 0.
    FantomMachine m = good;
    m.ssd.cover = logic::Cover(xy_vars, {logic::Cube(xy_vars)});
    EXPECT_EQ(message(m), "SSD asserted at unstable (m_A, col 2)");
    m.ssd.cover = logic::Cover(xy_vars);
    EXPECT_EQ(message(m), "SSD not asserted at stable (m_A, col 0)");
  }
  {  // The fsv cover without its first prime.
    FantomMachine m = good;
    const std::vector<logic::Cube>& primes = good.fsv.cover.cubes();
    m.fsv.cover = logic::Cover(xy_vars, {primes.begin() + 1, primes.end()});
    EXPECT_EQ(message(m), "fsv wrong at (m_D, col 2)");
  }
}

}  // namespace
}  // namespace seance::core
