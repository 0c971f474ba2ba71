// Cross-module integration: synthesize -> netlist -> simulate for random
// machines, plus pipeline option sweeps.

#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "sim/harness.hpp"

namespace seance {
namespace {

struct EndToEndCase {
  int states;
  int inputs;
  std::uint64_t seed;
};

class EndToEnd : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEnd, RandomMachineSimulatesCleanly) {
  const auto& p = GetParam();
  bench_suite::GeneratorOptions gen;
  gen.num_states = p.states;
  gen.num_inputs = p.inputs;
  gen.num_outputs = 2;
  gen.seed = p.seed;
  const auto table = bench_suite::generate(gen);
  const core::FantomMachine m = core::synthesize(table);
  std::string why;
  ASSERT_TRUE(core::verify_equations(m, &why)) << why;

  sim::HarnessOptions options;
  options.max_skew = 2;
  options.delays.seed = p.seed * 13;
  sim::FantomHarness harness(m, options);
  const auto stable = m.table.stable_columns(0);
  ASSERT_FALSE(stable.empty());
  ASSERT_TRUE(harness.reset(0, stable.front()));
  const auto summary = harness.random_walk(40, p.seed * 3);
  EXPECT_EQ(summary.failures, 0)
      << "seed " << p.seed << ": " << summary.applied << " applied";
}

std::vector<EndToEndCase> end_to_end_cases() {
  std::vector<EndToEndCase> cases;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cases.push_back({4, 2, seed});
    cases.push_back({6, 3, seed * 7});
    cases.push_back({8, 3, seed * 19});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomMachines, EndToEnd,
                         ::testing::ValuesIn(end_to_end_cases()));

TEST(Pipeline, OptionsComposeOnLion9) {
  const auto table = bench_suite::load(bench_suite::by_name("lion9"));
  for (const bool minimize : {false, true}) {
    for (const bool factor : {false, true}) {
      core::SynthesisOptions options;
      options.minimize_states = minimize;
      options.factor = factor;
      const core::FantomMachine m = core::synthesize(table, options);
      std::string why;
      EXPECT_TRUE(core::verify_equations(m, &why))
          << "minimize=" << minimize << " factor=" << factor << ": " << why;
    }
  }
}

TEST(Pipeline, Train4DegeneratesGracefully) {
  // train4 minimizes to very few states; the pipeline must survive tiny
  // state spaces (possibly zero state variables).
  const auto table = bench_suite::load(bench_suite::by_name("train4"));
  const core::FantomMachine m = core::synthesize(table);
  std::string why;
  EXPECT_TRUE(core::verify_equations(m, &why)) << why;
  EXPECT_LT(m.table.num_states(), 4);
}

TEST(Pipeline, WarningsSurfaceNormalization) {
  // A chained table is repaired and the warning is recorded.  Every state
  // keeps a stable column so synthesis can proceed after the rewrite.
  flowtable::FlowTableBuilder b(1, 1);
  b.on("a", "0", "a", "0");
  b.on("a", "1", "b", "1");  // chains: b is unstable in column 1
  b.on("b", "1", "c", "-");
  b.on("b", "0", "b", "1");
  b.on("c", "1", "c", "0");
  b.on("c", "0", "a", "-");
  const core::FantomMachine m = core::synthesize(b.build());
  bool found = false;
  for (const auto& w : m.warnings) {
    if (w.find("normalized") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace seance
