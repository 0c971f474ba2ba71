// Cross-cutting hazard-freedom properties: the invariants DESIGN.md §7
// promises, checked over the benchmark suite and random machines.

#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "logic/qm.hpp"
#include "logic/ternary.hpp"
#include "sim/ternary_verify.hpp"

namespace seance {
namespace {

using logic::Cover;
using logic::Cube;
using logic::Minterm;

TEST(ConsensusRepair, FixesTheClassicHazard) {
  // f = x0 x1 + x0' x2: the 111 -> 110 move glitches.
  Cover cover(3);
  cover.add(Cube::from_string("11-"));
  cover.add(Cube::from_string("0-1"));
  ASSERT_FALSE(logic::sic_static1_hazard_free(cover));
  const int added = logic::make_sic_static1_hazard_free(cover);
  EXPECT_GE(added, 1);
  EXPECT_TRUE(logic::sic_static1_hazard_free(cover));
}

TEST(ConsensusRepair, PreservesTheFunction) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Random function; select a minimal cover, repair, compare ON-sets.
    std::vector<Minterm> on;
    std::mt19937_64 rng(seed);
    for (Minterm m = 0; m < 64; ++m) {
      if (rng() % 3 == 0) on.push_back(m);
    }
    Cover cover = logic::select_cover(6, on, {});
    const auto before = cover.on_set();
    (void)logic::make_sic_static1_hazard_free(cover);
    EXPECT_EQ(cover.on_set(), before) << "seed " << seed;
    EXPECT_TRUE(logic::sic_static1_hazard_free(cover));
  }
}

TEST(ConsensusRepair, NoOpOnHazardFreeCover) {
  Cover cover(3);
  cover.add(Cube::from_string("11-"));
  cover.add(Cube::from_string("0-1"));
  cover.add(Cube::from_string("-11"));  // consensus already present
  EXPECT_EQ(logic::make_sic_static1_hazard_free(cover), 0);
}

TEST(ConsensusRepair, AddedCubesAreImplicants) {
  Cover cover(4);
  cover.add(Cube::from_string("11--"));
  cover.add(Cube::from_string("0-1-"));
  cover.add(Cube::from_string("--01"));
  Cover repaired = cover;
  (void)logic::make_sic_static1_hazard_free(repaired);
  // Same function: every repaired cube lies inside the original ON-set.
  for (const Cube& c : repaired.cubes()) {
    for (Minterm m : c.minterms()) {
      EXPECT_TRUE(cover.eval(m));
    }
  }
}

class SuiteProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteProperties, YCoversAreSicHazardFree) {
  const auto table = bench_suite::load(bench_suite::by_name(GetParam()));
  const auto machine = core::synthesize(table);
  for (const auto& eq : machine.y) {
    EXPECT_TRUE(logic::sic_static1_hazard_free(eq.cover));
  }
}

TEST_P(SuiteProperties, FsvTernaryCleanOnSingleBitMoves) {
  const auto table = bench_suite::load(bench_suite::by_name(GetParam()));
  const auto machine = core::synthesize(table);
  if (machine.fsv.cover.empty()) return;
  EXPECT_TRUE(logic::sic_static1_hazard_free(machine.fsv.cover));
  // Eichelberger check around every FL point: single-bit input moves off
  // a hazard state must not glitch fsv.
  const auto& layout = machine.layout;
  for (const auto& t : machine.hazards.fl) {
    const Minterm from = layout.xy_minterm(
        t.column, machine.codes[static_cast<std::size_t>(t.state)]);
    for (int b = 0; b < layout.num_inputs; ++b) {
      const Minterm to = from ^ (1u << b);
      if (machine.fsv.cover.eval(to)) {
        EXPECT_TRUE(logic::ternary_transition_clean(machine.fsv.cover, from, to));
      }
    }
  }
}

TEST_P(SuiteProperties, FsvZeroHalfHoldsEveryHazardPoint) {
  const auto table = bench_suite::load(bench_suite::by_name(GetParam()));
  const auto machine = core::synthesize(table);
  const auto& layout = machine.layout;
  for (int n = 0; n < layout.num_state_vars; ++n) {
    for (const auto& t : machine.hazards.per_var[static_cast<std::size_t>(n)]) {
      const std::uint32_t code =
          machine.codes[static_cast<std::size_t>(t.state)];
      const Minterm point = layout.xy_minterm(t.column, code);
      EXPECT_EQ(machine.y[static_cast<std::size_t>(n)].cover.eval(point),
                ((code >> n) & 1u) != 0)
          << GetParam() << " y" << n << " at (" << t.state << ", col "
          << t.column << ")";
    }
  }
}

TEST_P(SuiteProperties, FirstLevelGateFormEverywhere) {
  const auto table = bench_suite::load(bench_suite::by_name(GetParam()));
  const auto machine = core::synthesize(table);
  EXPECT_TRUE(logic::is_first_level_gate_form(machine.fsv.expr));
  EXPECT_TRUE(logic::is_first_level_gate_form(machine.ssd.expr));
  for (const auto& eq : machine.y) {
    EXPECT_TRUE(logic::is_first_level_gate_form(eq.expr));
  }
  for (const auto& eq : machine.z) {
    EXPECT_TRUE(logic::is_first_level_gate_form(eq.expr));
  }
}

TEST_P(SuiteProperties, DepthBoundsOfTable1Hold) {
  const auto table = bench_suite::load(bench_suite::by_name(GetParam()));
  const auto machine = core::synthesize(table);
  const auto depths = machine.depth_report();
  EXPECT_GE(depths.fsv_depth, 2);
  EXPECT_LE(depths.fsv_depth, 3);
  EXPECT_LE(depths.y_depth, 5);
  EXPECT_GE(depths.total_depth, 7);
  EXPECT_LE(depths.total_depth, 9);
}

INSTANTIATE_TEST_SUITE_P(Table1, SuiteProperties,
                         ::testing::Values("test_example", "traffic", "lion",
                                           "lion9", "train11"));

// Random machines: the fsv=0 invariant-hold property checked directly
// against the hazard search's own output.
class RandomHold : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomHold, InvariantBitsHeldAtIntermediates) {
  bench_suite::GeneratorOptions gen;
  gen.num_states = 6;
  gen.num_inputs = 3;
  gen.num_outputs = 1;
  gen.mic_bias = 1.0;
  gen.transition_density = 0.8;
  gen.seed = GetParam();
  const auto table = bench_suite::generate(gen);
  const auto machine = core::synthesize(table);
  std::string why;
  ASSERT_TRUE(core::verify_equations(machine, &why)) << why;
  const auto& t = machine.table;
  const auto& layout = machine.layout;
  for (int s = 0; s < t.num_states(); ++s) {
    const std::uint32_t code_a = machine.codes[static_cast<std::size_t>(s)];
    for (int col_a : t.stable_columns(s)) {
      for (int col_b = 0; col_b < t.num_columns(); ++col_b) {
        if (col_b == col_a || !t.entry(s, col_b).specified()) continue;
        const std::uint32_t code_b =
            machine.codes[static_cast<std::size_t>(t.entry(s, col_b).next)];
        const std::uint32_t diff = static_cast<std::uint32_t>(col_a ^ col_b);
        if (std::popcount(diff) <= 1) continue;
        for (std::uint32_t sub = (diff - 1) & diff; sub != 0;
             sub = (sub - 1) & diff) {
          const Minterm point = layout.xy_minterm(col_a ^ static_cast<int>(sub), code_a);
          for (int n = 0; n < layout.num_state_vars; ++n) {
            const std::uint32_t bit = 1u << n;
            if ((code_a & bit) != (code_b & bit)) continue;
            EXPECT_EQ(machine.y[static_cast<std::size_t>(n)].cover.eval(point),
                      (code_a & bit) != 0);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHold,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u));

// Corpus-scale properties: generator tables pushed through BatchRunner,
// with every recorded hazard metric cross-checked against a direct
// re-synthesis and the Eichelberger ternary procedures.
class BatchProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchProperties, ReportAgreesWithDirectTernaryVerify) {
  driver::BatchOptions options;
  options.threads = 4;
  driver::BatchRunner runner(options);
  bench_suite::GeneratorOptions gen;
  gen.num_states = 5;
  gen.num_inputs = 3;
  gen.seed = GetParam();
  runner.add_generated(6, gen);
  const auto report = runner.run();
  ASSERT_TRUE(report.all_ok()) << report.summary();
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const auto& job = report.jobs[i];
    const auto machine = core::synthesize(runner.jobs()[i].table);
    // Every protected machine the batch passed must satisfy the pipeline's
    // own functional cross-check and SIC hazard-freedom of its Y covers.
    EXPECT_TRUE(core::verify_equations(machine));
    for (const auto& eq : machine.y) {
      EXPECT_TRUE(logic::sic_static1_hazard_free(eq.cover)) << job.name;
    }
    // The recorded ternary counts are exactly what a direct run yields —
    // the report is a faithful, deterministic view of sim/ternary_verify.
    const auto ternary = sim::ternary_verify(machine);
    EXPECT_EQ(job.ternary_transitions, ternary.transitions_checked) << job.name;
    EXPECT_EQ(job.ternary_a_violations, ternary.procedure_a_violations)
        << job.name;
    EXPECT_EQ(job.ternary_b_violations, ternary.procedure_b_violations)
        << job.name;
    EXPECT_EQ(job.fl_hazards, static_cast<int>(machine.hazards.fl.size()))
        << job.name;
  }
}

TEST_P(BatchProperties, FsvNoWorseThanNaiveAcrossCorpus) {
  // Table-1's comparative claim at corpus scale: per generated table, the
  // protected machine never shows more Procedure-A flags than the naive
  // (no-fsv, no-consensus) synthesis of the same table.
  driver::BatchOptions fantom;
  fantom.threads = 4;
  driver::BatchOptions naive = fantom;
  naive.synthesis.add_fsv = false;
  naive.synthesis.consensus_repair = false;
  driver::BatchRunner fr(fantom), nr(naive);
  bench_suite::GeneratorOptions gen;
  gen.num_states = 6;
  gen.num_inputs = 3;
  gen.mic_bias = 1.0;
  gen.transition_density = 0.8;
  gen.seed = GetParam();
  fr.add_generated(6, gen);
  nr.add_generated(6, gen);
  const auto fantom_report = fr.run();
  const auto naive_report = nr.run();
  ASSERT_EQ(fantom_report.jobs.size(), naive_report.jobs.size());
  for (std::size_t i = 0; i < fantom_report.jobs.size(); ++i) {
    EXPECT_LE(fantom_report.jobs[i].ternary_a_violations,
              naive_report.jobs[i].ternary_a_violations)
        << fantom_report.jobs[i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchProperties,
                         ::testing::Values(3u, 9u, 27u, 81u));

}  // namespace
}  // namespace seance
