// Differential suite for the consensus repair (logic/ternary.hpp): the
// packed-truth-table passes against the per-minterm reference passes
// (tests/oracles/logic/consensus_reference.hpp).  Both must add the same
// cubes in the same order, return the same counts, and agree on SIC
// static-1 hazard freedom before and after the repair.
//
// Inputs: random covers of 1-16 variables at fixed seeds, and every Y
// cover, as cover selection returns it before the repair, of the
// Table-1 suite and of the first four hardest-shape golden jobs.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "logic/consensus_reference.hpp"
#include "logic/qm.hpp"
#include "logic/ternary.hpp"
#include "search/search.hpp"

namespace seance::logic {
namespace {

/// Returns the number of cubes the repair added.
int expect_same_repair(const Cover& input, const std::string& label) {
  EXPECT_EQ(sic_static1_hazard_free(input), reference_sic_static1_hazard_free(input))
      << label;
  Cover repaired = input;
  Cover reference = input;
  const int added = make_sic_static1_hazard_free(repaired);
  const int reference_added = reference_make_sic_static1_hazard_free(reference);
  EXPECT_EQ(added, reference_added) << label;
  EXPECT_EQ(repaired.cubes(), reference.cubes()) << label;
  EXPECT_TRUE(sic_static1_hazard_free(repaired)) << label;
  EXPECT_TRUE(reference_sic_static1_hazard_free(repaired)) << label;
  return added;
}

/// Random cubes over `num_vars` variables, each variable a literal with
/// probability `p_care`.
Cover random_cover(int num_vars, int cubes, double p_care, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution literal(p_care);
  Cover cover(num_vars);
  for (int k = 0; k < cubes; ++k) {
    std::uint32_t care = 0;
    for (int i = 0; i < num_vars; ++i) {
      if (literal(rng)) care |= 1u << i;
    }
    cover.add(Cube(num_vars, care, static_cast<std::uint32_t>(rng())));
  }
  return cover;
}

TEST(ConsensusEquivalence, RandomCoversMatchReference) {
  int added = 0;
  for (int n = 1; n <= 16; ++n) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const int cubes = 2 + static_cast<int>(seed) * n / 2;
      const Cover cover = random_cover(n, cubes, 0.7, seed * 100 + static_cast<std::uint64_t>(n));
      added += expect_same_repair(cover, std::to_string(n) + " vars, seed " +
                                             std::to_string(seed));
    }
  }
  EXPECT_GT(added, 0);
}

TEST(ConsensusEquivalence, MinimumCoversMatchReference) {
  // Minimum SOP covers of random functions: the shape the pipeline
  // repairs, with many adjacent ON pairs split across cubes.
  int added = 0;
  for (int n = 2; n <= 10; ++n) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(n));
    std::vector<Minterm> on;
    for (Minterm m = 0; m < (1u << n); ++m) {
      if (rng() % 2 == 0) on.push_back(m);
    }
    added += expect_same_repair(select_cover(n, on, {}), std::to_string(n) + " vars");
  }
  EXPECT_GT(added, 0);
}

/// Synthesizes `table` as a batch job does (same memo size), minus the
/// repair, checks each Y cover and returns the cubes the repairs added.  The covers are the ones the
/// pipeline repairs: cover selection runs before the repair and never
/// depends on it.
int expect_machine_y_covers_match(const flowtable::FlowTable& table,
                                  const std::string& name) {
  core::SynthesisOptions options;
  options.consensus_repair = false;
  search::TranspositionTable tt(core::SynthesisOptions::tt_mb << 20);
  const core::FantomMachine machine = core::synthesize(table, options, &tt);
  int added = 0;
  for (std::size_t n = 0; n < machine.y.size(); ++n) {
    added += expect_same_repair(machine.y[n].cover, name + " Y" + std::to_string(n));
  }
  return added;
}

TEST(ConsensusEquivalence, Table1YCoversMatchReference) {
  int added = 0;
  for (const auto& bench : bench_suite::table1_suite()) {
    added += expect_machine_y_covers_match(bench_suite::load(bench), bench.name);
  }
  EXPECT_GT(added, 0);
}

TEST(ConsensusEquivalence, HardestYCoversMatchReference) {
  driver::BatchRunner runner;
  // The CLI's default base seed: the golden corpus's hardest-20x6-0000..3.
  runner.add_hardest_generated(4, bench_suite::GeneratorOptions{}.seed);
  int added = 0;
  for (const driver::JobSpec& job : runner.jobs()) {
    added += expect_machine_y_covers_match(job.table, job.name);
  }
  EXPECT_GT(added, 0);
}

}  // namespace
}  // namespace seance::logic
