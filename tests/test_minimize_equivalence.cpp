// Differential suite: the packed-word minimize engine (reduce.hpp) vs the
// retained seed implementation (reduce_reference.hpp).  The bitset
// rewrite is designed to be result-identical, not merely equivalent:
// same pair chart, same maximal compatibles, same prime list in the same
// order with the same implied classes, and a node-for-node identical
// closed-cover search — so the golden corpus cannot drift through this
// module.  Any intentional divergence must loosen these assertions
// explicitly.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench_suite/generator.hpp"
#include "minimize/reduce.hpp"
#include "minimize/reduce_reference.hpp"

namespace seance::minimize {
namespace {

using bench_suite::GeneratorOptions;
using flowtable::FlowTable;

struct EquivalenceCase {
  int states = 6;
  int inputs = 2;
  double density = 0.5;
  std::uint64_t seed = 1;
};

void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << c.states << "x" << c.inputs << " d" << c.density << " seed" << c.seed;
}

class MinimizeEnginesAgree : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(MinimizeEnginesAgree, IdenticalPipeline) {
  const auto& p = GetParam();
  GeneratorOptions gen;
  gen.num_states = p.states;
  gen.num_inputs = p.inputs;
  gen.num_outputs = 2;
  gen.transition_density = p.density;
  gen.seed = p.seed;
  const FlowTable table = bench_suite::generate(gen);

  // Pair chart.
  const auto rows = compatibility_rows(table);
  const auto pairs = reference_compatible_pairs(table);
  for (int s = 0; s < table.num_states(); ++s) {
    for (int t = 0; t < table.num_states(); ++t) {
      if (s == t) continue;
      const bool bit = (rows[static_cast<std::size_t>(s)] >> t) & 1;
      EXPECT_EQ(bit, static_cast<bool>(
                         pairs[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)]))
          << "pair (" << s << "," << t << ")";
    }
  }

  // Maximal compatibles.
  EXPECT_EQ(maximal_compatibles(table, rows),
            reference_maximal_compatibles(table, pairs));

  // Prime compatibles: same sets, same order, same implied classes.
  const auto primes = prime_compatibles(table, rows);
  const auto ref_primes = reference_prime_compatibles(table, pairs);
  ASSERT_EQ(primes.size(), ref_primes.size());
  for (std::size_t i = 0; i < primes.size(); ++i) {
    EXPECT_EQ(primes[i].states, ref_primes[i].states) << "prime " << i;
    EXPECT_EQ(primes[i].implied, ref_primes[i].implied) << "prime " << i;
  }

  // Full reduction: identical search tree and identical result.
  const ReductionResult r = reduce(table);
  const ReductionResult ref = reference_reduce(table);
  EXPECT_EQ(r.cover_nodes, ref.cover_nodes);
  EXPECT_EQ(r.cover_exact, ref.cover_exact);
  EXPECT_EQ(r.classes, ref.classes);
  EXPECT_EQ(r.state_to_class, ref.state_to_class);
  EXPECT_EQ(r.reduced.num_states(), ref.reduced.num_states());
  EXPECT_TRUE(is_closed_cover(table, r.classes));
}

std::vector<EquivalenceCase> equivalence_cases() {
  std::vector<EquivalenceCase> cases;
  for (const double density : {0.3, 0.7}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      cases.push_back({6, 3, density, seed});
      cases.push_back({8, 3, density, seed * 3});
    }
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      cases.push_back({12, 4, density, seed * 7});
      cases.push_back({20, 6, density, seed * 13});
    }
  }
  // The smallest size past 26 states, where prime_compatibles once took
  // a separate dedup path; both closed-cover searches prove five classes
  // in 344,778 nodes.
  cases.push_back({27, 6, 0.3, 1});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(GeneratedTables, MinimizeEnginesAgree,
                         ::testing::ValuesIn(equivalence_cases()));

}  // namespace
}  // namespace seance::minimize
