// Differential suite: the popcount-bucketed / incrementally-resuming,
// certificate-bounded USTT engine (ustt.hpp) vs the retained seed
// implementation (ustt_reference.hpp).  The dominance reductions consume
// the same detail::raw_dichotomies list and must keep exactly the same
// dichotomies in the same order (the kept set is the maximal elements,
// which is order-independent).  When the uniqueness completion never
// fires, the production path never needs more variables than the seed;
// at the same count the codes are bit-identical (the certified search
// stops at an incumbent the seed's search would keep), and the
// certificate can only turn an unproven result into a proven one.  When
// the completion does fire, the two paths add different batches of
// separation pairs, so only validity is compared.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "assign/ustt.hpp"
#include "assign/ustt_reference.hpp"
#include "bench_suite/generator.hpp"

namespace seance::assign {
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

class AssignEnginesAgree : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(AssignEnginesAgree, IdenticalDominanceAndValidCodes) {
  const auto& p = GetParam();
  GeneratorOptions gen;
  gen.num_states = p.states;
  gen.num_inputs = p.inputs;
  gen.num_outputs = 2;
  gen.transition_density = p.density;
  gen.seed = p.seed;
  const FlowTable table = bench_suite::generate(gen);

  // Dominance reduction: same kept dichotomies in the same order.
  const auto fast = transition_dichotomies(table);
  const auto ref = reference_transition_dichotomies(table);
  EXPECT_TRUE(fast == ref) << "kept " << fast.size() << " vs " << ref.size();

  const Assignment a = assign_ustt(table);
  const Assignment b = reference_assign_ustt(table);
  std::string why;
  EXPECT_TRUE(verify_ustt(table, a.codes, a.num_vars, &why)) << why;
  EXPECT_TRUE(verify_ustt(table, b.codes, b.num_vars, &why)) << why;

  if (b.completion_rounds == 0) {
    // No uniqueness completion: round 0 of the production path is the
    // seed's search bounded by Tracey's cover.  It may find fewer
    // variables (the cover's solution replaces a truncated incumbent),
    // never more; at an equal count it is the seed's assignment; and
    // `exact` can only go from false to true.
    EXPECT_EQ(a.completion_rounds, 0);
    EXPECT_LE(a.num_vars, b.num_vars);
    if (a.num_vars == b.num_vars) {
      EXPECT_EQ(a.codes, b.codes);
    }
    if (b.exact) {
      EXPECT_TRUE(a.exact);
    }
  }
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
  return cases;
}

INSTANTIATE_TEST_SUITE_P(GeneratedTables, AssignEnginesAgree,
                         ::testing::ValuesIn(equivalence_cases()));

}  // namespace
}  // namespace seance::assign
