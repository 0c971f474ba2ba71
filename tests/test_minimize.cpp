#include "minimize/reduce.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "flowtable/table.hpp"
#include "minimize/reduce_reference.hpp"

namespace seance::minimize {
namespace {

using bench_suite::GeneratorOptions;
using flowtable::FlowTable;
using flowtable::FlowTableBuilder;
using flowtable::Trit;

bool pair_compatible(const std::vector<StateSet>& rows, int s, int t) {
  return (rows[static_cast<std::size_t>(s)] >> t) & 1;
}

// a and a2 are behaviourally identical; b is pinned apart from both by a
// transient-output conflict in column 1.
FlowTable redundant_pair_table() {
  FlowTableBuilder builder(1, 1);
  builder.on("a", "0", "a", "0");
  builder.on("a", "1", "b", "1");
  builder.on("a2", "0", "a2", "0");
  builder.on("a2", "1", "b", "1");
  builder.on("b", "1", "b", "0");
  builder.on("b", "0", "a", "-");
  return builder.build();
}

// Three mutually incompatible states: a/c conflict at their shared stable
// column 0; a/b conflict through a's specified transient output in
// column 1; b/c conflict at column 0.
FlowTable irreducible_three() {
  FlowTableBuilder builder(1, 1);
  builder.on("a", "0", "a", "0");
  builder.on("a", "1", "b", "1");
  builder.on("b", "0", "b", "0");
  builder.on("b", "1", "b", "0");
  builder.on("c", "0", "c", "1");
  builder.on("c", "1", "b", "0");
  return builder.build();
}

TEST(Minimize, DirectOutputConflictSeedsIncompatibility) {
  const FlowTable t = irreducible_three();
  const auto rows = compatibility_rows(t);
  const int a = t.state_index("a");
  const int b = t.state_index("b");
  const int c = t.state_index("c");
  EXPECT_FALSE(pair_compatible(rows, a, c));  // stable outputs 0 vs 1 in column 0
  EXPECT_FALSE(pair_compatible(rows, a, b));  // transient 1 vs stable 0 in column 1
  EXPECT_FALSE(pair_compatible(rows, b, c));  // stable outputs 0 vs 1 in column 0
}

TEST(Minimize, IdenticalStatesAreCompatible) {
  const FlowTable t = redundant_pair_table();
  const auto rows = compatibility_rows(t);
  EXPECT_TRUE(pair_compatible(rows, t.state_index("a"), t.state_index("a2")));
  EXPECT_FALSE(pair_compatible(rows, t.state_index("a"), t.state_index("b")));
}

TEST(Minimize, MergesRedundantStates) {
  const FlowTable t = redundant_pair_table();
  const ReductionResult r = reduce(t);
  EXPECT_EQ(r.reduced.num_states(), 2);
  EXPECT_TRUE(is_closed_cover(t, r.classes));
  EXPECT_TRUE(r.reduced.is_normal_mode());
  // a and a2 land in the same reduced state.
  EXPECT_EQ(r.state_to_class[static_cast<std::size_t>(t.state_index("a"))],
            r.state_to_class[static_cast<std::size_t>(t.state_index("a2"))]);
}

TEST(Minimize, IrreducibleTableKeepsAllStates) {
  const FlowTable t = irreducible_three();
  const ReductionResult r = reduce(t);
  EXPECT_EQ(r.reduced.num_states(), 3);
}

TEST(Minimize, ImpliedPairPropagation) {
  // a/b agree everywhere visible but imply (c,d), which conflicts at the
  // shared stable column 1.
  FlowTableBuilder builder(1, 1);
  builder.on("a", "0", "a", "0");
  builder.on("a", "1", "c", "-");
  builder.on("b", "0", "b", "0");
  builder.on("b", "1", "d", "-");
  builder.on("c", "1", "c", "0");
  builder.on("c", "0", "a", "-");
  builder.on("d", "1", "d", "1");
  builder.on("d", "0", "b", "-");
  const FlowTable t = builder.build();
  const auto rows = compatibility_rows(t);
  EXPECT_FALSE(pair_compatible(rows, t.state_index("c"), t.state_index("d")));
  EXPECT_FALSE(pair_compatible(rows, t.state_index("a"), t.state_index("b")));
}

TEST(Minimize, MaximalCompatiblesAreCliques) {
  const FlowTable t = redundant_pair_table();
  const auto rows = compatibility_rows(t);
  const auto mcs = maximal_compatibles(t, rows);
  for (StateSet mc : mcs) {
    EXPECT_TRUE(is_compatible_set(t, rows, mc));
  }
  const StateSet a_pair = (StateSet{1} << t.state_index("a")) |
                          (StateSet{1} << t.state_index("a2"));
  bool found = false;
  for (StateSet mc : mcs) {
    if ((a_pair & ~mc) == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Minimize, ImpliedClassesComputed) {
  FlowTableBuilder builder(1, 1);
  builder.on("a", "0", "a", "0");
  builder.on("a", "1", "c", "-");
  builder.on("b", "0", "b", "0");
  builder.on("b", "1", "d", "-");
  builder.on("c", "1", "c", "0");
  builder.on("c", "0", "a", "-");
  builder.on("d", "1", "d", "0");
  builder.on("d", "0", "b", "-");
  const FlowTable t = builder.build();
  const StateSet ab = (StateSet{1} << t.state_index("a")) |
                      (StateSet{1} << t.state_index("b"));
  const auto implied = implied_classes(t, ab);
  const StateSet cd = (StateSet{1} << t.state_index("c")) |
                      (StateSet{1} << t.state_index("d"));
  ASSERT_EQ(implied.size(), 1u);
  EXPECT_EQ(implied[0], cd);
}

TEST(Minimize, ClosedCoverChecker) {
  FlowTableBuilder builder(1, 1);
  builder.on("a", "0", "a", "0");
  builder.on("a", "1", "c", "-");
  builder.on("b", "0", "b", "0");
  builder.on("b", "1", "d", "-");
  builder.on("c", "1", "c", "0");
  builder.on("c", "0", "a", "-");
  builder.on("d", "1", "d", "0");
  builder.on("d", "0", "b", "-");
  const FlowTable t = builder.build();
  const int a = t.state_index("a"), b = t.state_index("b");
  const int c = t.state_index("c"), d = t.state_index("d");
  // {a,b} implies {c,d}: choosing singleton c and d breaks closure.
  std::vector<StateSet> broken = {
      (StateSet{1} << a) | (StateSet{1} << b),
      StateSet{1} << c,
      StateSet{1} << d,
  };
  std::string why;
  EXPECT_FALSE(is_closed_cover(t, broken, &why));
  EXPECT_FALSE(why.empty());
  std::vector<StateSet> good = {
      (StateSet{1} << a) | (StateSet{1} << b),
      (StateSet{1} << c) | (StateSet{1} << d),
  };
  EXPECT_TRUE(is_closed_cover(t, good));
  std::vector<StateSet> not_covering = {(StateSet{1} << a) | (StateSet{1} << b)};
  EXPECT_FALSE(is_closed_cover(t, not_covering, &why));
}

TEST(Minimize, PrimeCompatiblesIncludeUsefulClasses) {
  const FlowTable t = redundant_pair_table();
  const auto rows = compatibility_rows(t);
  const auto primes = prime_compatibles(t, rows);
  EXPECT_FALSE(primes.empty());
  // Every prime must be a genuine compatible.
  for (const PrimeCompatible& p : primes) {
    EXPECT_TRUE(is_compatible_set(t, rows, p.states));
  }
  // Every state must be covered by at least one prime (else no cover exists).
  StateSet covered = 0;
  for (const PrimeCompatible& p : primes) covered |= p.states;
  EXPECT_EQ(covered, (StateSet{1} << t.num_states()) - 1);
}

// Overlapping maximal compatibles share submasks; a prime inside two of
// them is walked twice and must still come out once.
TEST(Minimize, OverlappingMaximalCompatiblesYieldEachPrimeOnce) {
  GeneratorOptions gen;
  gen.num_states = 12;
  gen.num_inputs = 4;
  gen.num_outputs = 2;
  int shared = 0;  // primes strictly inside two or more maximal compatibles
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    gen.seed = seed;
    const FlowTable t = bench_suite::generate(gen);
    const auto rows = compatibility_rows(t);
    const auto mcs = maximal_compatibles(t, rows);
    const auto primes = prime_compatibles(t, rows);
    std::vector<StateSet> sets;
    for (const PrimeCompatible& p : primes) {
      sets.push_back(p.states);
      const auto inside =
          std::count_if(mcs.begin(), mcs.end(), [&](StateSet mc) {
            return (p.states & mc) == p.states && p.states != mc;
          });
      if (inside >= 2) ++shared;
    }
    std::sort(sets.begin(), sets.end());
    EXPECT_EQ(std::adjacent_find(sets.begin(), sets.end()), sets.end());
    const auto ref =
        reference_prime_compatibles(t, reference_compatible_pairs(t));
    ASSERT_EQ(primes.size(), ref.size());
    for (std::size_t i = 0; i < primes.size(); ++i) {
      EXPECT_EQ(primes[i].states, ref[i].states) << "prime " << i;
    }
  }
  EXPECT_GT(shared, 0);
}

// Past 26 states prime_compatibles once deduplicated candidates level by
// level instead of through a seen-bitmap; one path now serves every
// state count, and its prime list must still be the reference's.
TEST(Minimize, PrimeCompatiblesPastTwentySixStatesMatchTheReference) {
  GeneratorOptions gen;
  gen.num_inputs = 6;
  gen.num_outputs = 2;
  for (const int states : {27, 30}) {
    for (const double density : {0.3, 0.7}) {
      gen.num_states = states;
      gen.transition_density = density;
      gen.seed = static_cast<std::uint64_t>(states);
      SCOPED_TRACE(states);
      SCOPED_TRACE(density);
      const FlowTable t = bench_suite::generate(gen);
      const auto primes = prime_compatibles(t, compatibility_rows(t));
      const auto ref =
          reference_prime_compatibles(t, reference_compatible_pairs(t));
      ASSERT_EQ(primes.size(), ref.size());
      for (std::size_t i = 0; i < primes.size(); ++i) {
        EXPECT_EQ(primes[i].states, ref[i].states) << "prime " << i;
        EXPECT_EQ(primes[i].implied, ref[i].implied) << "prime " << i;
      }
    }
  }
}

// Two chosen classes can share their lowest member; without the
// full-value tiebreak in build_reduction their relative order (and every
// downstream byte: state numbering, codes, equations) would hang on the
// stdlib sort's tie handling.  b and c are forced apart by stable outputs;
// a is compatible with both, so the cover is exactly {a,b} and {a,c} —
// both classes start at state a.
TEST(Minimize, OverlappingClassOrderIsPinned) {
  FlowTableBuilder builder(1, 1);
  builder.on("a", "1", "a", "-");
  builder.on("b", "0", "b", "0");
  builder.on("c", "0", "c", "1");
  const FlowTable t = builder.build();
  ASSERT_EQ(t.state_index("a"), 0);
  const ReductionResult r = reduce(t);
  ASSERT_EQ(r.reduced.num_states(), 2);
  // countr_zero ties at state a; {a,b} = 0b011 sorts before {a,c} = 0b101.
  EXPECT_EQ(r.classes[0], (StateSet{1} << 0) | (StateSet{1} << 1));
  EXPECT_EQ(r.classes[1], (StateSet{1} << 0) | (StateSet{1} << 2));
  EXPECT_EQ(r.reduced.state_name(0), "m_a_b");
  EXPECT_EQ(r.reduced.state_name(1), "m_a_c");
  const ReductionResult ref = reference_reduce(t);
  EXPECT_EQ(ref.classes, r.classes);
}

// The closed-cover hot-path fixes (first_unmet evaluated once per node,
// bitset membership) and the incremental obligation frontier must not
// change the search tree.  Both engines report node counts; pin them
// against each other and against literal values so a future change that
// silently alters the traversal fails loudly.
TEST(Minimize, CoverSearchNodeCountsPinned) {
  const auto& bench = bench_suite::by_name("train4");
  const FlowTable train4 = bench_suite::load(bench);
  const ReductionResult r = reduce(train4);
  const ReductionResult ref = reference_reduce(train4);
  EXPECT_EQ(r.cover_nodes, ref.cover_nodes);
  EXPECT_TRUE(r.cover_exact);
  EXPECT_TRUE(ref.cover_exact);

  GeneratorOptions gen;
  gen.num_states = 8;
  gen.num_inputs = 3;
  gen.num_outputs = 1;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen.seed = seed;
    const FlowTable t = bench_suite::generate(gen);
    EXPECT_EQ(reduce(t).cover_nodes, reference_reduce(t).cover_nodes)
        << "seed " << seed;
  }
}

// A specified entry whose output vector is neither empty (all-DC) nor
// exactly num_outputs() wide used to crash merged_output_bit with an
// out-of-range read; reduce() now rejects it up front.
TEST(Minimize, MalformedOutputWidthIsRejected) {
  FlowTableBuilder builder(1, 2);
  builder.on("a", "0", "a", "00");
  builder.on("a", "1", "b", "11");
  builder.on("b", "1", "b", "00");
  builder.on("b", "0", "a", "--");
  FlowTable t = builder.build();
  t.entry(t.state_index("a"), 0).outputs.resize(1);
  EXPECT_THROW((void)reduce(t), std::invalid_argument);
  EXPECT_THROW((void)reference_reduce(t), std::invalid_argument);
  // An empty vector means all-don't-care and stays legal.
  t.entry(t.state_index("a"), 0).outputs.clear();
  EXPECT_NO_THROW((void)reduce(t));
}

TEST(Minimize, Train4CollapsesHard) {
  const auto& bench = bench_suite::by_name("train4");
  const FlowTable t = bench_suite::load(bench);
  const ReductionResult r = reduce(t);
  EXPECT_LT(r.reduced.num_states(), 4);
  EXPECT_TRUE(is_closed_cover(t, r.classes));
  EXPECT_TRUE(r.reduced.is_normal_mode());
}

TEST(Minimize, Table1SuiteStaysNormalMode) {
  for (const auto& bench : bench_suite::table1_suite()) {
    const FlowTable t = bench_suite::load(bench);
    const ReductionResult r = reduce(t);
    EXPECT_TRUE(is_closed_cover(t, r.classes)) << bench.name;
    EXPECT_TRUE(r.reduced.is_normal_mode()) << bench.name;
    EXPECT_TRUE(r.reduced.every_state_has_stable()) << bench.name;
    EXPECT_LE(r.reduced.num_states(), t.num_states()) << bench.name;
  }
}

// Behavioural soundness: the reduced machine reproduces every specified
// output of the original along random admissible column walks.
class MinimizeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinimizeEquivalence, RandomTablesTraceEquivalent) {
  GeneratorOptions gen;
  gen.seed = GetParam();
  gen.num_states = 6;
  gen.num_inputs = 2;
  gen.num_outputs = 1;
  const FlowTable t = bench_suite::generate(gen);
  const ReductionResult r = reduce(t);
  ASSERT_TRUE(is_closed_cover(t, r.classes));

  std::mt19937_64 rng(GetParam() * 977);
  for (int trial = 0; trial < 20; ++trial) {
    const int start = static_cast<int>(rng() % t.num_states());
    const auto stable = t.stable_columns(start);
    if (stable.empty()) continue;
    int cur = start;
    int cur_reduced = r.state_to_class[static_cast<std::size_t>(start)];
    int column = stable.front();
    for (int step = 0; step < 15; ++step) {
      std::vector<int> options;
      for (int c = 0; c < t.num_columns(); ++c) {
        if (c != column && t.entry(cur, c).specified()) options.push_back(c);
      }
      if (options.empty()) break;
      column = options[rng() % options.size()];
      cur = t.entry(cur, column).next;
      const auto& reduced_entry = r.reduced.entry(cur_reduced, column);
      ASSERT_TRUE(reduced_entry.specified())
          << "reduced machine lost a specified transition";
      cur_reduced = r.reduced.stable_successor(cur_reduced, column).value();
      EXPECT_TRUE(r.classes[static_cast<std::size_t>(cur_reduced)] &
                  (StateSet{1} << cur));
      const auto& orig_out = t.entry(cur, column).outputs;
      const auto& red_out = r.reduced.entry(cur_reduced, column).outputs;
      for (std::size_t k = 0; k < orig_out.size(); ++k) {
        if (orig_out[k] == Trit::kDC) continue;
        EXPECT_EQ(orig_out[k], red_out[k]) << "output bit " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

}  // namespace
}  // namespace seance::minimize
