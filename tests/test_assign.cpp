#include "assign/ustt.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "assign/ustt_reference.hpp"
#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "flowtable/table.hpp"

namespace seance::assign {
namespace {

using bench_suite::GeneratorOptions;
using flowtable::FlowTable;
using flowtable::FlowTableBuilder;

// Four states, two columns, transitions arranged so column 0 hosts the
// disjoint pair a->b / c->d (a classic Tracey dichotomy).
FlowTable crossing_table() {
  FlowTableBuilder b(1, 1);
  b.on("a", "1", "a", "0");
  b.on("b", "0", "b", "0");
  b.on("a", "0", "b", "-");
  b.on("c", "1", "c", "1");
  b.on("d", "0", "d", "1");
  b.on("c", "0", "d", "-");
  b.on("b", "1", "a", "-");
  b.on("d", "1", "c", "-");
  return b.build();
}

TEST(Assign, DichotomiesForCrossingTransitions) {
  const FlowTable t = crossing_table();
  const auto dichotomies = transition_dichotomies(t);
  // Column 0: transitions {a,b} and {c,d} must be separated; column 1:
  // {b,a} and {d,c} likewise.  After dedup/dominance one dichotomy remains.
  ASSERT_FALSE(dichotomies.empty());
  bool found = false;
  const StateSet ab = 0b0011;  // a=0, b=1 (builder order)
  const StateSet cd = 0b1100;
  for (const Dichotomy& d : dichotomies) {
    if ((d.a == ab && d.b == cd) || (d.a == cd && d.b == ab)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Assign, SeparatesPredicate) {
  const Partition p{0b0011, 0b1100};
  EXPECT_TRUE(separates(p, Dichotomy{0b0011, 0b1100}));
  EXPECT_TRUE(separates(p, Dichotomy{0b1100, 0b0011}));
  EXPECT_TRUE(separates(p, Dichotomy{0b0001, 0b0100}));  // sub-blocks
  EXPECT_FALSE(separates(p, Dichotomy{0b0101, 0b1010}));
}

TEST(Assign, CrossingTableNeedsTwoVariables) {
  const FlowTable t = crossing_table();
  const Assignment a = assign_ustt(t);
  // One variable separates {a,b}|{c,d}; a second is needed for unicode
  // (four distinct codes).
  EXPECT_GE(a.num_vars, 2);
  std::string why;
  EXPECT_TRUE(verify_ustt(t, a.codes, a.num_vars, &why)) << why;
}

TEST(Assign, CodesAreUnique) {
  const FlowTable t = crossing_table();
  const Assignment a = assign_ustt(t);
  std::set<std::uint32_t> seen(a.codes.begin(), a.codes.end());
  EXPECT_EQ(seen.size(), a.codes.size());
}

TEST(Assign, VerifyRejectsSharedCodes) {
  const FlowTable t = crossing_table();
  const std::vector<std::uint32_t> bad = {0, 0, 1, 2};
  std::string why;
  EXPECT_FALSE(verify_ustt(t, bad, 2, &why));
  EXPECT_NE(why.find("share a code"), std::string::npos);
}

TEST(Assign, VerifyRejectsUnseparatedTransitions) {
  const FlowTable t = crossing_table();
  // Codes where no variable separates {a,b} from {c,d}:
  // a=00, b=11 change both variables; c=01, d=10 likewise -> every
  // variable changes in both transitions, no separation.
  const std::vector<std::uint32_t> bad = {0b00, 0b11, 0b01, 0b10};
  std::string why;
  EXPECT_FALSE(verify_ustt(t, bad, 2, &why));
  EXPECT_NE(why.find("not separated"), std::string::npos);
}

TEST(Assign, SingleStateDegenerates) {
  FlowTableBuilder b(1, 1);
  b.on("only", "0", "only", "0");
  b.on("only", "1", "only", "1");
  const FlowTable t = b.build();
  const Assignment a = assign_ustt(t);
  EXPECT_EQ(a.num_vars, 0);
  EXPECT_TRUE(verify_ustt(t, a.codes, a.num_vars));
}

TEST(Assign, StableParkedStatesSeparatedFromTransitions) {
  // Column 0: transition a->b while c parks stably: {a,b}|{c} dichotomy.
  FlowTableBuilder b(1, 1);
  b.on("a", "1", "a", "0");
  b.on("b", "0", "b", "0");
  b.on("a", "0", "b", "-");
  b.on("c", "0", "c", "1");
  b.on("c", "1", "a", "-");
  b.on("b", "1", "a", "-");
  const FlowTable t = b.build();
  const Assignment a = assign_ustt(t);
  std::string why;
  ASSERT_TRUE(verify_ustt(t, a.codes, a.num_vars, &why)) << why;
  // Explicit check of the {a,b}|{c} separation.
  bool separated = false;
  for (int v = 0; v < a.num_vars; ++v) {
    const auto bit = [&](int s) { return (a.codes[static_cast<std::size_t>(s)] >> v) & 1u; };
    if (bit(0) == bit(1) && bit(0) != bit(2)) separated = true;
  }
  EXPECT_TRUE(separated);
}

// A table with NO transition dichotomies: every column's transitions
// interact (or are lone parked singletons), so the initial solve emits
// zero partitions and all four states collide at code 0 — six
// simultaneous colliding pairs.  The seed completion added ONE pair per
// round and re-solved, taking a round per collision it happened to expose
// next; the production path batches every colliding pair of a round and
// converges in one.
TEST(Assign, UniquenessCompletionBatchesCollisions) {
  FlowTableBuilder b(2, 1);
  b.on("a", "00", "a", "0");
  b.on("b", "01", "b", "0");
  b.on("c", "00", "c", "0");
  b.on("d", "10", "d", "0");
  b.on("a", "01", "b", "-");
  b.on("c", "10", "d", "-");
  const FlowTable t = b.build();
  ASSERT_TRUE(transition_dichotomies(t).empty());

  const Assignment fast = assign_ustt(t);
  const Assignment ref = reference_assign_ustt(t);
  std::string why;
  EXPECT_TRUE(verify_ustt(t, fast.codes, fast.num_vars, &why)) << why;
  EXPECT_TRUE(verify_ustt(t, ref.codes, ref.num_vars, &why)) << why;
  EXPECT_EQ(fast.completion_rounds, 1);
  EXPECT_GE(ref.completion_rounds, 3);
  EXPECT_LT(fast.completion_rounds, ref.completion_rounds);
}

TEST(Assign, Table1SuiteAssignsRaceFree) {
  for (const auto& bench : bench_suite::table1_suite()) {
    const FlowTable t = bench_suite::load(bench);
    const Assignment a = assign_ustt(t);
    std::string why;
    EXPECT_TRUE(verify_ustt(t, a.codes, a.num_vars, &why))
        << bench.name << ": " << why;
    EXPECT_LE(a.num_vars, t.num_states());  // sanity bound
  }
}

struct AssignCase {
  int states;
  int inputs;
  std::uint64_t seed;
};

class AssignRandom : public ::testing::TestWithParam<AssignCase> {};

TEST_P(AssignRandom, RandomTablesVerify) {
  const auto& p = GetParam();
  GeneratorOptions gen;
  gen.num_states = p.states;
  gen.num_inputs = p.inputs;
  gen.num_outputs = 1;
  gen.seed = p.seed;
  const FlowTable t = bench_suite::generate(gen);
  const Assignment a = assign_ustt(t);
  std::string why;
  EXPECT_TRUE(verify_ustt(t, a.codes, a.num_vars, &why)) << why;
  // Enough variables for unicode at minimum.
  EXPECT_GE(1 << a.num_vars, t.num_states());
}

std::vector<AssignCase> assign_cases() {
  std::vector<AssignCase> cases;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cases.push_back({4, 2, seed});
    cases.push_back({6, 3, seed * 3});
    cases.push_back({8, 3, seed * 7});
    cases.push_back({10, 4, seed * 13});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomTables, AssignRandom, ::testing::ValuesIn(assign_cases()));

}  // namespace
}  // namespace seance::assign
