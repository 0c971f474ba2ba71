#include "assign/ustt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "assign/ustt_reference.hpp"
#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "flowtable/table.hpp"
#include "logic/qm.hpp"
#include "minimize/reduce.hpp"
#include "search/search.hpp"

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

// Fewest complete partitions of `num_states` states (any subset as the
// one side, mirror images included) separating every dichotomy: a
// breadth-first search over the sets of dichotomies covered so far.
std::size_t brute_force_min_partitions(const std::vector<Dichotomy>& dichotomies,
                                       int num_states) {
  const StateSet all = (StateSet{1} << num_states) - 1;
  std::vector<std::uint32_t> separated;  // per subset: dichotomies it separates
  for (StateSet ones = 0; ones <= all; ++ones) {
    std::uint32_t mask = 0;
    for (std::size_t r = 0; r < dichotomies.size(); ++r) {
      if (separates(Partition{all & ~ones, ones}, dichotomies[r])) mask |= 1u << r;
    }
    separated.push_back(mask);
  }
  const std::uint32_t full = (1u << dichotomies.size()) - 1;
  constexpr std::size_t kUnseen = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> depth(std::size_t{full} + 1, kUnseen);
  std::vector<std::uint32_t> frontier = {0};
  depth[0] = 0;
  for (std::size_t k = 0; !frontier.empty(); ++k) {
    std::vector<std::uint32_t> next;
    for (const std::uint32_t covered : frontier) {
      if (covered == full) return k;
      for (const std::uint32_t mask : separated) {
        const std::uint32_t reached = covered | mask;
        if (depth[reached] == kUnseen) {
          depth[reached] = k + 1;
          next.push_back(reached);
        }
      }
    }
    frontier = std::move(next);
  }
  return kUnseen;
}

TEST(TraceyCertificate, OptimumMatchesBruteForceOverCompletePartitions) {
  std::uint64_t rng = 0x2545f4914f6cdd1dull;
  const auto draw = [&rng](std::uint64_t bound) {
    rng = search::hash_u64(rng);
    return rng % bound;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 3 + static_cast<int>(draw(4));  // 3..6 states
    std::vector<Dichotomy> dichotomies;
    const std::size_t rows = 1 + draw(12);
    while (dichotomies.size() < rows) {
      // Each state lands in block a, block b, or neither.
      Dichotomy d;
      for (int s = 0; s < n; ++s) {
        const std::uint64_t side = draw(3);
        if (side == 1) d.a |= StateSet{1} << s;
        if (side == 2) d.b |= StateSet{1} << s;
      }
      if (d.valid()) dichotomies.push_back(d);
    }
    SCOPED_TRACE(trial);
    const std::optional<detail::Certificate> cert =
        detail::tracey_certificate(dichotomies);
    ASSERT_TRUE(cert.has_value());
    const std::size_t optimum = brute_force_min_partitions(dichotomies, n);
    EXPECT_EQ(cert->bound, optimum);
    ASSERT_EQ(cert->partitions.size(), optimum);
    for (const Dichotomy& d : dichotomies) {
      bool separated = false;
      for (const Partition& p : cert->partitions) separated = separated || separates(p, d);
      EXPECT_TRUE(separated);
    }
  }
}

// A golden hardest-20x6 row after core::synthesize's state reduction.
FlowTable reduced_hardest(std::size_t index) {
  driver::BatchRunner corpus;
  corpus.add_hardest_generated(static_cast<int>(index) + 1, 1);
  FlowTable table = corpus.jobs()[index].table;
  if (!table.is_normal_mode()) table.normalize_to_normal_mode();
  return minimize::reduce(table, core::SynthesisOptions::reduce).reduced;
}

TEST(TraceyCertificate, ProvesTheGreedyCodesOfHardest0002) {
  // The partition search spends its whole budget here and never improves
  // on greedy; the cover proves greedy's six classes optimal, so the
  // codes are the uncertified search's, now with exact = true.
  const FlowTable t = reduced_hardest(2);
  search::TranspositionTable tt(core::SynthesisOptions::tt_mb << 20);
  for (search::TranspositionTable* memo : {&tt, static_cast<search::TranspositionTable*>(nullptr)}) {
    const Assignment a = assign_ustt(t, core::SynthesisOptions::assign, memo);
    EXPECT_TRUE(a.exact);
    EXPECT_EQ(a.num_vars, 6);
    EXPECT_EQ(a.codes, (std::vector<std::uint32_t>{39, 11, 41, 50, 4, 46, 29}));
  }
}

TEST(TraceyCertificate, Hardest0003NeedsSixVariables) {
  // Greedy gives eight classes and the cover proves six.  Searching only
  // for six or fewer, with forward checking and the memo synthesis uses,
  // the branch and bound reaches its first six-class leaf in under
  // 100,000 nodes and stops at the bound, so a small budget and a huge
  // one give the same codes.  (An uncapped search spent 500,000 nodes
  // without getting below eight and returned the cover's code instead.
  // Without the memo the capped search needs about 8.3M nodes.)
  const FlowTable t = reduced_hardest(3);
  search::TranspositionTable tt(core::SynthesisOptions::tt_mb << 20);
  std::vector<Assignment> results;
  for (const std::size_t budget : {std::size_t{150'000}, std::size_t{20'000'000}}) {
    AssignOptions options;
    options.node_budget = budget;
    tt.clear();
    results.push_back(assign_ustt(t, options, &tt));
    const Assignment& a = results.back();
    EXPECT_TRUE(a.exact) << budget;
    EXPECT_EQ(a.num_vars, 6) << budget;
    std::string why;
    EXPECT_TRUE(verify_ustt(t, a.codes, a.num_vars, &why)) << why;
  }
  EXPECT_EQ(results[0].codes, results[1].codes);

  // Without the memo the default budget runs out above six classes, and
  // the cover's proven six partitions replace the incumbent.
  const Assignment cold = assign_ustt(t, core::SynthesisOptions::assign);
  EXPECT_TRUE(cold.exact);
  EXPECT_EQ(cold.num_vars, 6);
  std::string why;
  EXPECT_TRUE(verify_ustt(t, cold.codes, cold.num_vars, &why)) << why;

  tt.clear();
  const detail::PartitionResult search =
      detail::solve_partitions(transition_dichotomies(t), 150'000, &tt);
  EXPECT_FALSE(search.truncated);
  EXPECT_GT(search.nodes, 0u);
  EXPECT_LT(search.nodes, 100'000u);
  EXPECT_EQ(search.classes.size(), 6u);
}

TEST(TraceyCertificate, Hardest0016GetsSixVariablesFromTheGreedyCeiling) {
  // Unproven either way.  Before the cover search started at the greedy
  // cover, this assignment kept 7 variables; with the ceiling the
  // certificate's cover, no larger than greedy's, gives 6.
  const FlowTable t = reduced_hardest(16);
  const Assignment a = assign_ustt(t, core::SynthesisOptions::assign);
  EXPECT_FALSE(a.exact);
  EXPECT_EQ(a.num_vars, 6);
  std::string why;
  EXPECT_TRUE(verify_ustt(t, a.codes, a.num_vars, &why)) << why;
}

TEST(TraceyCertificate, ChartsPastTheCellCeilingSkipTheCertificate) {
  GeneratorOptions gen;
  gen.num_states = 13;
  gen.num_inputs = 3;
  gen.num_outputs = 1;
  gen.seed = 1;
  const FlowTable t = bench_suite::generate(gen);
  const std::vector<Dichotomy> dichotomies = transition_dichotomies(t);
  StateSet mentioned = 0;
  for (const Dichotomy& d : dichotomies) mentioned |= d.a | d.b;
  ASSERT_EQ(std::bit_width(mentioned), 13);
  const std::size_t columns = (std::size_t{1} << 12) - 1;
  ASSERT_GT(dichotomies.size() * columns, logic::kExactCellLimit);
  EXPECT_FALSE(detail::tracey_certificate(dichotomies).has_value());

  // Without a certificate the search runs as the seed's does: its
  // budget-truncated incumbent, bit for bit.
  const Assignment fast = assign_ustt(t);
  const Assignment ref = reference_assign_ustt(t);
  ASSERT_EQ(ref.completion_rounds, 0);
  EXPECT_FALSE(fast.exact);
  EXPECT_EQ(fast.exact, ref.exact);
  EXPECT_EQ(fast.num_vars, ref.num_vars);
  EXPECT_EQ(fast.codes, ref.codes);
}

TEST(TraceyCertificate, TheCellCeilingBoundsTheChartNotTheStateCount) {
  // Twenty states give 2^19 - 1 columns: one dichotomy fits the ceiling,
  // a second does not.
  const StateSet top = StateSet{1} << 19;
  std::vector<Dichotomy> dichotomies{Dichotomy{0b1, top}};
  ASSERT_LE(dichotomies.size() * ((std::size_t{1} << 19) - 1),
            logic::kExactCellLimit);
  const std::optional<detail::Certificate> cert =
      detail::tracey_certificate(dichotomies);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->bound, 1u);
  ASSERT_EQ(cert->partitions.size(), 1u);
  EXPECT_TRUE(separates(cert->partitions[0], dichotomies[0]));

  dichotomies.push_back(Dichotomy{0b10, 0b100});
  EXPECT_FALSE(detail::tracey_certificate(dichotomies).has_value());
}

TEST(TraceyCertificate, ExpiredDeadlineStopsTheCoverSearch) {
  // Hardest-20x6-0003's cover needs about 900k nodes to prove, so its
  // node budget polls the deadline long before the search ends.
  const FlowTable t = reduced_hardest(3);
  const std::vector<Dichotomy> dichotomies = transition_dichotomies(t);
  ASSERT_TRUE(detail::tracey_certificate(dichotomies).has_value());
  const search::DeadlineScope spent(0.0);
  EXPECT_THROW((void)detail::tracey_certificate(dichotomies),
               search::DeadlineExceeded);
  // A zero-node partition search never reaches a deadline checkpoint, so
  // the throw here comes from the certificate.
  AssignOptions options;
  options.node_budget = 0;
  EXPECT_THROW((void)assign_ustt(t, options), search::DeadlineExceeded);
}

// Random dichotomies over `num_states` states: each state lands in block
// a, block b or neither.
std::vector<Dichotomy> random_dichotomies(std::uint64_t& rng, int num_states,
                                          std::size_t count) {
  std::vector<Dichotomy> dichotomies;
  while (dichotomies.size() < count) {
    Dichotomy d;
    for (int s = 0; s < num_states; ++s) {
      rng = search::hash_u64(rng);
      const std::uint64_t side = rng % 3;
      if (side == 1) d.a |= StateSet{1} << s;
      if (side == 2) d.b |= StateSet{1} << s;
    }
    if (d.valid()) dichotomies.push_back(d);
  }
  return dichotomies;
}

TEST(FitPlanes, RandomMergeSequencesAgreeWithFits) {
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto draw = [&rng](std::uint64_t bound) {
    rng = search::hash_u64(rng);
    return rng % bound;
  };
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    // Up to 200 dichotomies, so planes span several words and a partial
    // last word.
    const int n = 3 + static_cast<int>(draw(14));
    const std::vector<Dichotomy> dichotomies =
        random_dichotomies(rng, n, 1 + draw(200));
    const detail::FitPlanes planes(dichotomies);
    ASSERT_EQ(planes.words(), (dichotomies.size() + 63) / 64);

    // A few classes, each grown by a random merge sequence.
    const std::size_t num_classes = 1 + draw(4);
    std::vector<Partition> classes;
    std::vector<std::uint64_t> class_planes(num_classes * 2 * planes.words());
    for (std::size_t c = 0; c < num_classes; ++c) {
      std::uint64_t* mine = class_planes.data() + c * 2 * planes.words();
      const std::size_t first = draw(dichotomies.size());
      planes.open(mine, first, 0);
      Partition p{dichotomies[first].a, dichotomies[first].b};
      for (int step = 0; step < 12; ++step) {
        std::vector<std::pair<std::size_t, bool>> fitting;
        for (std::size_t j = 0; j < dichotomies.size(); ++j) {
          for (const bool flip : {false, true}) {
            ASSERT_EQ(planes.fits(mine, j, flip), detail::fits(p, dichotomies[j], flip))
                << "class " << c << " step " << step << " dichotomy " << j;
            if (detail::fits(p, dichotomies[j], flip)) fitting.emplace_back(j, flip);
          }
        }
        // Members always fit, so there is always something to merge.
        const auto [j, flip] = fitting[draw(fitting.size())];
        p.zeros |= flip ? dichotomies[j].b : dichotomies[j].a;
        p.ones |= flip ? dichotomies[j].a : dichotomies[j].b;
        planes.merge(mine, j, flip, 0);
        // A class that a dichotomy joined separates it.
        EXPECT_TRUE(separates(p, dichotomies[j]));
      }
      classes.push_back(p);
    }

    // The forward check's test against every suffix of the list.
    for (std::size_t first = 0; first < dichotomies.size(); ++first) {
      for (std::size_t k = 0; k <= num_classes; ++k) {
        bool nowhere = false;
        for (std::size_t j = first; j < dichotomies.size(); ++j) {
          bool somewhere = false;
          for (std::size_t c = 0; c < k; ++c) {
            somewhere = somewhere || detail::fits(classes[c], dichotomies[j], false) ||
                        detail::fits(classes[c], dichotomies[j], true);
          }
          nowhere = nowhere || !somewhere;
        }
        EXPECT_EQ(planes.some_fits_nowhere(class_planes.data(), k, first), nowhere)
            << "first " << first << " classes " << k;
      }
    }
  }
}

TEST(FitPlanes, ListsPastTheLimitThrowBeforeAllocating) {
  std::uint64_t rng = 7;
  std::vector<Dichotomy> dichotomies =
      random_dichotomies(rng, 8, detail::kMaxSearchDichotomies);
  EXPECT_NO_THROW((void)detail::FitPlanes(dichotomies));
  dichotomies.push_back(dichotomies.front());
  EXPECT_THROW((void)detail::FitPlanes(dichotomies), std::length_error);
}

bool same_partitions(const std::vector<Partition>& x, const std::vector<Partition>& y) {
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const Partition& p, const Partition& q) {
                      return p.zeros == q.zeros && p.ones == q.ones;
                    });
}

TEST(PartitionSearch, MatchesThePlainDepthFirstSearchWhenBothFinish) {
  // The certificate's cap and bound, the fit planes and the forward check
  // only skip subtrees without a leaf below the incumbent, so a search
  // that finishes returns the classes of the seed's plain search.
  std::uint64_t rng = 0x2545f4914f6cdd1dull;
  const auto draw = [&rng](std::uint64_t bound) {
    rng = search::hash_u64(rng);
    return rng % bound;
  };
  search::TranspositionTable tt(core::SynthesisOptions::tt_mb << 20);
  int compared = 0;
  int searched = 0;
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE(trial);
    const int n = 3 + static_cast<int>(draw(6));  // 3..8 states
    // Shaped like transition dichotomies: one or two states a side.
    std::vector<Dichotomy> dichotomies;
    const std::size_t rows = 4 + draw(40);
    const auto block = [&] {
      StateSet states = StateSet{1} << draw(static_cast<std::uint64_t>(n));
      if (draw(2) == 0) states |= StateSet{1} << draw(static_cast<std::uint64_t>(n));
      return states;
    };
    while (dichotomies.size() < rows) {
      const Dichotomy d{block(), block()};
      if (d.valid()) dichotomies.push_back(d);
    }
    bool finished = false;
    const std::vector<Partition> reference =
        reference_partitions(dichotomies, 2'000'000, &finished);
    tt.clear();
    for (search::TranspositionTable* memo :
         {static_cast<search::TranspositionTable*>(nullptr), &tt}) {
      const detail::PartitionResult production =
          detail::solve_partitions(dichotomies, 500'000, memo);
      if (!finished || production.truncated) continue;
      ++compared;
      if (production.nodes > 0) ++searched;
      EXPECT_TRUE(production.exact);
      EXPECT_TRUE(same_partitions(production.classes, reference))
          << production.classes.size() << " vs " << reference.size() << " classes";
    }
  }
  // Most sets are solved by greedy at the certificate's bound; enough
  // still run the branch and bound.
  EXPECT_GE(compared, 1000);
  EXPECT_GE(searched, 200);
}

}  // namespace
}  // namespace seance::assign
