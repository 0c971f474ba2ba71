// Cross-engine properties of the shared search core (the contracts
// src/search/search.hpp promises):
//
//  1. Bound soundness: every Lower/Upper/Exact entry a cover search
//     leaves in the transposition table brackets the true optimal
//     completion cost of the subproblem it keys — checked against an
//     exhaustive subset-DP oracle on instances small enough to solve
//     completely.
//  2. Memo independence: a warm table may change node counts but never
//     the returned solution of a search that completes within budget —
//     checked differentially (memo-off vs cold vs warm) for all three
//     engines: covering, closed-cover minimization, USTT assignment.
//  3. Budget overrun: with the unified NodeBudget accounting, a
//     truncated search must report exact=false in every engine (the
//     historical PartitionSearch guard made the flag unfalsifiable).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "assign/ustt.hpp"
#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "flowtable/kiss.hpp"
#include "logic/cover_engine.hpp"
#include "minimize/reduce.hpp"
#include "search/search.hpp"

namespace seance {
namespace {

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();

// Column i covers rows {i, i+1 mod n}: no unit rows, no dominance, the
// branch and bound has to work.  Minimum cover is ceil(n/2).
logic::CoverTable cyclic_ring(std::size_t n) {
  logic::CoverTable t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.set(i, i);
    t.set((i + 1) % n, i);
  }
  return t;
}

// Deterministic random incidence table with every row coverable.
logic::CoverTable random_table(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  logic::CoverTable t(rows, cols);
  std::uint64_t state = seed;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (std::size_t c = 0; c < cols; ++c) {
    for (int k = 0; k < 3; ++k) t.set(next() % rows, c);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    bool covered = false;
    for (std::size_t c = 0; c < cols && !covered; ++c) {
      covered = t.covers(c, r);
    }
    if (!covered) t.set(r, r % cols);
  }
  return t;
}

// True minimum cover size of every row subset, by DP over the subset
// lattice.  Requires num_rows small enough to enumerate (<= ~14).
std::vector<std::size_t> subset_optima(const logic::CoverTable& t) {
  const std::size_t n = t.num_rows();
  std::vector<std::uint64_t> col(t.num_cols());
  for (std::size_t c = 0; c < t.num_cols(); ++c) col[c] = t.column(c)[0];
  std::vector<std::size_t> opt(std::size_t{1} << n, kInf);
  opt[0] = 0;
  for (std::uint64_t s = 1; s < (std::uint64_t{1} << n); ++s) {
    const int r = std::countr_zero(s);  // branch on the lowest uncovered row
    for (std::size_t c = 0; c < col.size(); ++c) {
      if (((col[c] >> r) & 1u) == 0) continue;
      const std::size_t sub = opt[s & ~col[c]];
      if (sub != kInf && sub + 1 < opt[s]) opt[s] = sub + 1;
    }
  }
  return opt;
}

// Checks every entry the search left in `tt` against the DP oracle:
// Lower values must not exceed the true optimum, Upper values must not
// undercut it (Exact carries both and is therefore pinned to equality).
void audit_bounds(const logic::CoverTable& t,
                  const search::TranspositionTable& tt,
                  const std::vector<std::size_t>& opt) {
  ASSERT_EQ(t.words(), 1u);
  const std::uint64_t root = logic::cover_root_signature(t);
  std::unordered_map<std::uint64_t, std::size_t> optimum_of;
  for (std::uint64_t s = 1; s < (std::uint64_t{1} << t.num_rows()); ++s) {
    optimum_of[logic::cover_node_signature(root, &s, 1)] = opt[s];
  }
  std::size_t audited = 0;
  for (const auto& [key, bound, value] : tt.dump()) {
    const auto it = optimum_of.find(key);
    ASSERT_NE(it, optimum_of.end())
        << "table entry keys no reachable subproblem: " << key;
    ASSERT_NE(it->second, kInf);
    if (search::has_lower(bound)) {
      EXPECT_LE(value, it->second) << key;
    }
    if (search::has_upper(bound)) {
      EXPECT_GE(value, it->second) << key;
    }
    ++audited;
  }
  EXPECT_EQ(audited, tt.size());
}

TEST(SearchProperty, CyclicRingBoundsBracketTheTrueOptimum) {
  for (std::size_t n : {6u, 8u, 9u, 10u, 11u, 12u}) {
    SCOPED_TRACE(n);
    const logic::CoverTable t = cyclic_ring(n);
    search::TranspositionTable tt(1 << 20);
    const logic::MinCoverResult r = logic::solve_min_cover(t, 1'000'000, &tt);
    ASSERT_TRUE(r.found);
    ASSERT_TRUE(r.exact);
    EXPECT_EQ(r.columns.size(), (n + 1) / 2);
    EXPECT_EQ(r.lower_bound, (n + 1) / 2);
    audit_bounds(t, tt, subset_optima(t));
  }
}

TEST(SearchProperty, RandomTableBoundsBracketTheTrueOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const logic::CoverTable t = random_table(11, 14, seed);
    search::TranspositionTable tt(1 << 20);
    const logic::MinCoverResult r = logic::solve_min_cover(t, 1'000'000, &tt);
    ASSERT_TRUE(r.found);
    ASSERT_TRUE(r.exact);
    const std::vector<std::size_t> opt = subset_optima(t);
    EXPECT_EQ(r.columns.size(), opt[(std::uint64_t{1} << 11) - 1]);
    audit_bounds(t, tt, opt);
  }
}

TEST(SearchProperty, WarmTableNeverChangesACompletedCover) {
  // Rings store deep subproblem structure, so the second solve actually
  // hits the memo; the result must still be byte-identical to memo-off.
  for (std::size_t n : {8u, 10u, 12u}) {
    SCOPED_TRACE(n);
    const logic::CoverTable t = cyclic_ring(n);
    const logic::MinCoverResult off = logic::solve_min_cover(t, 1'000'000);
    search::TranspositionTable tt(1 << 20);
    const logic::MinCoverResult cold =
        logic::solve_min_cover(t, 1'000'000, &tt);
    const std::uint64_t cold_hits = tt.stats().hits;
    const logic::MinCoverResult warm =
        logic::solve_min_cover(t, 1'000'000, &tt);
    ASSERT_TRUE(off.exact);
    ASSERT_TRUE(cold.exact);
    ASSERT_TRUE(warm.exact);
    EXPECT_EQ(cold.columns, off.columns);
    EXPECT_EQ(warm.columns, off.columns);
    EXPECT_EQ(cold.lower_bound, off.lower_bound);
    EXPECT_EQ(warm.lower_bound, off.lower_bound);
    EXPECT_GT(tt.stats().hits, cold_hits);  // the warm run used the memo
    EXPECT_LE(warm.nodes, cold.nodes);      // and it only ever prunes
  }
}

TEST(SearchProperty, MinimizeIsMemoizationIndependent) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    bench_suite::GeneratorOptions g;
    g.num_states = 8;
    g.num_inputs = 3;
    g.seed = seed;
    const flowtable::FlowTable table = bench_suite::generate(g);
    const minimize::ReductionResult off = minimize::reduce(table);
    search::TranspositionTable tt(1 << 20);
    const minimize::ReductionResult cold = minimize::reduce(table, {}, &tt);
    const minimize::ReductionResult warm = minimize::reduce(table, {}, &tt);
    ASSERT_TRUE(off.cover_exact);
    for (const minimize::ReductionResult* r : {&cold, &warm}) {
      EXPECT_TRUE(r->cover_exact);
      EXPECT_EQ(r->classes, off.classes);
      EXPECT_EQ(r->state_to_class, off.state_to_class);
      EXPECT_EQ(flowtable::to_kiss2(r->reduced),
                flowtable::to_kiss2(off.reduced));
    }
  }
}

TEST(SearchProperty, AssignmentIsMemoizationIndependent) {
  for (const bench_suite::NamedBenchmark& bench :
       bench_suite::table1_suite()) {
    SCOPED_TRACE(bench.name);
    const flowtable::FlowTable table = bench_suite::load(bench);
    const assign::Assignment off = assign::assign_ustt(table);
    search::TranspositionTable tt(1 << 20);
    const assign::Assignment cold = assign::assign_ustt(table, {}, &tt);
    const assign::Assignment warm = assign::assign_ustt(table, {}, &tt);
    for (const assign::Assignment* a : {&cold, &warm}) {
      EXPECT_EQ(a->codes, off.codes);
      EXPECT_EQ(a->num_vars, off.num_vars);
      EXPECT_EQ(a->exact, off.exact);
      EXPECT_EQ(a->completion_rounds, off.completion_rounds);
    }
  }
}

TEST(SearchProperty, CoverOverrunReportsInexactWithOrWithoutTheMemo) {
  const logic::CoverTable t = cyclic_ring(16);
  const logic::MinCoverResult cold = logic::solve_min_cover(t, 1);
  EXPECT_FALSE(cold.exact);
  EXPECT_GT(cold.lower_bound, 0u);
  EXPECT_LE(cold.lower_bound, 8u);  // never above the true optimum
  search::TranspositionTable tt(1 << 20);
  const logic::MinCoverResult warm = logic::solve_min_cover(t, 1, &tt);
  EXPECT_FALSE(warm.exact);
  EXPECT_EQ(warm.lower_bound, cold.lower_bound);  // TT-independent bound
}

// Seeded random chart: each cell is set with probability permille/1000,
// and a row left empty gets column (row % cols).
logic::CoverTable sparse_random_table(std::size_t rows, std::size_t cols,
                                      std::uint64_t permille,
                                      std::uint64_t seed) {
  logic::CoverTable t(rows, cols);
  std::uint64_t state = seed;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    bool covered = false;
    for (std::size_t c = 0; c < cols; ++c) {
      if (next() % 1000 < permille) {
        t.set(r, c);
        covered = true;
      }
    }
    if (!covered) t.set(r, r % cols);
  }
  return t;
}

struct TruncatedRun {
  std::vector<std::size_t> columns;
  std::size_t nodes;
  std::size_t lower_bound;
  search::TtStats stats;
};

// The memo-on traversal of a budget-truncated search, pinned: keys,
// probe order, stores and evictions decide which incumbent a truncated
// search returns, so any change to how the engine walks or memoizes
// shows up here as a changed count (the golden corpus's deep jobs are
// truncated the same way).  Hits and misses count only the nodes that
// pass the gain bound, which is checked before the probe.  The 64 KiB
// table evicts; the 16 MiB one is the default size.
TEST(SearchProperty, MemoOnTruncatedTraversalIsPinned) {
  constexpr std::size_t kBudget = 20000;
  const struct {
    std::uint64_t seed;
    std::size_t bytes;
    TruncatedRun want;
  } cases[] = {
      {1, 64 << 10,
       {{2, 16, 21, 22, 24, 25, 26, 27, 28, 29, 41, 48, 49, 51, 54, 57, 58,
         59, 61, 64, 65, 67, 70, 73, 75, 82, 87},
        20001, 13, {6865, 4367, 5349, 612}}},
      {1, 16 << 20,
       {{2, 16, 21, 22, 24, 25, 26, 27, 28, 29, 41, 48, 49, 51, 54, 57, 58,
         59, 61, 64, 65, 67, 70, 73, 75, 82, 87},
        20001, 13, {6881, 4318, 5348, 0}}},
      {2, 64 << 10,
       {{3, 4, 5, 6, 7, 11, 14, 20, 23, 24, 33, 35, 36, 41, 46, 53, 54, 59,
         61, 66, 69, 71, 72, 73, 74, 75, 79, 82, 89},
        20001, 16, {4115, 5914, 6025, 1880}}},
      {2, 16 << 20,
       {{3, 4, 5, 6, 7, 11, 14, 20, 23, 24, 33, 35, 36, 41, 46, 53, 54, 59,
         61, 66, 69, 71, 72, 73, 74, 75, 79, 82, 89},
        20001, 16, {4108, 5915, 6023, 0}}},
      {3, 64 << 10,
       {{2, 3, 5, 12, 14, 15, 19, 23, 29, 32, 35, 38, 42, 44, 46, 47, 49,
         51, 53, 60, 61, 62, 69, 74, 77, 79, 81, 87},
        20001, 18, {3192, 6298, 7228, 2243}}},
      {3, 16 << 20,
       {{2, 3, 5, 12, 14, 15, 19, 23, 29, 32, 35, 38, 42, 44, 46, 47, 49,
         51, 53, 60, 61, 62, 69, 74, 77, 79, 81, 87},
        20001, 18, {3230, 6295, 7233, 0}}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "seed " << c.seed << ", "
                                    << c.bytes << " bytes");
    const logic::CoverTable t = sparse_random_table(120, 90, 50, c.seed);
    search::TranspositionTable tt(c.bytes);
    const logic::MinCoverResult r = logic::solve_min_cover(t, kBudget, &tt);
    ASSERT_TRUE(r.found);
    ASSERT_FALSE(r.exact);  // the budget really truncates
    EXPECT_EQ(r.columns, c.want.columns);
    EXPECT_EQ(r.nodes, c.want.nodes);
    EXPECT_EQ(r.lower_bound, c.want.lower_bound);
    EXPECT_EQ(tt.stats().hits, c.want.stats.hits);
    EXPECT_EQ(tt.stats().misses, c.want.stats.misses);
    EXPECT_EQ(tt.stats().stores, c.want.stats.stores);
    EXPECT_EQ(tt.stats().evictions, c.want.stats.evictions);
    if (c.bytes < (1u << 20)) {
      EXPECT_GT(tt.stats().evictions, 0u);
    }
  }
}

TEST(SearchProperty, MinimizeOverrunReportsInexact) {
  // Any table whose closed-cover search expands at least one node must
  // come back inexact (with a still-valid greedy cover) under a zero
  // node budget.
  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    bench_suite::GeneratorOptions g;
    g.num_states = 8;
    g.num_inputs = 3;
    g.seed = seed;
    const flowtable::FlowTable table = bench_suite::generate(g);
    if (minimize::reduce(table).cover_nodes == 0) continue;
    SCOPED_TRACE(seed);
    exercised = true;
    minimize::ReduceOptions options;
    options.node_budget = 0;
    const minimize::ReductionResult r = minimize::reduce(table, options);
    EXPECT_FALSE(r.cover_exact);
    std::string why;
    EXPECT_TRUE(minimize::is_closed_cover(table, r.classes, &why)) << why;
  }
  EXPECT_TRUE(exercised);
}

TEST(SearchProperty, AssignmentOverrunReportsInexact) {
  // The PartitionSearch regression: the pre-unification guard charged
  // nodes in a way that could never trip `exact` on the first
  // expansion, so a truncated partition search still claimed a proof.
  // With the shared NodeBudget a zero budget must surface as
  // exact=false on every benchmark whose dichotomy cover searches at
  // all — while the greedy fallback still verifies race-free.
  bool saw_inexact = false;
  for (const bench_suite::NamedBenchmark& bench :
       bench_suite::table1_suite()) {
    SCOPED_TRACE(bench.name);
    const flowtable::FlowTable table = bench_suite::load(bench);
    assign::AssignOptions options;
    options.node_budget = 0;
    const assign::Assignment a = assign::assign_ustt(table, options);
    saw_inexact = saw_inexact || !a.exact;
    std::string why;
    EXPECT_TRUE(
        assign::verify_ustt(table, a.codes, a.num_vars, &why))
        << why;
  }
  EXPECT_TRUE(saw_inexact);
}

std::vector<std::tuple<std::uint64_t, search::Bound, std::uint32_t>>
sorted_dump(const search::TranspositionTable& tt) {
  auto entries = tt.dump();
  std::sort(entries.begin(), entries.end());
  return entries;
}

void expect_same_machine(const core::FantomMachine& a,
                         const core::FantomMachine& b) {
  EXPECT_EQ(a.layout.num_state_vars, b.layout.num_state_vars);
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_EQ(a.gate_count(), b.gate_count());
  EXPECT_EQ(a.cover_bounds.cubes, b.cover_bounds.cubes);
  EXPECT_EQ(a.cover_bounds.lower_bound, b.cover_bounds.lower_bound);
  EXPECT_EQ(a.cover_bounds.proven, b.cover_bounds.proven);
}

flowtable::FlowTable load_by_name(const std::string& name) {
  for (const auto* suite : {&bench_suite::table1_suite(),
                            &bench_suite::extra_suite()}) {
    for (const bench_suite::NamedBenchmark& bench : *suite) {
      if (bench.name == name) return bench_suite::load(bench);
    }
  }
  throw std::runtime_error("no suite benchmark named " + name);
}

TEST(SearchProperty, SynthesisIsPureNoMatterWhoseTableIsHandedIn) {
  // The regression this pins: train11's partition search is budget-
  // truncated, and a table still warm from earlier jobs used to steer
  // it to a different (better!) incumbent than a cold run — so batch
  // rows depended on which jobs a worker happened to run first.
  // core::synthesize now clears a supplied table on entry, making the
  // result a pure function of (input, options).  Dirty a shared table
  // with every other suite benchmark, then demand train11 comes out
  // identical to the no-table run.
  core::SynthesisOptions options;  // defaults: tt on
  const core::FantomMachine fresh = core::synthesize(
      load_by_name("train11"), options, nullptr);
  search::TranspositionTable solo(options.tt_mb << 20);
  const core::FantomMachine fresh_shared = core::synthesize(
      load_by_name("train11"), options, &solo);
  expect_same_machine(fresh, fresh_shared);
  ASSERT_GT(solo.size(), 0u);  // train11 really stores entries

  search::TranspositionTable shared(options.tt_mb << 20);
  for (const auto* suite : {&bench_suite::table1_suite(),
                            &bench_suite::extra_suite()}) {
    for (const bench_suite::NamedBenchmark& bench : *suite) {
      if (bench.name == "train11") continue;
      (void)core::synthesize(bench_suite::load(bench), options, &shared);
    }
  }
  const core::FantomMachine after_dirty = core::synthesize(
      load_by_name("train11"), options, &shared);
  expect_same_machine(fresh, after_dirty);
  // The mechanism, observed directly: after the dirty-table run the
  // shared table holds exactly the entries a solo train11 run leaves —
  // nothing stored by the jobs that warmed it survived to steer a
  // later truncated search.
  EXPECT_EQ(sorted_dump(shared), sorted_dump(solo));

  // A wrongly-sized table may not be used either: capacity decides
  // evictions, evictions decide hits, hits steer truncated searches —
  // synthesize must substitute a correctly-sized local table instead.
  search::TranspositionTable tiny(1 << 12);
  ASSERT_NE(tiny.capacity(),
            search::TranspositionTable::slot_count_for(options.tt_mb << 20));
  const core::FantomMachine after_mismatch = core::synthesize(
      load_by_name("train11"), options, &tiny);
  expect_same_machine(fresh, after_mismatch);
  EXPECT_EQ(tiny.size(), 0u);  // the mismatched table was never touched
}

}  // namespace
}  // namespace seance
