// Cross-engine properties of the shared search core (the contracts
// src/search/search.hpp promises):
//
//  1. Bound soundness: the lower bound and the cover a cover search
//     returns bracket the true minimum cover size, at every node budget
//     and on every row subset of instances small enough to solve
//     exhaustively (subset-DP oracle).  A budget-truncated search
//     returns a valid cover whose size never rises with the budget, and
//     its traversal is pinned, since golden rows depend on it.
//  2. Memo independence: a warm table may change node counts but never
//     the returned solution of a search that completes within budget —
//     checked differentially (memo-off vs cold vs warm) for the two
//     memoized engines, closed-cover minimization and USTT assignment.
//     The cover engine keeps no memo, so a job whose memoized searches
//     complete synthesizes the same machine with the memo on or off.
//  3. Budget overrun: with the unified NodeBudget accounting, a
//     truncated search must report exact=false in every engine (the
//     historical PartitionSearch guard made the flag unfalsifiable).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "assign/ustt.hpp"
#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "flowtable/kiss.hpp"
#include "logic/cover_engine.hpp"
#include "minimize/reduce.hpp"
#include "search/search.hpp"

namespace seance {
namespace {

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

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();

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

// The rows of `t` in `subset` (bit r = row r), columns unchanged.
logic::CoverTable restrict_rows(const logic::CoverTable& t,
                                std::uint64_t subset) {
  logic::CoverTable sub(static_cast<std::size_t>(std::popcount(subset)),
                        t.num_cols());
  std::size_t row = 0;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    if (((subset >> r) & 1u) == 0) continue;
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      if (t.covers(c, r)) sub.set(row, c);
    }
    ++row;
  }
  return sub;
}

// The returned columns are sorted, distinct, and cover every row.
void expect_valid_cover(const logic::CoverTable& t,
                        const logic::MinCoverResult& r) {
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(std::is_sorted(r.columns.begin(), r.columns.end()));
  EXPECT_EQ(std::adjacent_find(r.columns.begin(), r.columns.end()),
            r.columns.end());
  for (std::size_t row = 0; row < t.num_rows(); ++row) {
    EXPECT_TRUE(std::any_of(r.columns.begin(), r.columns.end(),
                            [&](std::size_t c) { return t.covers(c, row); }))
        << "row " << row << " left uncovered";
  }
}

// Solves `t` at every node budget from 1 until the search completes and
// checks that the reported bounds bracket the true optimum `opt` each
// time; an exact result must equal it.  Then audits every proper row
// subset at the full budget and at a budget of one node.
void audit_bounds(const logic::CoverTable& t,
                  const std::vector<std::size_t>& opt) {
  ASSERT_EQ(t.words(), 1u);
  const std::uint64_t all = (std::uint64_t{1} << t.num_rows()) - 1;
  for (std::size_t budget = 1;; ++budget) {
    SCOPED_TRACE(testing::Message() << "budget " << budget);
    const logic::MinCoverResult r = logic::solve_min_cover(t, budget);
    EXPECT_LE(r.lower_bound, opt[all]);
    if (r.found) {
      expect_valid_cover(t, r);
      EXPECT_GE(r.columns.size(), opt[all]);
    }
    if (r.exact) {
      ASSERT_TRUE(r.found);
      EXPECT_EQ(r.columns.size(), opt[all]);
      EXPECT_EQ(r.lower_bound, opt[all]);
      break;
    }
    ASSERT_LT(budget, 1'000'000u) << "search never completed";
  }
  for (std::uint64_t s = 1; s < all; ++s) {
    SCOPED_TRACE(testing::Message() << "rows " << s);
    const logic::CoverTable sub = restrict_rows(t, s);
    ASSERT_NE(opt[s], kInf);
    const logic::MinCoverResult full = logic::solve_min_cover(sub, 1'000'000);
    ASSERT_TRUE(full.exact);
    expect_valid_cover(sub, full);
    EXPECT_EQ(full.columns.size(), opt[s]);
    EXPECT_EQ(full.lower_bound, opt[s]);
    const logic::MinCoverResult cut = logic::solve_min_cover(sub, 1);
    EXPECT_LE(cut.lower_bound, opt[s]);
    if (cut.found) {
      EXPECT_GE(cut.columns.size(), opt[s]);
    }
  }
}

TEST(SearchProperty, CyclicRingBoundsBracketTheTrueOptimum) {
  for (std::size_t n : {6u, 8u, 9u, 10u, 11u, 12u}) {
    SCOPED_TRACE(n);
    const logic::CoverTable t = cyclic_ring(n);
    const logic::MinCoverResult r = logic::solve_min_cover(t, 1'000'000);
    ASSERT_TRUE(r.found);
    ASSERT_TRUE(r.exact);
    EXPECT_EQ(r.columns.size(), (n + 1) / 2);
    EXPECT_EQ(r.lower_bound, (n + 1) / 2);
    audit_bounds(t, subset_optima(t));
  }
}

TEST(SearchProperty, RandomTableBoundsBracketTheTrueOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const logic::CoverTable t = random_table(11, 14, seed);
    const logic::MinCoverResult r = logic::solve_min_cover(t, 1'000'000);
    ASSERT_TRUE(r.found);
    ASSERT_TRUE(r.exact);
    const std::vector<std::size_t> opt = subset_optima(t);
    EXPECT_EQ(r.columns.size(), opt[(std::uint64_t{1} << 11) - 1]);
    audit_bounds(t, opt);
  }
}

TEST(SearchProperty, TruncatedCoverIsAValidCover) {
  // Charts too large to finish inside these budgets: whatever incumbent
  // the search holds when the budget runs out must still cover every
  // row, and the root bound must not exceed it.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const logic::CoverTable t = sparse_random_table(120, 90, 50, seed);
    for (std::size_t budget : {200u, 2'000u, 20'000u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", budget "
                                      << budget);
      const logic::MinCoverResult r = logic::solve_min_cover(t, budget);
      ASSERT_FALSE(r.exact);
      EXPECT_EQ(r.nodes, budget + 1);
      expect_valid_cover(t, r);
      EXPECT_LE(r.lower_bound, r.columns.size());
    }
  }
}

TEST(SearchProperty, CoverCostNeverRisesWithTheBudget) {
  // The search keeps no memo, so a larger budget walks a longer prefix
  // of the same traversal: its incumbent can only improve, and a
  // truncated run's bound is the same root bound at every budget.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    const logic::CoverTable t = sparse_random_table(120, 90, 50, seed);
    std::size_t previous = kInf;
    std::size_t root_bound = 0;
    for (std::size_t budget = 1; budget <= 40'000; budget *= 2) {
      SCOPED_TRACE(testing::Message() << "budget " << budget);
      const logic::MinCoverResult r = logic::solve_min_cover(t, budget);
      ASSERT_FALSE(r.exact);
      if (root_bound == 0) root_bound = r.lower_bound;
      EXPECT_EQ(r.lower_bound, root_bound);
      if (!r.found) {
        EXPECT_EQ(previous, kInf);  // once found, always found
        continue;
      }
      EXPECT_LE(r.columns.size(), previous);
      previous = r.columns.size();
    }
    EXPECT_NE(previous, kInf);
  }
}

// The budget-truncated traversal, pinned: the order the search walks its
// branches decides which incumbent a truncated search returns, so any
// change to how the engine branches, orders or bounds shows up here as a
// changed cover or node count (the golden corpus's deep jobs are
// truncated the same way).
TEST(SearchProperty, TruncatedCoverTraversalIsPinned) {
  constexpr std::size_t kBudget = 20000;
  const struct {
    std::uint64_t seed;
    std::vector<std::size_t> columns;
    std::size_t lower_bound;
  } cases[] = {
      {1,
       {0,  2,  16, 17, 19, 21, 22, 25, 26, 27, 28, 29, 41, 48, 49,
        51, 54, 57, 59, 61, 64, 65, 67, 68, 73, 78, 79, 82, 87},
       13},
      {2,
       {3,  4,  5,  6,  7,  11, 14, 20, 23, 24, 33, 35, 36, 41, 46,
        53, 54, 59, 61, 66, 69, 71, 72, 73, 74, 75, 79, 82, 89},
       16},
      {3,
       {1,  2,  3,  5,  12, 14, 15, 19, 23, 25, 29, 32, 35, 38, 44,
        46, 49, 51, 53, 58, 60, 61, 62, 69, 74, 77, 79, 81, 88},
       18},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "seed " << c.seed);
    const logic::CoverTable t = sparse_random_table(120, 90, 50, c.seed);
    const logic::MinCoverResult r = logic::solve_min_cover(t, kBudget);
    ASSERT_TRUE(r.found);
    ASSERT_FALSE(r.exact);  // the budget really truncates
    EXPECT_EQ(r.columns, c.columns);
    EXPECT_EQ(r.nodes, kBudget + 1);
    EXPECT_EQ(r.lower_bound, c.lower_bound);
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

// A search that runs out of budget still stores a bound for every node it
// left before the budget ran out, and none after.  Those entries must be
// sound: a full search on the same table returns what a memo-free one
// does.
TEST(SearchProperty, TruncatedMinimizeLeavesASoundMemo) {
  std::uint64_t truncated_stores = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    bench_suite::GeneratorOptions g;
    g.num_states = 12;
    g.num_inputs = 4;
    g.seed = seed;
    const flowtable::FlowTable table = bench_suite::generate(g);
    const minimize::ReductionResult off = minimize::reduce(table);
    ASSERT_TRUE(off.cover_exact);
    if (off.cover_nodes < 8) continue;
    SCOPED_TRACE(seed);
    search::TranspositionTable tt(1 << 20);
    minimize::ReduceOptions truncated;
    truncated.node_budget = off.cover_nodes / 2;
    EXPECT_FALSE(minimize::reduce(table, truncated, &tt).cover_exact);
    truncated_stores += tt.stats().stores;
    const minimize::ReductionResult warm = minimize::reduce(table, {}, &tt);
    EXPECT_TRUE(warm.cover_exact);
    EXPECT_EQ(warm.classes, off.classes);
    EXPECT_EQ(warm.state_to_class, off.state_to_class);
  }
  EXPECT_GT(truncated_stores, 0u);
}

TEST(SearchProperty, TruncatedAssignmentLeavesASoundMemo) {
  std::uint64_t truncated_stores = 0;
  for (const bench_suite::NamedBenchmark& bench :
       bench_suite::table1_suite()) {
    SCOPED_TRACE(bench.name);
    const flowtable::FlowTable table = bench_suite::load(bench);
    const assign::Assignment off = assign::assign_ustt(table);
    for (const std::size_t budget : {std::size_t{1}, std::size_t{16}}) {
      SCOPED_TRACE(budget);
      search::TranspositionTable tt(1 << 20);
      assign::AssignOptions truncated;
      truncated.node_budget = budget;
      (void)assign::assign_ustt(table, truncated, &tt);
      truncated_stores += tt.stats().stores;
      const assign::Assignment warm = assign::assign_ustt(table, {}, &tt);
      EXPECT_EQ(warm.codes, off.codes);
      EXPECT_EQ(warm.num_vars, off.num_vars);
      EXPECT_EQ(warm.exact, off.exact);
    }
  }
  EXPECT_GT(truncated_stores, 0u);
}

TEST(SearchProperty, CoverOverrunReportsInexact) {
  const logic::CoverTable t = cyclic_ring(16);
  const logic::MinCoverResult r = logic::solve_min_cover(t, 1);
  EXPECT_FALSE(r.exact);
  EXPECT_GT(r.lower_bound, 0u);
  EXPECT_LE(r.lower_bound, 8u);  // never above the true optimum
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

std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted_dump(
    const search::TranspositionTable& tt) {
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

TEST(SearchProperty, CoverSearchDoesNotDependOnTheMemo) {
  // hardest-20x6-0001's largest cover charts spend the whole node
  // budget, while its reduce and USTT searches complete inside theirs,
  // so only the cover search could let the memo steer this job. It keeps
  // none: the machine and its batch row must not depend on options.tt.
  driver::BatchRunner corpus;
  corpus.add_hardest_generated(2, 1);
  const driver::JobSpec& with_memo = corpus.jobs()[1];
  ASSERT_EQ(with_memo.name, "hardest-20x6-0001");
  ASSERT_TRUE(with_memo.options.tt);
  driver::JobSpec without_memo = with_memo;
  without_memo.options.tt = false;

  const driver::BatchOptions options;
  core::FantomMachine on;
  core::FantomMachine off;
  const driver::JobResult on_row =
      driver::BatchRunner::run_job(with_memo, options, &on);
  const driver::JobResult off_row =
      driver::BatchRunner::run_job(without_memo, options, &off);
  ASSERT_TRUE(on_row.ok()) << on_row.detail;
  ASSERT_TRUE(off_row.ok()) << off_row.detail;
  ASSERT_TRUE(on.reduction.has_value());
  EXPECT_TRUE(on.reduction->cover_exact);
  EXPECT_LT(on.cover_bounds.proven, on.cover_bounds.charts);  // truncated
  EXPECT_EQ(on.report(), off.report());
  EXPECT_EQ(driver::to_csv_row(on_row), driver::to_csv_row(off_row));
}

// core::synthesize's reduce -> assign_ustt, both on `tt` (or cold).
assign::Assignment reduce_then_assign(flowtable::FlowTable table,
                                      search::TranspositionTable* tt) {
  if (!table.is_normal_mode()) table.normalize_to_normal_mode();
  const minimize::ReductionResult reduction =
      minimize::reduce(table, core::SynthesisOptions::reduce, tt);
  return assign::assign_ustt(reduction.reduced, core::SynthesisOptions::assign,
                             tt);
}

TEST(SearchProperty, ProductionMemoBuysTheSameStateVariablesAsALargeOne) {
  // Before Tracey's cover certificate, the memo bought a state variable
  // on these rows: run cold, the USTT search spent its budget one
  // variable short of the memoized code.  With the certificate all three
  // runs are proven and need the same number of variables.  The
  // production table still evicts on some of them (its searches run
  // until an incumbent meets the bound), yet its hits are short-range,
  // so it must reach exactly the codes of a 16 MiB table.
  // core::synthesize would swap the 16 MiB table for one of the
  // production size, so the layers are called directly.
  std::vector<driver::JobSpec> rows;
  rows.emplace_back("train11", load_by_name("train11"));
  driver::BatchRunner corpus;
  corpus.add_hardest_generated(18, 1);
  for (const std::size_t index : {5, 6, 14, 17}) {
    rows.push_back(corpus.jobs()[index]);
  }
  ASSERT_EQ(rows.back().name, "hardest-20x6-0017");

  std::uint64_t evictions = 0;
  for (const driver::JobSpec& row : rows) {
    SCOPED_TRACE(row.name);
    search::TranspositionTable production(core::SynthesisOptions::tt_mb << 20);
    search::TranspositionTable large(std::size_t{16} << 20);
    const assign::Assignment small = reduce_then_assign(row.table, &production);
    const assign::Assignment big = reduce_then_assign(row.table, &large);
    const assign::Assignment cold = reduce_then_assign(row.table, nullptr);
    for (const assign::Assignment* a : {&small, &big, &cold}) {
      EXPECT_TRUE(a->exact);
    }
    evictions += production.stats().evictions;
    EXPECT_EQ(small.codes, big.codes);
    EXPECT_EQ(small.num_vars, big.num_vars);
    EXPECT_EQ(cold.num_vars, small.num_vars);
  }
  EXPECT_GT(evictions, 0u);
}

}  // namespace
}  // namespace seance
