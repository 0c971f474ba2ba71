#include "logic/cover_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "logic/cover_reference.hpp"

namespace seance::logic {
namespace {

bool is_valid_cover(const CoverTable& t, const std::vector<std::size_t>& cols) {
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    bool covered = false;
    for (std::size_t c : cols) {
      if (t.covers(c, r)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

struct XorShift {
  std::uint64_t state;
  std::uint64_t operator()() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

TEST(CoverEngine, EmptyTableIsTriviallyExact) {
  const CoverTable t(0, 5);
  const MinCoverResult r = solve_min_cover(t, 1000);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.columns.empty());
}

TEST(CoverEngine, SingleColumnCoversEverything) {
  CoverTable t(70, 3);  // spans two words
  for (std::size_t r = 0; r < 70; ++r) t.set(r, 1);
  t.set(0, 0);
  t.set(69, 2);
  const MinCoverResult r = solve_min_cover(t, 1000);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.columns, std::vector<std::size_t>{1});
}

TEST(CoverEngine, IdentityMatrixNeedsAllColumns) {
  CoverTable t(6, 6);
  for (std::size_t i = 0; i < 6; ++i) t.set(i, i);
  const MinCoverResult r = solve_min_cover(t, 1000);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.columns.size(), 6u);  // every column is a unit row's only cover
}

TEST(CoverEngine, UncoverableRowReportsNotFound) {
  CoverTable t(3, 2);
  t.set(0, 0);
  t.set(1, 1);
  // Row 2 has no covering column.
  const MinCoverResult r = solve_min_cover(t, 1000);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.exact);  // proven uncoverable, not a budget artifact
  EXPECT_FALSE(greedy_cover(t).has_value());
}

CoverTable greedy_trap() {
  // Optimal cover is {A, B}; greedy grabs the size-4 column C first and
  // needs three.  Reduction alone solves it: rows 2 and 5 dominate their
  // neighbours and force A and B.
  CoverTable t(6, 3);
  for (std::size_t r : {0u, 1u, 2u}) t.set(r, 0);  // A
  for (std::size_t r : {3u, 4u, 5u}) t.set(r, 1);  // B
  for (std::size_t r : {0u, 1u, 3u, 4u}) t.set(r, 2);  // C
  return t;
}

TEST(CoverEngine, ReductionBeatsGreedyOnTrapInstance) {
  const CoverTable t = greedy_trap();
  const MinCoverResult r = solve_min_cover(t, 1000);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.columns, (std::vector<std::size_t>{0, 1}));

  const auto g = greedy_cover(t);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(is_valid_cover(t, *g));
  EXPECT_EQ(g->size(), 3u);  // documents greedy's known suboptimality
}

CoverTable cyclic_ring(std::size_t n) {
  // Column i covers rows {i, i+1 mod n}: no unit rows, no dominance —
  // the branch and bound has to work.  Minimum cover is ceil(n/2).
  CoverTable t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.set(i, i);
    t.set((i + 1) % n, i);
  }
  return t;
}

TEST(CoverEngine, CyclicChartSolvedExactly) {
  const CoverTable t = cyclic_ring(8);
  const MinCoverResult r = solve_min_cover(t, 1'000'000);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.columns.size(), 4u);
  EXPECT_TRUE(is_valid_cover(t, r.columns));
  EXPECT_GT(r.nodes, 0u);
}

// Regression for the seed bug: when the node budget ran out, the solver
// threw away a valid incumbent and reported failure, silently demoting
// the caller to greedy.  The engine must return the incumbent with
// exact=false instead.
TEST(CoverEngine, BudgetExhaustionKeepsIncumbent) {
  const CoverTable t = cyclic_ring(12);
  const MinCoverResult full = solve_min_cover(t, 1'000'000);
  ASSERT_TRUE(full.found);
  ASSERT_TRUE(full.exact);
  EXPECT_EQ(full.columns.size(), 6u);

  bool saw_inexact_incumbent = false;
  for (std::size_t budget = 1; budget <= full.nodes; ++budget) {
    const MinCoverResult r = solve_min_cover(t, budget);
    if (r.found) {
      EXPECT_TRUE(is_valid_cover(t, r.columns)) << "budget " << budget;
      EXPECT_GE(r.columns.size(), full.columns.size()) << "budget " << budget;
      if (!r.exact) saw_inexact_incumbent = true;
    } else {
      // Only acceptable before any complete cover was reached.
      EXPECT_FALSE(r.exact) << "budget " << budget;
    }
  }
  EXPECT_TRUE(saw_inexact_incumbent)
      << "no budget produced a kept incumbent — the regression guard is dead";
}

TEST(CoverEngine, GreedyCoversWideTables) {
  // 130 rows (three words), staggered columns.
  CoverTable t(130, 13);
  for (std::size_t r = 0; r < 130; ++r) t.set(r, r % 13);
  const auto g = greedy_cover(t);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(is_valid_cover(t, *g));
  EXPECT_EQ(g->size(), 13u);
}

// The eager argmax scan greedy_cover replaced (lazy heap): same
// tie-break contract, kept here as the oracle.
std::optional<std::vector<std::size_t>> eager_greedy(const CoverTable& t) {
  const std::size_t words = t.words();
  std::vector<std::uint64_t> uncovered(words, 0);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    uncovered[r / 64] |= std::uint64_t{1} << (r % 64);
  }
  std::size_t left = t.num_rows();
  std::vector<std::size_t> chosen;
  while (left > 0) {
    std::size_t best = t.num_cols();
    std::size_t best_gain = 0;
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      std::size_t gain = 0;
      for (std::size_t w = 0; w < words; ++w) {
        gain += static_cast<std::size_t>(
            std::popcount(t.column(c)[w] & uncovered[w]));
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = c;
      }
    }
    if (best == t.num_cols()) return std::nullopt;
    for (std::size_t w = 0; w < words; ++w) uncovered[w] &= ~t.column(best)[w];
    left -= best_gain;
    chosen.push_back(best);
  }
  return chosen;
}

TEST(CoverEngine, LazyGreedyMatchesEagerScanExactly) {
  // The lazy-heap greedy must pick the *identical* column sequence as
  // the eager scan — golden corpus reports depend on the tie-break
  // (largest gain, then lowest column index) never changing.
  XorShift next_rand{12345};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t rows = 20 + next_rand() % 120;
    const std::size_t cols = 5 + next_rand() % 60;
    CoverTable t(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      // 1-4 covering columns per row, with deliberate gain collisions.
      const std::size_t k = 1 + next_rand() % 4;
      for (std::size_t i = 0; i < k; ++i) t.set(r, next_rand() % cols);
    }
    const auto lazy = greedy_cover(t);
    const auto eager = eager_greedy(t);
    ASSERT_EQ(lazy.has_value(), eager.has_value()) << "trial " << trial;
    ASSERT_TRUE(lazy.has_value());
    EXPECT_EQ(*lazy, *eager) << "trial " << trial;
  }
}

// The compacted residual search against the full-width reference with
// the same greedy ceiling: every field of the result, node counts
// included, must match.
constexpr std::size_t kDiffBudgets[] = {1, 7, 1'000, 50'000};

void expect_same_search(const CoverTable& t, const std::string& what) {
  for (const std::size_t budget : kDiffBudgets) {
    const MinCoverResult got = solve_min_cover(t, budget);
    const MinCoverResult want =
        reference_solve_min_cover(t, budget, /*greedy_ceiling=*/true);
    const std::string at = what + " budget " + std::to_string(budget);
    EXPECT_EQ(got.columns, want.columns) << at;
    EXPECT_EQ(got.found, want.found) << at;
    EXPECT_EQ(got.exact, want.exact) << at;
    EXPECT_EQ(got.nodes, want.nodes) << at;
    EXPECT_EQ(got.lower_bound, want.lower_bound) << at;
  }
}

std::vector<std::pair<std::string, CoverTable>> random_charts() {
  std::vector<std::pair<std::string, CoverTable>> charts;
  XorShift rand{0x5eed'c0feULL};
  // Columns per row drawn from 1..k: sparse charts keep hundreds of rows
  // live after the reduction, dense ones collapse to a few.
  const std::size_t per_row_max[] = {2, 3, 6, 24};
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t rows = 1 + rand() % 1200;
    const std::size_t cols = 1 + rand() % 600;
    const std::size_t k_max = per_row_max[trial % 4];
    CoverTable t(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t k = 1 + rand() % k_max;
      for (std::size_t i = 0; i < k; ++i) t.set(r, rand() % cols);
    }
    charts.emplace_back("random trial " + std::to_string(trial), std::move(t));
  }
  for (int trial = 0; trial < 4; ++trial) {
    // About 30% of the cells set.
    const std::size_t rows = 1 + rand() % 1200;
    const std::size_t cols = 1 + rand() % 600;
    CoverTable t(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (rand() % 10 < 3) t.set(r, c);
      }
    }
    charts.emplace_back("dense trial " + std::to_string(trial), std::move(t));
  }
  return charts;
}

TEST(CoverEngine, CompactSearchMatchesFullWidthReferenceOnRandomCharts) {
  for (const auto& [what, t] : random_charts()) expect_same_search(t, what);
}

TEST(CoverEngine, CompactSearchMatchesFullWidthReferenceOnUncoverableCharts) {
  XorShift rand{0xdead'beefULL};
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t rows = 2 + rand() % 700;
    const std::size_t cols = 1 + rand() % 300;
    const std::size_t empty_row = rand() % rows;
    CoverTable t(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == empty_row) continue;
      for (std::size_t i = 0; i < 1 + rand() % 4; ++i) t.set(r, rand() % cols);
    }
    const std::string what = "uncoverable trial " + std::to_string(trial);
    EXPECT_FALSE(solve_min_cover(t, 1'000).found) << what;
    expect_same_search(t, what);
  }
  expect_same_search(CoverTable(5, 0), "no columns");
}

// A chart whose reduction leaves exactly `live` rows: a ring with chords
// (ring column i covers rows i and i+1, chord column i rows i and i+3,
// modulo `live`; no row or column dominates another), plus decoy rows
// that row dominance drops (copies of ring rows, half of them also
// covered by a junk column only decoys use), and unit rows that force a
// column of their own.  Rows and columns are shuffled over
// the table so the survivors sit at scattered indices.
CoverTable chart_with_live_rows(std::size_t live, std::size_t forced,
                                XorShift& rand) {
  const std::size_t decoys = live / 2 + 3;
  const std::size_t rows = live + decoys + 2 * forced;
  const std::size_t cols = 2 * live + 1 + forced;
  std::vector<std::size_t> row_at(rows), col_at(cols);
  for (std::size_t i = 0; i < rows; ++i) row_at[i] = i;
  for (std::size_t i = 0; i < cols; ++i) col_at[i] = i;
  const auto shuffle = [&rand](std::vector<std::size_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rand() % i]);
  };
  shuffle(row_at);
  shuffle(col_at);
  CoverTable t(rows, cols);
  const auto ring_row = [&](std::size_t table_row, std::size_t i) {
    t.set(table_row, col_at[(i + live - 1) % live]);       // ring i-1
    t.set(table_row, col_at[i]);                           // ring i
    t.set(table_row, col_at[live + i]);                    // chord i
    t.set(table_row, col_at[live + (i + live - 3) % live]);  // chord i-3
  };
  for (std::size_t i = 0; i < live; ++i) ring_row(row_at[i], i);
  const std::size_t junk = col_at[2 * live];
  for (std::size_t d = 0; d < decoys; ++d) {
    const std::size_t r = row_at[live + d];
    ring_row(r, rand() % live);
    if (d % 2 == 0) t.set(r, junk);
  }
  for (std::size_t f = 0; f < forced; ++f) {
    const std::size_t own = col_at[2 * live + 1 + f];
    t.set(row_at[live + decoys + 2 * f], own);
    t.set(row_at[live + decoys + 2 * f + 1], own);
    t.set(row_at[live + decoys + 2 * f + 1], junk);
  }
  return t;
}

struct WordEdgeChart {
  std::size_t live;
  std::size_t forced;
  std::string what;
  CoverTable table;
};

std::vector<WordEdgeChart> word_edge_charts() {
  std::vector<WordEdgeChart> charts;
  XorShift rand{0x0b1e'c7edULL};
  for (const std::size_t live : {5u, 63u, 64u, 65u, 127u, 128u, 129u, 300u}) {
    for (const std::size_t forced : {0u, 3u}) {
      charts.push_back({live, forced,
                        std::to_string(live) + " live rows, " +
                            std::to_string(forced) + " forced",
                        chart_with_live_rows(live, forced, rand)});
    }
  }
  return charts;
}

TEST(CoverEngine, CompactSearchMatchesFullWidthReferenceAroundWordEdges) {
  for (const WordEdgeChart& c : word_edge_charts()) {
    // Ring and chord columns gain two rows each, so the one-node root
    // bound reads the live count back to within one.
    EXPECT_EQ(solve_min_cover(c.table, 1).lower_bound,
              c.forced + (c.live + 1) / 2)
        << c.what;
    expect_same_search(c.table, c.what);
  }
}

// The ceiling against the search as it was without it (the reference
// with its ceiling off), at the same budgets: a chart that search proves
// keeps its columns and needs no more nodes; a truncated one still
// returns a cover, no larger than the incumbent that search kept or the
// greedy cover, with a bound no weaker.
TEST(CoverEngine, GreedyCeilingNeverLosesToTheSearchWithoutIt) {
  std::size_t improved = 0;
  const auto check = [&](const CoverTable& t, const std::string& what) {
    const auto greedy = greedy_cover(t);
    for (const std::size_t budget : kDiffBudgets) {
      const MinCoverResult got = solve_min_cover(t, budget);
      const MinCoverResult old =
          reference_solve_min_cover(t, budget, /*greedy_ceiling=*/false);
      const std::string at = what + " budget " + std::to_string(budget);
      if (old.exact) {
        EXPECT_TRUE(got.exact) << at;
        EXPECT_EQ(got.found, old.found) << at;
        EXPECT_EQ(got.columns, old.columns) << at;
        EXPECT_LE(got.nodes, old.nodes) << at;
        EXPECT_EQ(got.lower_bound, old.lower_bound) << at;
        continue;
      }
      ASSERT_TRUE(greedy.has_value()) << at;
      ASSERT_TRUE(got.found) << at;
      EXPECT_TRUE(is_valid_cover(t, got.columns)) << at;
      EXPECT_LE(got.columns.size(), greedy->size()) << at;
      if (old.found) {
        EXPECT_LE(got.columns.size(), old.columns.size()) << at;
      }
      EXPECT_GE(got.lower_bound, old.lower_bound) << at;
      if (!old.found || got.columns.size() < old.columns.size()) ++improved;
    }
  };
  for (const auto& [what, t] : random_charts()) check(t, what);
  for (const WordEdgeChart& c : word_edge_charts()) check(c.table, c.what);
  EXPECT_GT(improved, 0u) << "no truncated search gained from the ceiling";
}

}  // namespace
}  // namespace seance::logic
