// Packed-bitset minimum set-cover engine.
//
// The Quine-McCluskey covering step (and any future covering-shaped
// subproblem) reduces to: given an incidence table "column c covers row
// r", pick the fewest columns that cover every row.  This engine stores
// the table as packed uint64_t bitsets and solves with the classic
// reduction loop (unit rows, row dominance, column dominance) followed by
// fail-first branch and bound, all driven by word-wide AND/popcount
// instead of per-element binary searches.  A lazy greedy cover over the
// same bitsets is the incumbent the branch and bound starts from, and
// the whole answer for charts too large to search.
//
// Determinism contract: results depend only on the table contents —
// ties break toward lower column indices everywhere — so golden corpus
// reports built on top of this engine are stable across platforms.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace seance::logic {

/// Column-major packed incidence matrix: bit r of column c's bitset is
/// set iff column c covers row r.
class CoverTable {
 public:
  CoverTable(std::size_t num_rows, std::size_t num_cols)
      : num_rows_(num_rows),
        num_cols_(num_cols),
        words_((num_rows + 63) / 64),
        bits_(num_cols * words_, 0) {}

  void set(std::size_t row, std::size_t col) {
    bits_[col * words_ + row / 64] |= std::uint64_t{1} << (row % 64);
  }

  [[nodiscard]] bool covers(std::size_t col, std::size_t row) const {
    return (bits_[col * words_ + row / 64] >> (row % 64)) & 1u;
  }

  [[nodiscard]] std::size_t num_rows() const { return num_rows_; }
  [[nodiscard]] std::size_t num_cols() const { return num_cols_; }
  /// Words per column bitset.
  [[nodiscard]] std::size_t words() const { return words_; }
  /// Pointer to column c's packed bitset (words() words).
  [[nodiscard]] const std::uint64_t* column(std::size_t col) const {
    return bits_.data() + col * words_;
  }

 private:
  std::size_t num_rows_;
  std::size_t num_cols_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

struct MinCoverResult {
  /// Chosen column indices, sorted ascending.  Valid iff `found`.
  std::vector<std::size_t> columns;
  /// A valid cover was produced (possibly non-minimal if !exact).  False
  /// only when some row is uncoverable: the search starts from a greedy
  /// cover, so even a budget of one node returns one.
  bool found = false;
  /// The search completed within the node budget, so `columns` is a
  /// proven minimum-cardinality cover.  When the budget runs out, the
  /// best cover the search reached is returned (found=true, exact=false),
  /// or the greedy cover if the search reached none no larger.
  bool exact = false;
  /// Branch-and-bound nodes expanded (reduction work is free).
  std::size_t nodes = 0;
  /// Certified lower bound on the minimum cover size.  Equals
  /// `columns.size()` when `exact`; on budget overrun it is the
  /// deterministic root bound (forced columns + ceil(uncovered rows /
  /// best column gain)).
  /// Zero (vacuous) when the table is uncoverable.
  std::size_t lower_bound = 0;
};

/// Minimum-cardinality set cover by reduction + branch and bound with a
/// node budget.  An empty table (no rows) yields an empty exact cover.
///
/// Both phases run on a compacted chart.  Each reduction round scans
/// only the rows and columns the previous round left live, in table
/// order.  The search then renumbers the residual rows by their position
/// in the fail-first order (fewest covering columns first), so a
/// column's bitset spans ceil(live rows / 64) words and the next row to
/// branch on is the lowest uncovered bit at or after the parent's.  On
/// the corpus's hardest charts that is 1-4 words where the table has
/// 4-16.  Columns keep their table indices in the result.
///
/// Before the first node, the search takes the smaller of two greedy
/// covers (the forced columns plus the residual chart's greedy cover, or
/// the whole table's) and from then on keeps only a cover no larger:
/// until it reaches one, the gain bound prunes against the greedy size
/// plus one.  It still walks the fail-first order and skips only
/// subtrees that cannot hold such a cover, so a chart it proves keeps
/// the columns and at most the node count it had without the greedy
/// cover, and a chart the budget stops returns a cover no larger than
/// either greedy cover or the incumbent it had without it.
///
/// The search keeps no memo.  Most of its time goes to the charts that
/// spend the whole budget, and on those a transposition table cost two
/// to three times the search time without lowering the golden corpus's
/// summed gates.  Once a node picks its branching
/// row, each child's gain is counted from the packed bitsets and the
/// gain bound is applied at the parent: a child it rejects is charged
/// as a node but never entered.
[[nodiscard]] MinCoverResult solve_min_cover(const CoverTable& table,
                                             std::size_t node_budget);

/// Greedy set cover over the same packed table: repeatedly take the
/// column covering the most still-uncovered rows (lowest index on ties).
/// Returns nullopt when some row is covered by no column.
[[nodiscard]] std::optional<std::vector<std::size_t>> greedy_cover(
    const CoverTable& table);

}  // namespace seance::logic
