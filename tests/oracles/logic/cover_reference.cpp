#include "logic/cover_reference.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "search/search.hpp"

namespace seance::logic {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// Reduction passes are quadratic in the active row/column count; past
// these caps they are skipped (the branch and bound stays correct, the
// root just starts less reduced).  Corpus workloads never get close.
constexpr std::size_t kRowDominanceCap = 4096;
constexpr std::size_t kColDominanceCap = 8192;

std::size_t popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < words; ++w) n += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  return n;
}

class Solver {
 public:
  Solver(const CoverTable& t, std::size_t node_budget, bool greedy_ceiling)
      : t_(t),
        greedy_ceiling_(greedy_ceiling),
        words_(t.words()),
        col_words_((t.num_cols() + 63) / 64),
        budget_(node_budget == 0 ? 1 : node_budget),
        uncovered_(words_, 0),
        col_mask_(col_words_, 0),
        row_cols_(t.num_rows() * col_words_, 0) {}

  MinCoverResult run() {
    MinCoverResult result;
    if (t_.num_rows() == 0) {
      result.found = true;
      result.exact = true;
      return result;
    }
    init();
    if (!reduce()) {
      result.exact = true;  // proven uncoverable; lower_bound stays vacuous
      return result;
    }
    if (uncovered_count() == 0) {
      result.columns = forced_;
      std::sort(result.columns.begin(), result.columns.end());
      result.found = true;
      result.exact = true;
      result.lower_bound = result.columns.size();
      return result;
    }
    prepare_residual();
    // The ceiling: the smaller of the forced columns plus the residual's
    // greedy cover and the whole table's greedy cover (residual on ties).
    std::vector<std::size_t> greedy;
    if (greedy_ceiling_) {
      greedy = forced_;
      const std::vector<std::size_t> residual = eager_greedy(uncovered_, true);
      greedy.insert(greedy.end(), residual.begin(), residual.end());
      std::vector<std::uint64_t> all_rows(words_, 0);
      for (std::size_t r = 0; r < t_.num_rows(); ++r) {
        all_rows[r / 64] |= std::uint64_t{1} << (r % 64);
      }
      const std::vector<std::size_t> whole = eager_greedy(all_rows, false);
      if (whole.size() < greedy.size()) greedy = whole;
      ceiling_ = greedy.size() - forced_.size() + 1;
    }
    recurse(uncovered_count(), 0, 0);
    result.nodes = budget_.nodes();
    result.exact = budget_.exact();
    if (have_best_) {
      result.found = true;
      result.columns = forced_;
      result.columns.insert(result.columns.end(), best_.begin(), best_.end());
    } else if (greedy_ceiling_) {
      result.found = true;
      result.columns = greedy;
    }
    std::sort(result.columns.begin(), result.columns.end());
    result.lower_bound = (result.exact && result.found)
                             ? result.columns.size()
                             : forced_.size() + root_lb_;
    return result;
  }

 private:
  void init() {
    // All rows start uncovered; the last word's slack bits stay zero.
    for (std::size_t r = 0; r < t_.num_rows(); ++r) {
      uncovered_[r / 64] |= std::uint64_t{1} << (r % 64);
    }
    for (std::size_t c = 0; c < t_.num_cols(); ++c) {
      col_mask_[c / 64] |= std::uint64_t{1} << (c % 64);
      const std::uint64_t* col = t_.column(c);
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t bits = col[w];
        while (bits != 0) {
          const std::size_t r = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          row_cols_[r * col_words_ + c / 64] |= std::uint64_t{1} << (c % 64);
        }
      }
    }
  }

  [[nodiscard]] bool row_uncovered(std::size_t r) const {
    return (uncovered_[r / 64] >> (r % 64)) & 1u;
  }
  [[nodiscard]] bool col_active(std::size_t c) const {
    return (col_mask_[c / 64] >> (c % 64)) & 1u;
  }
  void deactivate_col(std::size_t c) {
    col_mask_[c / 64] &= ~(std::uint64_t{1} << (c % 64));
  }
  [[nodiscard]] std::size_t uncovered_count() const {
    std::size_t n = 0;
    for (std::uint64_t w : uncovered_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  void select(std::size_t c) {
    forced_.push_back(c);
    const std::uint64_t* col = t_.column(c);
    for (std::size_t w = 0; w < words_; ++w) uncovered_[w] &= ~col[w];
    deactivate_col(c);
  }

  // Root reduction: unit rows force their only column; a row whose active
  // column set contains another row's is covered for free and drops out; a
  // column whose active rows are a subset of another's can never be
  // preferred (unit costs) and drops out.  Loops to fixpoint.  Returns
  // false when some uncovered row has no active column.
  bool reduce() {
    bool changed = true;
    while (changed) {
      changed = false;
      // Unit (and zero) rows.
      for (std::size_t r = 0; r < t_.num_rows(); ++r) {
        if (!row_uncovered(r)) continue;
        const std::uint64_t* rc = row_cols_.data() + r * col_words_;
        std::size_t options = 0;
        std::size_t only = kNone;
        for (std::size_t w = 0; w < col_words_ && options <= 1; ++w) {
          std::uint64_t bits = rc[w] & col_mask_[w];
          while (bits != 0 && options <= 1) {
            only = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            ++options;
          }
        }
        if (options == 0) return false;
        if (options == 1) {
          select(only);
          changed = true;
        }
      }
      changed = column_dominance() || changed;
      changed = row_dominance() || changed;
    }
    return true;
  }

  bool column_dominance() {
    std::vector<std::size_t> active;
    for (std::size_t c = 0; c < t_.num_cols(); ++c) {
      if (col_active(c)) active.push_back(c);
    }
    if (active.size() > kColDominanceCap) return false;
    bool changed = false;
    // Drop columns with no uncovered rows first: they cover nothing.
    std::vector<std::size_t> gain(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      gain[i] = popcount_and(t_.column(active[i]), uncovered_.data(), words_);
      if (gain[i] == 0) {
        deactivate_col(active[i]);
        changed = true;
      }
    }
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::size_t c1 = active[i];
      if (gain[i] == 0 || !col_active(c1)) continue;
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::size_t c2 = active[k];
        if (i == k || gain[k] < gain[i] || !col_active(c2)) continue;
        if (gain[k] == gain[i] && c2 > c1) continue;  // equal sets keep lower index
        const std::uint64_t* b1 = t_.column(c1);
        const std::uint64_t* b2 = t_.column(c2);
        bool subset = true;
        for (std::size_t w = 0; w < words_; ++w) {
          if ((b1[w] & uncovered_[w]) & ~(b2[w] & uncovered_[w])) {
            subset = false;
            break;
          }
        }
        if (subset) {
          deactivate_col(c1);
          changed = true;
          break;
        }
      }
    }
    return changed;
  }

  bool row_dominance() {
    std::vector<std::size_t> active;
    for (std::size_t r = 0; r < t_.num_rows(); ++r) {
      if (row_uncovered(r)) active.push_back(r);
    }
    if (active.size() > kRowDominanceCap) return false;
    bool changed = false;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::size_t r1 = active[i];
      if (!row_uncovered(r1)) continue;
      const std::uint64_t* c1 = &row_cols_[r1 * col_words_];
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::size_t r2 = active[k];
        if (i == k || !row_uncovered(r2)) continue;
        if (r2 > r1 && equal_active_cols(c1, &row_cols_[r2 * col_words_])) continue;
        // cols(r2) ⊆ cols(r1): covering r2 covers r1 for free — drop r1.
        const std::uint64_t* c2 = &row_cols_[r2 * col_words_];
        bool subset = true;
        for (std::size_t w = 0; w < col_words_; ++w) {
          if ((c2[w] & col_mask_[w]) & ~(c1[w] & col_mask_[w])) {
            subset = false;
            break;
          }
        }
        if (subset) {
          uncovered_[r1 / 64] &= ~(std::uint64_t{1} << (r1 % 64));
          changed = true;
          break;
        }
      }
    }
    return changed;
  }

  [[nodiscard]] bool equal_active_cols(const std::uint64_t* a,
                                       const std::uint64_t* b) const {
    for (std::size_t w = 0; w < col_words_; ++w) {
      if ((a[w] & col_mask_[w]) != (b[w] & col_mask_[w])) return false;
    }
    return true;
  }

  void prepare_residual() {
    // Active rows in fail-first order (fewest covering columns first);
    // option counts are static during the search because branching never
    // deactivates columns.
    std::vector<std::size_t> active_rows;
    for (std::size_t r = 0; r < t_.num_rows(); ++r) {
      if (row_uncovered(r)) active_rows.push_back(r);
    }
    row_col_list_.assign(t_.num_rows(), {});
    std::vector<std::size_t> options(t_.num_rows(), 0);
    max_col_gain_ = 1;
    for (std::size_t r : active_rows) {
      const std::uint64_t* rc = &row_cols_[r * col_words_];
      for (std::size_t w = 0; w < col_words_; ++w) {
        std::uint64_t bits = rc[w] & col_mask_[w];
        while (bits != 0) {
          const std::size_t c = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          row_col_list_[r].push_back(static_cast<std::uint32_t>(c));
        }
      }
      options[r] = row_col_list_[r].size();
    }
    // Try high-yield columns first inside each row so the first dive
    // lands a strong incumbent for the bound.
    std::vector<std::pair<std::size_t, std::uint32_t>> ranked;
    for (std::size_t r : active_rows) {
      auto& list = row_col_list_[r];
      ranked.clear();
      ranked.reserve(list.size());
      for (std::uint32_t c : list) {
        const std::size_t gain = popcount_and(t_.column(c), uncovered_.data(), words_);
        max_col_gain_ = std::max(max_col_gain_, gain);
        ranked.emplace_back(gain, c);
      }
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const auto& a, const auto& b) { return a.first > b.first; });
      for (std::size_t i = 0; i < list.size(); ++i) list[i] = ranked[i].second;
    }
    row_order_ = active_rows;
    std::stable_sort(row_order_.begin(), row_order_.end(),
                     [&](std::size_t a, std::size_t b) { return options[a] < options[b]; });
    scratch_.assign((active_rows.size() + 1) * words_, 0);
    root_lb_ = (uncovered_count() + max_col_gain_ - 1) / max_col_gain_;
  }

  // Eager greedy: the column (an active one when `active_only`) covering
  // the most rows still `left`, lowest index on ties, until every row is
  // covered.  Only called on coverable row sets.
  [[nodiscard]] std::vector<std::size_t> eager_greedy(std::vector<std::uint64_t> left,
                                                      bool active_only) const {
    std::vector<std::size_t> chosen;
    while (std::any_of(left.begin(), left.end(),
                       [](std::uint64_t w) { return w != 0; })) {
      std::size_t best = kNone;
      std::size_t best_gain = 0;
      for (std::size_t c = 0; c < t_.num_cols(); ++c) {
        if (active_only && !col_active(c)) continue;
        const std::size_t gain = popcount_and(t_.column(c), left.data(), words_);
        if (gain > best_gain) {
          best_gain = gain;
          best = c;
        }
      }
      for (std::size_t w = 0; w < words_; ++w) left[w] &= ~t_.column(best)[w];
      chosen.push_back(best);
    }
    return chosen;
  }

  /// A cover must have fewer columns than this to be kept: the
  /// incumbent's size, or the ceiling (kNone without one) before the
  /// first leaf.
  [[nodiscard]] std::size_t bound() const {
    return have_best_ ? best_.size() : ceiling_;
  }

  /// True when a node with `chosen` columns and `uncovered` rows left
  /// cannot hold a cover below bound(): each further column gains at
  /// most max_col_gain_ rows.
  [[nodiscard]] bool gain_bound_prunes(std::size_t chosen,
                                       std::size_t uncovered) const {
    return chosen + (uncovered + max_col_gain_ - 1) / max_col_gain_ >= bound();
  }

  // `cursor` is the parent's position in row_order_, before which every
  // row is already covered.  The parent has already checked the gain
  // bound: a child that fails it is charged but not entered.
  void recurse(std::size_t uncovered_count, std::size_t depth,
               std::size_t cursor) {
    if (uncovered_count == 0) {
      if (chosen_.size() < bound()) {
        best_ = chosen_;
        have_best_ = true;
      }
      return;
    }
    if (budget_.charge()) return;
    std::size_t at = cursor;
    while (at < row_order_.size() && !row_uncovered(row_order_[at])) ++at;
    if (at == row_order_.size()) return;  // unreachable: uncovered_count > 0
    const std::vector<std::uint32_t>& branch = row_col_list_[row_order_[at]];
    std::uint64_t* newly = &scratch_[depth * words_];
    for (const std::uint32_t c : branch) {
      const std::uint64_t* col = t_.column(c);
      const std::size_t left =
          uncovered_count - popcount_and(col, uncovered_.data(), words_);
      if (left != 0 && gain_bound_prunes(chosen_.size() + 1, left)) {
        // Counted as an expanded node, as when the child checked the
        // bound itself, so node counts and truncation do not move.
        if (budget_.charge()) break;
        continue;
      }
      for (std::size_t w = 0; w < words_; ++w) {
        newly[w] = col[w] & uncovered_[w];
        uncovered_[w] ^= newly[w];
      }
      chosen_.push_back(c);
      recurse(left, depth + 1, at);
      chosen_.pop_back();
      for (std::size_t w = 0; w < words_; ++w) uncovered_[w] |= newly[w];
      if (budget_.exhausted()) break;
    }
  }

  const CoverTable& t_;
  bool greedy_ceiling_;
  std::size_t ceiling_ = kNone;
  std::size_t words_;
  std::size_t col_words_;
  search::NodeBudget budget_;
  std::size_t root_lb_ = 0;
  std::vector<std::uint64_t> uncovered_;
  std::vector<std::uint64_t> col_mask_;
  std::vector<std::uint64_t> row_cols_;  ///< transposed: row → column bitset
  std::vector<std::size_t> forced_;      ///< selected during reduction
  std::vector<std::vector<std::uint32_t>> row_col_list_;
  std::vector<std::size_t> row_order_;
  std::vector<std::uint64_t> scratch_;   ///< per-depth newly-covered words
  std::size_t max_col_gain_ = 1;
  std::vector<std::size_t> chosen_;
  std::vector<std::size_t> best_;
  bool have_best_ = false;
};

}  // namespace

MinCoverResult reference_solve_min_cover(const CoverTable& table,
                                         std::size_t node_budget,
                                         bool greedy_ceiling) {
  return Solver(table, node_budget, greedy_ceiling).run();
}

}  // namespace seance::logic
