#include "logic/cover_engine.hpp"

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

std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

void set_bit(std::uint64_t* words, std::size_t i) {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}

bool test_bit(const std::uint64_t* words, std::size_t i) {
  return (words[i / 64] >> (i % 64)) & 1u;
}

/// The lowest bit set in both `a` and `mask`; one must exist.
std::size_t lowest_bit(const std::uint64_t* a, const std::uint64_t* mask) {
  std::size_t w = 0;
  while ((a[w] & mask[w]) == 0) ++w;
  return w * 64 + static_cast<std::size_t>(std::countr_zero(a[w] & mask[w]));
}

std::vector<std::uint64_t> all_set(std::size_t bits) {
  std::vector<std::uint64_t> words(words_for(bits), 0);
  for (std::size_t i = 0; i < bits; ++i) set_bit(words.data(), i);
  return words;
}

// Lazy greedy over `num_cols` column-major bitsets of `words` words
// each, covering rows 0..num_rows-1.  A column's gain only ever
// decreases as rows get covered, so the cached gains are upper bounds
// and a max-heap of stale entries needs to recompute only what floats to
// the top — instead of rescanning every column per pick.  The comparator
// prefers larger gain then lower column index, which is exactly the
// argmax an eager linear scan takes, so the chosen cover (and the
// determinism contract) does not depend on the heap.  Returns nullopt
// when some row is covered by no column.
std::optional<std::vector<std::size_t>> lazy_greedy(const std::uint64_t* cols,
                                                    std::size_t num_cols,
                                                    std::size_t words,
                                                    std::size_t num_rows) {
  std::vector<std::uint64_t> uncovered = all_set(num_rows);
  std::size_t left = num_rows;
  struct Entry {
    std::size_t gain;
    std::size_t col;
  };
  const auto worse = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.col > b.col;
  };
  std::vector<Entry> heap;
  heap.reserve(num_cols);
  for (std::size_t c = 0; c < num_cols; ++c) {
    const std::size_t gain = popcount_and(cols + c * words, uncovered.data(), words);
    if (gain > 0) heap.push_back({gain, c});
  }
  std::make_heap(heap.begin(), heap.end(), worse);

  std::vector<std::size_t> chosen;
  while (left > 0) {
    search::poll_deadline();
    if (heap.empty()) return std::nullopt;
    std::pop_heap(heap.begin(), heap.end(), worse);
    const Entry top = heap.back();
    heap.pop_back();
    const std::uint64_t* col = cols + top.col * words;
    const std::size_t gain = popcount_and(col, uncovered.data(), words);
    if (gain == 0) continue;
    if (!heap.empty() && worse(Entry{gain, top.col}, heap.front())) {
      // Stale: after refreshing, some other column may beat it.
      heap.push_back({gain, top.col});
      std::push_heap(heap.begin(), heap.end(), worse);
      continue;
    }
    for (std::size_t w = 0; w < words; ++w) uncovered[w] &= ~col[w];
    left -= gain;
    chosen.push_back(top.col);
  }
  return chosen;
}

// The solver reads the table only to load it.  It works on a chart of
// the rows and columns still live, renumbered densely in table order
// (chart column k is table column col_id_[k]), so during the reduction
// every scan over chart indices visits rows and columns in table order
// and every tie-break by index is the table's.  Each reduction round
// starts from a chart compacted to what the previous round left live.
// The search runs on the final chart with its rows renumbered in
// fail-first order, so finding a node's branching row is a
// count-trailing-zeros over one to a few words.
class Solver {
 public:
  Solver(const CoverTable& t, std::size_t node_budget)
      : t_(t), budget_(node_budget == 0 ? 1 : node_budget) {}

  MinCoverResult run() {
    MinCoverResult result;
    if (t_.num_rows() == 0) {
      result.found = true;
      result.exact = true;
      return result;
    }
    load_table();
    if (!reduce()) {
      result.exact = true;  // proven uncoverable; lower_bound stays vacuous
      return result;
    }
    if (num_rows_ == 0) {
      result.columns = forced_;
      std::sort(result.columns.begin(), result.columns.end());
      result.found = true;
      result.exact = true;
      result.lower_bound = result.columns.size();
      return result;
    }
    prepare_residual();
    const std::vector<std::size_t> greedy = greedy_incumbent();
    // The search accepts only a cover no larger than the greedy one, so
    // its first dive already prunes against it.  A search that completes
    // always finds such a cover; one the budget stops first returns the
    // greedy cover.
    bound_ = greedy.size() - forced_.size() + 1;
    recurse(num_rows_, 0, 0);
    result.nodes = budget_.nodes();
    result.exact = budget_.exact();
    result.found = true;
    if (best_.empty()) {
      result.columns = greedy;
    } else {
      result.columns = forced_;
      for (const std::uint32_t k : best_) result.columns.push_back(col_id_[k]);
    }
    std::sort(result.columns.begin(), result.columns.end());
    result.lower_bound =
        result.exact ? result.columns.size() : forced_.size() + root_lb_;
    return result;
  }

 private:
  [[nodiscard]] const std::uint64_t* col(std::size_t k) const {
    return cols_.data() + k * row_words_;
  }
  [[nodiscard]] const std::uint64_t* row(std::size_t j) const {
    return rows_.data() + j * col_words_;
  }
  [[nodiscard]] bool row_uncovered(std::size_t j) const {
    return test_bit(uncovered_.data(), j);
  }
  [[nodiscard]] bool col_active(std::size_t k) const {
    return test_bit(active_.data(), k);
  }
  void deactivate_col(std::size_t k) {
    active_[k / 64] &= ~(std::uint64_t{1} << (k % 64));
  }

  // The first chart is the whole table: every row uncovered, every
  // column active.  compact() then builds the row-major half.
  void load_table() {
    num_rows_ = t_.num_rows();
    col_id_.resize(t_.num_cols());
    for (std::size_t c = 0; c < col_id_.size(); ++c) col_id_[c] = c;
    row_words_ = t_.words();
    cols_.clear();
    for (std::size_t c = 0; c < t_.num_cols(); ++c) {
      cols_.insert(cols_.end(), t_.column(c), t_.column(c) + row_words_);
    }
    uncovered_ = all_set(num_rows_);
    active_ = all_set(col_id_.size());
    compact();
  }

  // Drops covered rows and inactive columns from the chart, keeping the
  // order of those left; afterwards every chart row is uncovered and
  // every chart column active.
  void compact() {
    std::vector<std::size_t> new_row(num_rows_, kNone);
    std::size_t num_rows = 0;
    for (std::size_t j = 0; j < num_rows_; ++j) {
      if (row_uncovered(j)) new_row[j] = num_rows++;
    }
    std::vector<std::size_t> kept;
    for (std::size_t k = 0; k < col_id_.size(); ++k) {
      if (col_active(k)) kept.push_back(k);
    }
    const std::size_t row_words = words_for(num_rows);
    const std::size_t col_words = words_for(kept.size());
    std::vector<std::uint64_t> cols(kept.size() * row_words, 0);
    std::vector<std::uint64_t> rows(num_rows * col_words, 0);
    std::vector<std::size_t> col_id(kept.size());
    for (std::size_t k2 = 0; k2 < kept.size(); ++k2) {
      col_id[k2] = col_id_[kept[k2]];
      const std::uint64_t* bits = col(kept[k2]);
      for (std::size_t w = 0; w < row_words_; ++w) {
        std::uint64_t b = bits[w] & uncovered_[w];
        while (b != 0) {
          const std::size_t j2 =
              new_row[w * 64 + static_cast<std::size_t>(std::countr_zero(b))];
          b &= b - 1;
          set_bit(&cols[k2 * row_words], j2);
          set_bit(&rows[j2 * col_words], k2);
        }
      }
    }
    num_rows_ = num_rows;
    col_id_ = std::move(col_id);
    row_words_ = row_words;
    col_words_ = col_words;
    cols_ = std::move(cols);
    rows_ = std::move(rows);
    uncovered_ = all_set(num_rows_);
    active_ = all_set(col_id_.size());
  }

  void select(std::size_t k) {
    forced_.push_back(col_id_[k]);
    const std::uint64_t* bits = col(k);
    for (std::size_t w = 0; w < row_words_; ++w) uncovered_[w] &= ~bits[w];
    deactivate_col(k);
  }

  // Root reduction: unit rows force their only column; a row whose active
  // column set contains another row's is covered for free and drops out; a
  // column whose active rows are a subset of another's can never be
  // preferred (unit costs) and drops out.  Loops to fixpoint, compacting
  // the chart after every round that changed it.  Returns false when
  // some uncovered row has no active column.
  bool reduce() {
    while (true) {
      bool changed = false;
      // Unit (and zero) rows.
      for (std::size_t j = 0; j < num_rows_; ++j) {
        if (!row_uncovered(j)) continue;
        const std::uint64_t* rc = row(j);
        std::size_t options = 0;
        std::size_t only = kNone;
        for (std::size_t w = 0; w < col_words_ && options <= 1; ++w) {
          std::uint64_t bits = rc[w] & active_[w];
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
      if (!changed) return true;
      compact();
    }
  }

  // A column is dropped when some other active column covers all of its
  // uncovered rows; whether one exists does not depend on the order the
  // candidates are tried in, so only the columns covering its lowest
  // uncovered row are tried.
  bool column_dominance() {
    std::vector<std::size_t> active;
    for (std::size_t k = 0; k < col_id_.size(); ++k) {
      if (col_active(k)) active.push_back(k);
    }
    if (active.size() > kColDominanceCap) return false;
    bool changed = false;
    // Drop columns with no uncovered rows first: they cover nothing.
    std::vector<std::size_t> gain(col_id_.size(), 0);
    for (const std::size_t k : active) {
      gain[k] = popcount_and(col(k), uncovered_.data(), row_words_);
      if (gain[k] == 0) {
        deactivate_col(k);
        changed = true;
      }
    }
    const auto dominated = [&](std::size_t k1) {
      const std::uint64_t* b1 = col(k1);
      const std::uint64_t* candidates = row(lowest_bit(b1, uncovered_.data()));
      for (std::size_t cw = 0; cw < col_words_; ++cw) {
        std::uint64_t bits = candidates[cw] & active_[cw];
        while (bits != 0) {
          const std::size_t k2 = cw * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          if (k2 == k1 || gain[k2] < gain[k1]) continue;
          if (gain[k2] == gain[k1] && k2 > k1) continue;  // equal sets keep lower index
          const std::uint64_t* b2 = col(k2);
          bool subset = true;
          for (std::size_t w = 0; w < row_words_; ++w) {
            if ((b1[w] & uncovered_[w]) & ~(b2[w] & uncovered_[w])) {
              subset = false;
              break;
            }
          }
          if (subset) return true;
        }
      }
      return false;
    };
    for (const std::size_t k1 : active) {
      if (gain[k1] == 0 || !col_active(k1) || !dominated(k1)) continue;
      deactivate_col(k1);
      changed = true;
    }
    return changed;
  }

  // A row is dropped when some other uncovered row's active columns lie
  // inside its own.  Such a row's lowest active column is one of its
  // columns, so rows are filed under their lowest active column and only
  // the rows filed under its columns are tried.  Every uncovered row
  // still has an active column here: the unit-row pass failed the chart
  // otherwise, selection deactivates only columns whose rows it covers,
  // and a dominated column leaves its rows to the column dominating it.
  bool row_dominance() {
    std::vector<std::size_t> active;
    for (std::size_t j = 0; j < num_rows_; ++j) {
      if (row_uncovered(j)) active.push_back(j);
    }
    if (active.size() > kRowDominanceCap) return false;
    std::vector<std::size_t> count(num_rows_, 0);
    std::vector<std::size_t> filed_start(col_id_.size() + 1, 0);
    for (const std::size_t j : active) {
      count[j] = popcount_and(row(j), active_.data(), col_words_);
      ++filed_start[lowest_bit(row(j), active_.data()) + 1];
    }
    for (std::size_t k = 0; k < col_id_.size(); ++k) filed_start[k + 1] += filed_start[k];
    std::vector<std::size_t> filed(active.size());
    std::vector<std::size_t> next = filed_start;
    for (const std::size_t j : active) filed[next[lowest_bit(row(j), active_.data())]++] = j;

    const auto dominated = [&](std::size_t j1) {
      const std::uint64_t* c1 = row(j1);
      for (std::size_t cw = 0; cw < col_words_; ++cw) {
        std::uint64_t bits = c1[cw] & active_[cw];
        while (bits != 0) {
          const std::size_t k = cw * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          for (std::size_t f = filed_start[k]; f < filed_start[k + 1]; ++f) {
            const std::size_t j2 = filed[f];
            if (j2 == j1 || !row_uncovered(j2) || count[j2] > count[j1]) continue;
            const std::uint64_t* c2 = row(j2);
            if (j2 > j1 && equal_active_cols(c1, c2)) continue;
            // cols(j2) ⊆ cols(j1): covering j2 covers j1 for free.
            bool subset = true;
            for (std::size_t w = 0; w < col_words_; ++w) {
              if ((c2[w] & active_[w]) & ~(c1[w] & active_[w])) {
                subset = false;
                break;
              }
            }
            if (subset) return true;
          }
        }
      }
      return false;
    };
    bool changed = false;
    for (const std::size_t j1 : active) {
      if (!row_uncovered(j1) || !dominated(j1)) continue;
      uncovered_[j1 / 64] &= ~(std::uint64_t{1} << (j1 % 64));
      changed = true;
    }
    return changed;
  }

  [[nodiscard]] bool equal_active_cols(const std::uint64_t* a,
                                       const std::uint64_t* b) const {
    for (std::size_t w = 0; w < col_words_; ++w) {
      if ((a[w] & active_[w]) != (b[w] & active_[w])) return false;
    }
    return true;
  }

  // The reduction's last round changed nothing, so every chart row is
  // uncovered and every chart column active.  Orders the rows fail-first
  // (fewest covering columns first; option counts are static during the
  // search because branching never deactivates columns), then renumbers
  // them by that position, so the search's "first uncovered row at or
  // after the cursor" is the lowest set bit.
  void prepare_residual() {
    const std::size_t live = num_rows_;
    // Try high-yield columns first inside each row so the first dive
    // lands a strong incumbent for the bound.
    std::vector<std::size_t> gain(col_id_.size());
    max_col_gain_ = 1;
    for (std::size_t k = 0; k < col_id_.size(); ++k) {
      gain[k] = popcount_and(col(k), uncovered_.data(), row_words_);
      max_col_gain_ = std::max(max_col_gain_, gain[k]);
    }
    std::vector<std::vector<std::uint32_t>> lists(live);
    for (std::size_t j = 0; j < live; ++j) {
      for (std::size_t w = 0; w < col_words_; ++w) {
        std::uint64_t bits = row(j)[w] & active_[w];
        while (bits != 0) {
          lists[j].push_back(static_cast<std::uint32_t>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
          bits &= bits - 1;
        }
      }
      std::stable_sort(lists[j].begin(), lists[j].end(),
                       [&](std::uint32_t a, std::uint32_t b) { return gain[a] > gain[b]; });
    }
    std::vector<std::size_t> order(live);
    for (std::size_t j = 0; j < live; ++j) order[j] = j;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return lists[a].size() < lists[b].size();
    });
    // Position i of the search holds chart row order[i].
    branch_.resize(live);
    std::vector<std::size_t> position(live);
    for (std::size_t i = 0; i < live; ++i) {
      position[order[i]] = i;
      branch_[i] = std::move(lists[order[i]]);
    }
    std::vector<std::uint64_t> cols(col_id_.size() * row_words_, 0);
    for (std::size_t k = 0; k < col_id_.size(); ++k) {
      for (std::size_t w = 0; w < row_words_; ++w) {
        std::uint64_t bits = col(k)[w];
        while (bits != 0) {
          set_bit(&cols[k * row_words_],
                  position[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]);
          bits &= bits - 1;
        }
      }
    }
    cols_ = std::move(cols);
    rows_.clear();
    scratch_.assign((live + 1) * row_words_, 0);
    root_lb_ = (live + max_col_gain_ - 1) / max_col_gain_;
  }

  /// The smaller of two greedy covers, as table columns: the forced
  /// columns plus the residual chart's greedy cover, or the whole
  /// table's greedy cover.  Neither is always the smaller, since the
  /// reduction can steer greedy either way; the residual one wins ties.
  /// Both are at least the optimum, which the reduction keeps, so the
  /// whole table's has at least the forced columns' count.
  [[nodiscard]] std::vector<std::size_t> greedy_incumbent() const {
    const std::vector<std::size_t> residual =
        *lazy_greedy(cols_.data(), col_id_.size(), row_words_, num_rows_);
    std::vector<std::size_t> whole =
        *lazy_greedy(t_.column(0), t_.num_cols(), t_.words(), t_.num_rows());
    if (whole.size() < forced_.size() + residual.size()) return whole;
    std::vector<std::size_t> columns = forced_;
    for (const std::size_t k : residual) columns.push_back(col_id_[k]);
    return columns;
  }

  /// True when a node with `chosen` columns and `uncovered` rows left
  /// cannot hold a cover below bound_: each further column gains at most
  /// max_col_gain_ rows.
  [[nodiscard]] bool gain_bound_prunes(std::size_t chosen,
                                       std::size_t uncovered) const {
    return chosen + (uncovered + max_col_gain_ - 1) / max_col_gain_ >= bound_;
  }

  /// The first uncovered search position at or after `cursor`; one
  /// exists whenever a row is left uncovered, since every position before
  /// the cursor is covered.
  [[nodiscard]] std::size_t next_uncovered(std::size_t cursor) const {
    std::size_t w = cursor / 64;
    std::uint64_t bits = uncovered_[w] & (~std::uint64_t{0} << (cursor % 64));
    while (bits == 0) bits = uncovered_[++w];
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }

  // `cursor` is the parent's search position, before which every row is
  // already covered.  The parent has already checked the gain bound: a
  // child that fails it is charged but not entered.
  void recurse(std::size_t uncovered_count, std::size_t depth,
               std::size_t cursor) {
    if (uncovered_count == 0) {
      if (chosen_.size() < bound_) {
        best_ = chosen_;
        bound_ = best_.size();
      }
      return;
    }
    if (budget_.charge()) return;
    const std::size_t at = next_uncovered(cursor);
    std::uint64_t* newly = &scratch_[depth * row_words_];
    for (const std::uint32_t k : branch_[at]) {
      const std::uint64_t* bits = col(k);
      const std::size_t left =
          uncovered_count - popcount_and(bits, uncovered_.data(), row_words_);
      if (left != 0 && gain_bound_prunes(chosen_.size() + 1, left)) {
        // Counted as an expanded node, as when the child checked the
        // bound itself, so node counts and truncation do not move.
        if (budget_.charge()) break;
        continue;
      }
      for (std::size_t w = 0; w < row_words_; ++w) {
        newly[w] = bits[w] & uncovered_[w];
        uncovered_[w] ^= newly[w];
      }
      chosen_.push_back(k);
      recurse(left, depth + 1, at);
      chosen_.pop_back();
      for (std::size_t w = 0; w < row_words_; ++w) uncovered_[w] |= newly[w];
      if (budget_.exhausted()) break;
    }
  }

  const CoverTable& t_;
  search::NodeBudget budget_;
  std::size_t root_lb_ = 0;
  std::size_t num_rows_ = 0;             ///< chart rows
  std::vector<std::size_t> col_id_;      ///< chart column → table column
  std::size_t row_words_ = 0;            ///< words per chart column
  std::size_t col_words_ = 0;            ///< words per chart row
  std::vector<std::uint64_t> cols_;      ///< chart column → rows it covers
  std::vector<std::uint64_t> rows_;      ///< chart row → columns covering it
  std::vector<std::uint64_t> uncovered_;
  std::vector<std::uint64_t> active_;
  std::vector<std::size_t> forced_;      ///< table columns selected during reduction
  std::vector<std::vector<std::uint32_t>> branch_;  ///< search position → its columns
  std::vector<std::uint64_t> scratch_;   ///< per-depth newly-covered words
  std::size_t max_col_gain_ = 1;
  std::vector<std::uint32_t> chosen_;    ///< chart columns
  std::vector<std::uint32_t> best_;      ///< empty until a leaf beats bound_
  std::size_t bound_ = 0;                ///< a leaf must have fewer chart columns
};

}  // namespace

MinCoverResult solve_min_cover(const CoverTable& table,
                               std::size_t node_budget) {
  return Solver(table, node_budget).run();
}

std::optional<std::vector<std::size_t>> greedy_cover(const CoverTable& table) {
  return lazy_greedy(table.column(0), table.num_cols(), table.words(),
                     table.num_rows());
}

}  // namespace seance::logic
