#include "logic/qm_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace seance::logic {

namespace {

// The seed's work bound for the exact branch-and-bound completion.
constexpr std::size_t kExactNodeBudget = 2'000'000;

std::vector<Minterm> dedup(std::span<const Minterm> v) {
  std::vector<Minterm> out(v.begin(), v.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// The seed's exact solver: per-node fail-first row pick via binary_search
// over sorted row lists.  Deliberately unoptimized — it is the "before"
// in the before/after benchmark, and the oracle the bitset engine is
// checked against.  Note the seed bug is preserved: a budget overrun
// discards any incumbent and reports failure (the production engine
// keeps the incumbent instead).
class ReferenceExactCover {
 public:
  ReferenceExactCover(std::size_t num_rows,
                      std::vector<std::vector<std::uint32_t>> cols)
      : num_rows_(num_rows), cols_(std::move(cols)) {}

  std::optional<std::vector<std::size_t>> solve() {
    std::vector<char> covered(num_rows_, 0);
    std::vector<std::size_t> chosen;
    best_.reset();
    nodes_ = 0;
    recurse(covered, 0, chosen);
    if (nodes_ >= kExactNodeBudget) return std::nullopt;
    return best_;
  }

 private:
  void recurse(std::vector<char>& covered, std::size_t covered_count,
               std::vector<std::size_t>& chosen) {
    if (++nodes_ >= kExactNodeBudget) return;
    if (best_ && chosen.size() + 1 >= best_->size()) {
      if (covered_count < num_rows_) return;
    }
    if (covered_count == num_rows_) {
      if (!best_ || chosen.size() < best_->size()) best_ = chosen;
      return;
    }
    std::size_t pick = num_rows_;
    std::size_t pick_options = std::numeric_limits<std::size_t>::max();
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (covered[r]) continue;
      std::size_t options = 0;
      for (std::size_t c = 0; c < cols_.size(); ++c) {
        if (std::binary_search(cols_[c].begin(), cols_[c].end(),
                               static_cast<std::uint32_t>(r))) {
          ++options;
        }
      }
      if (options < pick_options) {
        pick_options = options;
        pick = r;
        if (options <= 1) break;
      }
    }
    if (pick == num_rows_ || pick_options == 0) return;
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      if (!std::binary_search(cols_[c].begin(), cols_[c].end(),
                              static_cast<std::uint32_t>(pick))) {
        continue;
      }
      std::vector<std::uint32_t> newly;
      for (std::uint32_t r : cols_[c]) {
        if (!covered[r]) {
          covered[r] = 1;
          newly.push_back(r);
        }
      }
      chosen.push_back(c);
      recurse(covered, covered_count + newly.size(), chosen);
      chosen.pop_back();
      for (std::uint32_t r : newly) covered[r] = 0;
      if (nodes_ >= kExactNodeBudget) return;
    }
  }

  std::size_t num_rows_;
  std::vector<std::vector<std::uint32_t>> cols_;
  std::optional<std::vector<std::size_t>> best_;
  std::size_t nodes_ = 0;
};

}  // namespace

std::vector<Cube> reference_compute_primes(int num_vars,
                                           std::span<const Minterm> on,
                                           std::span<const Minterm> dc) {
  // The seed's hash-map adjacency merge, preserved verbatim: group by
  // care mask, probe an unordered_map of values for the one-bit-apart
  // partner, dedup merges through an unordered_set of cube keys.
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("reference_compute_primes: num_vars out of range");
  }
  const std::vector<Minterm> on_sorted = dedup(on);
  const std::vector<Minterm> dc_sorted = dedup(dc);

  // Level 0: one full-care cube per ON/DC minterm.
  std::unordered_set<std::uint64_t> seen;
  std::vector<Cube> current;
  for (Minterm m : on_sorted) {
    Cube c = Cube::from_minterm(num_vars, m);
    if (seen.insert(c.key()).second) current.push_back(c);
  }
  for (Minterm m : dc_sorted) {
    Cube c = Cube::from_minterm(num_vars, m);
    if (seen.insert(c.key()).second) current.push_back(c);
  }

  std::vector<Cube> primes;
  while (!current.empty()) {
    // Group by care mask; only cubes with identical care can combine.
    std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_care;
    for (std::size_t i = 0; i < current.size(); ++i) {
      by_care[current[i].care()].push_back(i);
    }
    std::vector<char> combined(current.size(), 0);
    std::unordered_set<std::uint64_t> next_seen;
    std::vector<Cube> next;
    for (const auto& [care, idxs] : by_care) {
      // Hash values for O(1) one-bit-apart lookups.
      std::unordered_map<std::uint32_t, std::size_t> by_value;
      for (std::size_t i : idxs) by_value.emplace(current[i].value(), i);
      for (std::size_t i : idxs) {
        const std::uint32_t v = current[i].value();
        for (int b = 0; b < num_vars; ++b) {
          const std::uint32_t bit = 1u << b;
          if (!(care & bit)) continue;
          const auto it = by_value.find(v ^ bit);
          if (it == by_value.end()) continue;
          combined[i] = 1;
          combined[it->second] = 1;
          Cube merged(num_vars, care & ~bit, v & ~bit);
          if (next_seen.insert(merged.key()).second) next.push_back(merged);
        }
      }
    }
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (!combined[i]) primes.push_back(current[i]);
    }
    current = std::move(next);
  }
  // Canonical order: fewest literals first, then by key.
  std::sort(primes.begin(), primes.end(), [](const Cube& a, const Cube& b) {
    if (a.literal_count() != b.literal_count()) {
      return a.literal_count() < b.literal_count();
    }
    return a.key() < b.key();
  });
  return primes;
}

namespace {

/// Reference primes that cover at least one of the sorted ON minterms.
std::vector<Cube> on_primes(int num_vars, std::span<const Minterm> on_sorted,
                            std::span<const Minterm> dc) {
  std::vector<Cube> primes = reference_compute_primes(num_vars, on_sorted, dc);
  std::erase_if(primes, [&](const Cube& p) {
    return std::none_of(on_sorted.begin(), on_sorted.end(),
                        [&p](Minterm m) { return p.contains(m); });
  });
  return primes;
}

}  // namespace

Cover reference_all_primes_cover(int num_vars, std::span<const Minterm> on,
                                 std::span<const Minterm> dc) {
  return Cover(num_vars, on_primes(num_vars, dedup(on), dc));
}

Cover reference_select_cover(int num_vars, std::span<const Minterm> on,
                             std::span<const Minterm> dc, CoverStats* stats) {
  const std::vector<Minterm> on_sorted = dedup(on);
  std::vector<Cube> primes = on_primes(num_vars, on_sorted, dc);

  if (stats != nullptr) {
    *stats = CoverStats{};
    stats->prime_count = primes.size();
  }

  const std::size_t num_minterms = on_sorted.size();
  std::vector<std::vector<std::size_t>> covering(num_minterms);
  std::vector<std::vector<std::uint32_t>> covered_by(primes.size());
  for (std::size_t p = 0; p < primes.size(); ++p) {
    for (std::size_t m = 0; m < num_minterms; ++m) {
      if (primes[p].contains(on_sorted[m])) {
        covering[m].push_back(p);
        covered_by[p].push_back(static_cast<std::uint32_t>(m));
      }
    }
  }

  std::vector<char> selected(primes.size(), 0);
  std::vector<char> covered(num_minterms, 0);
  for (std::size_t m = 0; m < num_minterms; ++m) {
    if (covering[m].size() == 1) selected[covering[m][0]] = 1;
  }
  std::size_t essential_count = 0;
  for (std::size_t p = 0; p < primes.size(); ++p) {
    if (!selected[p]) continue;
    ++essential_count;
    for (std::uint32_t m : covered_by[p]) covered[m] = 1;
  }
  if (stats != nullptr) stats->essential_count = essential_count;

  std::vector<std::uint32_t> remaining_rows;
  for (std::size_t m = 0; m < num_minterms; ++m) {
    if (!covered[m]) remaining_rows.push_back(static_cast<std::uint32_t>(m));
  }

  if (!remaining_rows.empty()) {
    std::unordered_map<std::uint32_t, std::uint32_t> row_index;
    for (std::size_t i = 0; i < remaining_rows.size(); ++i) {
      row_index.emplace(remaining_rows[i], static_cast<std::uint32_t>(i));
    }
    std::vector<std::size_t> cand_ids;
    std::vector<std::vector<std::uint32_t>> cand_cols;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (selected[p]) continue;
      std::vector<std::uint32_t> rows;
      for (std::uint32_t m : covered_by[p]) {
        const auto it = row_index.find(m);
        if (it != row_index.end()) rows.push_back(it->second);
      }
      if (rows.empty()) continue;
      std::sort(rows.begin(), rows.end());
      cand_ids.push_back(p);
      cand_cols.push_back(std::move(rows));
    }

    bool solved_exactly = false;
    if (remaining_rows.size() * cand_cols.size() <= 200'000) {
      ReferenceExactCover solver(remaining_rows.size(), cand_cols);
      if (auto solution = solver.solve()) {
        for (std::size_t c : *solution) selected[cand_ids[c]] = 1;
        solved_exactly = true;
      }
    }
    if (!solved_exactly) {
      if (stats != nullptr) stats->exact = false;
      std::vector<char> row_covered(remaining_rows.size(), 0);
      std::size_t rows_left = remaining_rows.size();
      while (rows_left > 0) {
        std::size_t best = cand_cols.size();
        std::size_t best_gain = 0;
        for (std::size_t c = 0; c < cand_cols.size(); ++c) {
          if (selected[cand_ids[c]]) continue;
          std::size_t gain = 0;
          for (std::uint32_t r : cand_cols[c]) {
            if (!row_covered[r]) ++gain;
          }
          if (gain > best_gain) {
            best_gain = gain;
            best = c;
          }
        }
        if (best == cand_cols.size()) {
          throw std::logic_error(
              "reference_select_cover: ON-set not coverable by primes");
        }
        selected[cand_ids[best]] = 1;
        for (std::uint32_t r : cand_cols[best]) {
          if (!row_covered[r]) {
            row_covered[r] = 1;
            --rows_left;
          }
        }
      }
    }
  }

  std::vector<Cube> chosen;
  for (std::size_t p = 0; p < primes.size(); ++p) {
    if (selected[p]) chosen.push_back(primes[p]);
  }
  return Cover(num_vars, std::move(chosen));
}

}  // namespace seance::logic
