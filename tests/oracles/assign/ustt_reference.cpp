#include "assign/ustt_reference.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace seance::assign {

using flowtable::FlowTable;

std::vector<Dichotomy> reference_transition_dichotomies(const FlowTable& table) {
  std::vector<Dichotomy> dichotomies = detail::raw_dichotomies(table);

  // Dominance, seed shape: every ordered pair is examined; drop D2 when
  // some D1 has D2's blocks inside its own blocks (any partition
  // separating D1 then separates D2).
  std::vector<char> dropped(dichotomies.size(), 0);
  for (std::size_t i = 0; i < dichotomies.size(); ++i) {
    if (dropped[i]) continue;
    for (std::size_t j = 0; j < dichotomies.size(); ++j) {
      if (i == j || dropped[j]) continue;
      const Dichotomy& big = dichotomies[i];
      const Dichotomy& small = dichotomies[j];
      const bool direct = (small.a & ~big.a) == 0 && (small.b & ~big.b) == 0;
      const bool swapped = (small.a & ~big.b) == 0 && (small.b & ~big.a) == 0;
      if ((direct || swapped) && !(big.a == small.a && big.b == small.b)) {
        dropped[j] = 1;
      }
    }
  }
  std::vector<Dichotomy> kept;
  for (std::size_t i = 0; i < dichotomies.size(); ++i) {
    if (!dropped[i]) kept.push_back(dichotomies[i]);
  }
  return kept;
}

namespace {

// Seed-shape partition search: cold greedy incumbent, no resumption — a
// fresh instance is built for every uniqueness-completion round.
class ReferencePartitionSearch {
 public:
  ReferencePartitionSearch(std::vector<Dichotomy> dichotomies, std::size_t budget)
      : dichotomies_(std::move(dichotomies)), budget_(budget) {
    // Most-constrained-first: larger dichotomies are harder to place.
    std::sort(dichotomies_.begin(), dichotomies_.end(),
              [](const Dichotomy& x, const Dichotomy& y) {
                return std::popcount(x.a | x.b) > std::popcount(y.a | y.b);
              });
  }

  std::vector<Partition> solve(bool* exact) {
    greedy();
    std::vector<Partition> classes;
    recurse(0, classes);
    if (exact != nullptr) *exact = nodes_ <= budget_;
    return best_;
  }

 private:
  static bool fits(const Partition& p, const Dichotomy& d, bool flip) {
    const StateSet zeros = flip ? d.b : d.a;
    const StateSet ones = flip ? d.a : d.b;
    return (zeros & p.ones) == 0 && (ones & p.zeros) == 0;
  }

  static void merge(Partition& p, const Dichotomy& d, bool flip) {
    p.zeros |= flip ? d.b : d.a;
    p.ones |= flip ? d.a : d.b;
  }

  void greedy() {
    std::vector<Partition> classes;
    for (const Dichotomy& d : dichotomies_) {
      bool placed = false;
      for (Partition& p : classes) {
        for (const bool flip : {false, true}) {
          if (fits(p, d, flip)) {
            merge(p, d, flip);
            placed = true;
            break;
          }
        }
        if (placed) break;
      }
      if (!placed) classes.push_back(Partition{d.a, d.b});
    }
    best_ = std::move(classes);
  }

  void recurse(std::size_t index, std::vector<Partition>& classes) {
    if (nodes_ > budget_) return;
    ++nodes_;
    if (classes.size() >= best_.size()) return;  // cannot improve
    if (index == dichotomies_.size()) {
      best_ = classes;
      return;
    }
    const Dichotomy& d = dichotomies_[index];
    for (std::size_t i = 0; i < classes.size(); ++i) {
      for (const bool flip : {false, true}) {
        if (!fits(classes[i], d, flip)) continue;
        const Partition saved = classes[i];
        merge(classes[i], d, flip);
        recurse(index + 1, classes);
        classes[i] = saved;
        if (nodes_ > budget_) return;
      }
    }
    // Open a new class.
    classes.push_back(Partition{d.a, d.b});
    recurse(index + 1, classes);
    classes.pop_back();
  }

  std::vector<Dichotomy> dichotomies_;
  std::size_t budget_;
  std::vector<Partition> best_;
  std::size_t nodes_ = 0;
};

}  // namespace

std::vector<Partition> reference_partitions(std::vector<Dichotomy> dichotomies,
                                            std::size_t budget, bool* finished) {
  ReferencePartitionSearch search(std::move(dichotomies), budget);
  return search.solve(finished);
}

Assignment reference_assign_ustt(const FlowTable& table, const AssignOptions& options) {
  if (table.num_states() > flowtable::kMaxStates) {
    throw std::invalid_argument("assign_ustt: too many states");
  }
  std::vector<Dichotomy> dichotomies = reference_transition_dichotomies(table);

  int completion_rounds = 0;
  for (int round = 0;; ++round) {
    if (round > table.num_states() * table.num_states()) {
      throw std::runtime_error("assign_ustt: uniqueness completion did not converge");
    }
    ReferencePartitionSearch search(dichotomies, options.node_budget);
    bool exact = true;
    std::vector<Partition> parts = search.solve(&exact);
    std::vector<std::uint32_t> codes =
        detail::codes_from_partitions(table.num_states(), parts);

    // Find ONE colliding pair; add a separating requirement and re-solve
    // from scratch (seed behavior: one pair per round).
    bool collision = false;
    for (int s = 0; s < table.num_states() && !collision; ++s) {
      for (int t = s + 1; t < table.num_states() && !collision; ++t) {
        if (codes[static_cast<std::size_t>(s)] == codes[static_cast<std::size_t>(t)]) {
          dichotomies.push_back(
              detail::canonical(Dichotomy{StateSet{1} << s, StateSet{1} << t}));
          collision = true;
        }
      }
    }
    if (!collision) {
      return Assignment{std::move(codes), static_cast<int>(parts.size()),
                        std::move(parts), exact, completion_rounds};
    }
    ++completion_rounds;
  }
}

}  // namespace seance::assign
