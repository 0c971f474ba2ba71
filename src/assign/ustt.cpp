#include "assign/ustt.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>

#include "logic/cover_engine.hpp"
#include "logic/qm.hpp"  // kExactCellLimit

namespace seance::assign {

using flowtable::Entry;
using flowtable::FlowTable;

namespace {

// Transition in one input column: the set {source, destination} as a mask
// (a single bit for a stable "parked" state).
struct Transition {
  StateSet states = 0;
};

std::vector<Transition> column_transitions(const FlowTable& table, int column) {
  std::vector<Transition> ts;
  for (int s = 0; s < table.num_states(); ++s) {
    const Entry& e = table.entry(s, column);
    if (!e.specified()) continue;
    ts.push_back(Transition{(StateSet{1} << s) | (StateSet{1} << e.next)});
  }
  return ts;
}

}  // namespace

namespace detail {

bool fits(const Partition& p, const Dichotomy& d, bool flip) {
  const StateSet zeros = flip ? d.b : d.a;
  const StateSet ones = flip ? d.a : d.b;
  return (zeros & p.ones) == 0 && (ones & p.zeros) == 0;
}

Dichotomy canonical(Dichotomy d) {
  if (d.b < d.a) std::swap(d.a, d.b);
  return d;
}

// States that transiently occupy `column` while their inputs are still in
// flight: `s` parks (or is held by fsv) at its own code in every strict
// intermediate column of each of its multiple-input-change transitions.
// Their codes must be separated from the column's transition sub-cubes,
// otherwise a passing transition could momentarily specify a different
// next state at the parked code (the overlap breaks both the USTT race
// freedom and the fsv hold semantics).
std::vector<StateSet> transient_parkers(const FlowTable& table, int column) {
  std::vector<StateSet> parked;
  for (int s = 0; s < table.num_states(); ++s) {
    bool parks_here = false;
    for (const int col_a : table.stable_columns(s)) {
      for (int col_b = 0; col_b < table.num_columns() && !parks_here; ++col_b) {
        if (col_b == col_a || !table.entry(s, col_b).specified()) continue;
        const std::uint32_t diff =
            static_cast<std::uint32_t>(col_a) ^ static_cast<std::uint32_t>(col_b);
        if (std::popcount(diff) <= 1) continue;
        const std::uint32_t between =
            static_cast<std::uint32_t>(col_a) ^ static_cast<std::uint32_t>(column);
        // `column` lies strictly inside the transition sub-cube?
        if (column != col_a && column != col_b && (between & ~diff) == 0) {
          parks_here = true;
        }
      }
      if (parks_here) break;
    }
    if (parks_here) parked.push_back(StateSet{1} << s);
  }
  return parked;
}

std::vector<Dichotomy> raw_dichotomies(const FlowTable& table) {
  std::vector<Dichotomy> dichotomies;
  for (int c = 0; c < table.num_columns(); ++c) {
    std::vector<Transition> ts = column_transitions(table, c);
    for (StateSet parker : transient_parkers(table, c)) {
      ts.push_back(Transition{parker});
    }
    for (std::size_t i = 0; i < ts.size(); ++i) {
      for (std::size_t j = i + 1; j < ts.size(); ++j) {
        if ((ts[i].states & ts[j].states) != 0) continue;  // interacting
        // Two parked states impose only code distinctness, which the
        // unicode completion enforces globally; a genuine transition must be
        // separated from every disjoint transition or parked state.
        if (std::popcount(ts[i].states) == 1 && std::popcount(ts[j].states) == 1) {
          continue;
        }
        dichotomies.push_back(canonical(Dichotomy{ts[i].states, ts[j].states}));
      }
    }
  }
  std::sort(dichotomies.begin(), dichotomies.end(),
            [](const Dichotomy& x, const Dichotomy& y) {
              return std::pair{x.a, x.b} < std::pair{y.a, y.b};
            });
  dichotomies.erase(std::unique(dichotomies.begin(), dichotomies.end()),
                    dichotomies.end());
  return dichotomies;
}

std::vector<std::uint32_t> codes_from_partitions(int num_states,
                                                 const std::vector<Partition>& parts) {
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(num_states), 0);
  for (std::size_t v = 0; v < parts.size(); ++v) {
    for (int s = 0; s < num_states; ++s) {
      if (parts[v].ones & (StateSet{1} << s)) {
        codes[static_cast<std::size_t>(s)] |= 1u << v;
      }
    }
  }
  return codes;
}

}  // namespace detail

bool separates(const Partition& p, const Dichotomy& d) {
  return ((d.a & ~p.zeros) == 0 && (d.b & ~p.ones) == 0) ||
         ((d.a & ~p.ones) == 0 && (d.b & ~p.zeros) == 0);
}

std::vector<Dichotomy> transition_dichotomies(const FlowTable& table) {
  const std::vector<Dichotomy> dichotomies = detail::raw_dichotomies(table);

  // Dominance: drop D2 when some D1 has D2's blocks inside its own blocks
  // (any partition separating D1 then separates D2).  A dominator's total
  // popcount is strictly larger: after canonical dedup, equal-popcount
  // containment forces equality (blocks are disjoint, so the block sizes
  // must match exactly), and swapped equality contradicts the a < b
  // canonical order on both sides.  Bucketing by popcount therefore tests
  // each dichotomy against strictly larger buckets only — and the largest
  // bucket (the bulk: two disjoint 2-state transitions) against nothing,
  // replacing the seed's all-pairs O(D^2) sweep.
  int max_pc = 0;
  std::vector<std::vector<std::uint32_t>> buckets(65);
  for (std::size_t i = 0; i < dichotomies.size(); ++i) {
    const int pc = std::popcount(dichotomies[i].a | dichotomies[i].b);
    buckets[static_cast<std::size_t>(pc)].push_back(static_cast<std::uint32_t>(i));
    max_pc = std::max(max_pc, pc);
  }

  std::vector<Dichotomy> kept;
  kept.reserve(dichotomies.size());
  for (std::size_t i = 0; i < dichotomies.size(); ++i) {
    const Dichotomy& small = dichotomies[i];
    const StateSet small_union = small.a | small.b;
    const int pc = std::popcount(small_union);
    bool dominated = false;
    for (int big_pc = pc + 1; big_pc <= max_pc && !dominated; ++big_pc) {
      for (const std::uint32_t j : buckets[static_cast<std::size_t>(big_pc)]) {
        const Dichotomy& big = dichotomies[j];
        if ((small_union & ~(big.a | big.b)) != 0) continue;
        const bool direct = (small.a & ~big.a) == 0 && (small.b & ~big.b) == 0;
        const bool swapped = (small.a & ~big.b) == 0 && (small.b & ~big.a) == 0;
        if (direct || swapped) {
          dominated = true;
          break;
        }
      }
    }
    if (!dominated) kept.push_back(small);
  }
  return kept;
}

namespace detail {

std::optional<Certificate> tracey_certificate(
    const std::vector<Dichotomy>& dichotomies) {
  if (dichotomies.empty()) return std::nullopt;
  StateSet mentioned = 0;
  for (const Dichotomy& d : dichotomies) mentioned |= d.a | d.b;
  const int n = std::bit_width(mentioned);
  // The highest state always sits on the zero side, so column c is the
  // partition whose one side is the nonempty set c + 1 of lower states:
  // mirror images, which separate the same dichotomies, are dropped.
  const std::size_t columns = (std::size_t{1} << (n - 1)) - 1;
  if (columns > logic::kExactCellLimit / dichotomies.size()) return std::nullopt;
  const StateSet all = (StateSet{1} << n) - 1;
  logic::CoverTable table(dichotomies.size(), columns);
  const auto column_partition = [all](std::size_t c) {
    const StateSet ones = static_cast<StateSet>(c + 1);
    return Partition{all & ~ones, ones};
  };
  for (std::size_t c = 0; c < columns; ++c) {
    const Partition p = column_partition(c);
    for (std::size_t r = 0; r < dichotomies.size(); ++r) {
      if (separates(p, dichotomies[r])) table.set(r, c);
    }
  }
  const logic::MinCoverResult cover =
      logic::solve_min_cover(table, kCertificateNodeBudget);
  Certificate cert{cover.lower_bound, {}};
  if (cover.found) {
    for (const std::size_t c : cover.columns) {
      cert.partitions.push_back(column_partition(c));
    }
  }
  return cert;
}

FitPlanes::FitPlanes(const std::vector<Dichotomy>& dichotomies)
    : count_(dichotomies.size()), words_((count_ + 63) / 64) {
  if (count_ > kMaxSearchDichotomies) {
    // Appended, not `"..." + std::to_string(n)`: g++ 12 at -O3 warns
    // -Wrestrict (a false positive) on operator+(const char*, string&&).
    std::string what = "assign_ustt: ";
    what += std::to_string(count_);
    what += " dichotomies exceed the partition search's fit-plane limit of ";
    what += std::to_string(kMaxSearchDichotomies);
    throw std::length_error(what);
  }
  // Dichotomy j conflicts with one made of m alone at orientation 0 iff
  // some state sits in j.a and m.b or in j.b and m.a, and at orientation 1
  // iff some state sits in the same block of both.  So each row is the
  // complement of an OR of per-state block planes: bit j of
  // in_block[2s + 0] (or + 1) is set iff state s is in block a (or b) of
  // dichotomy j.
  StateSet mentioned = 0;
  for (const Dichotomy& d : dichotomies) mentioned |= d.a | d.b;
  std::vector<std::uint64_t> in_block(2 * std::bit_width(mentioned) * words_, 0);
  const auto block = [&](int s, int side) {
    return in_block.data() + (2 * static_cast<std::size_t>(s) + side) * words_;
  };
  for (std::size_t j = 0; j < count_; ++j) {
    const std::uint64_t bit = std::uint64_t{1} << (j % 64);
    for (StateSet a = dichotomies[j].a; a != 0; a &= a - 1) {
      block(std::countr_zero(a), 0)[j / 64] |= bit;
    }
    for (StateSet b = dichotomies[j].b; b != 0; b &= b - 1) {
      block(std::countr_zero(b), 1)[j / 64] |= bit;
    }
  }
  rows_.assign(2 * count_ * words_, 0);
  for (std::size_t m = 0; m < count_; ++m) {
    std::uint64_t* unflipped = rows_.data() + 2 * m * words_;
    std::uint64_t* flipped = unflipped + words_;
    for (const int side : {0, 1}) {
      // States of m's block a (side 0) clash with the other block of j
      // unflipped and with the same block flipped; block b the reverse.
      for (StateSet states = side == 0 ? dichotomies[m].a : dichotomies[m].b;
           states != 0; states &= states - 1) {
        const int s = std::countr_zero(states);
        const std::uint64_t* other = block(s, 1 - side);
        const std::uint64_t* own = block(s, side);
        for (std::size_t w = 0; w < words_; ++w) {
          unflipped[w] |= other[w];
          flipped[w] |= own[w];
        }
      }
    }
    for (std::size_t w = 0; w < words_; ++w) {
      unflipped[w] = ~unflipped[w];
      flipped[w] = ~flipped[w];
    }
    if (count_ % 64 != 0) {
      const std::uint64_t live = (std::uint64_t{1} << (count_ % 64)) - 1;
      unflipped[words_ - 1] &= live;
      flipped[words_ - 1] &= live;
    }
  }
}

void FitPlanes::open(std::uint64_t* planes, std::size_t m,
                     std::size_t from) const {
  const std::uint64_t* row = rows_.data() + 2 * m * words_;
  for (std::size_t w = from / 64; w < words_; ++w) {
    planes[w] = row[w];
    planes[words_ + w] = row[words_ + w];
  }
}

void FitPlanes::merge(std::uint64_t* planes, std::size_t m, bool flip,
                      std::size_t from) const {
  // Dichotomy j fits m placed at `flip` at orientation o iff it fits m
  // unflipped at o ^ flip.
  const std::uint64_t* row = rows_.data() + 2 * m * words_;
  const std::uint64_t* same = row + (flip ? words_ : 0);
  const std::uint64_t* mirrored = row + (flip ? 0 : words_);
  for (std::size_t w = from / 64; w < words_; ++w) {
    planes[w] &= same[w];
    planes[words_ + w] &= mirrored[w];
  }
}

bool FitPlanes::some_fits_nowhere(const std::uint64_t* planes,
                                  std::size_t num_classes,
                                  std::size_t first) const {
  for (std::size_t w = first / 64; w < words_; ++w) {
    std::uint64_t unplaced = ~std::uint64_t{0};
    if (w == first / 64) unplaced <<= first % 64;
    if (w + 1 == words_ && count_ % 64 != 0) {
      unplaced &= (std::uint64_t{1} << (count_ % 64)) - 1;
    }
    for (std::size_t i = 0; i < num_classes && unplaced != 0; ++i) {
      unplaced &= ~(planes[2 * i * words_ + w] | planes[(2 * i + 1) * words_ + w]);
    }
    if (unplaced != 0) return true;
  }
  return false;
}

}  // namespace detail

namespace {

// Exact minimum "coloring" of dichotomies into mergeable classes, with a
// node budget; each class becomes one state variable.  Supports
// incremental resumption: add() folds new dichotomies into the incumbent
// solution when they fit (an exact incumbent that absorbs them without a
// new class is still exact — the old optimum lower-bounds the enlarged
// problem), and otherwise re-enters the branch and bound warm-started
// from the extended incumbent instead of a cold greedy pass.
// Each search is bounded by Tracey's cover (see ustt.hpp).
class PartitionSearch {
 public:
  PartitionSearch(std::vector<Dichotomy> dichotomies, std::size_t budget,
                  search::TranspositionTable* tt)
      : dichotomies_(std::move(dichotomies)), budget_(budget), tt_(tt) {
    sort_most_constrained();
  }

  // Returns the classes; sets `exact` false if the budget ran out before
  // the incumbent met the certificate's bound (the best of the incumbent
  // and the cover's own solution is returned in that case).
  std::vector<Partition> solve(bool* exact) {
    greedy();
    search_to_bound();
    if (exact != nullptr) *exact = last_exact_;
    return best_;
  }

  // Reads the last branch and bound's node count and truncation.
  friend detail::PartitionResult detail::solve_partitions(
      std::vector<Dichotomy>, std::size_t, search::TranspositionTable*);

  // Folds `fresh` into the constraint set and re-solves incrementally.
  // Must follow a solve() or add() call.
  std::vector<Partition> add(const std::vector<Dichotomy>& fresh, bool* exact) {
    std::vector<Partition> extended = best_;
    bool opened = false;
    for (const Dichotomy& d : fresh) {
      if (!place_first_fit(extended, d)) {
        extended.push_back(Partition{d.a, d.b});
        opened = true;
      }
    }
    dichotomies_.insert(dichotomies_.end(), fresh.begin(), fresh.end());
    best_ = std::move(extended);
    if (!opened && last_exact_) {
      // Same class count as the proven optimum of a sub-problem: optimal.
      if (exact != nullptr) *exact = true;
      return best_;
    }
    sort_most_constrained();
    search_to_bound();  // warm incumbent: only strictly smaller solutions accepted
    if (exact != nullptr) *exact = last_exact_;
    return best_;
  }

 private:
  static void merge(Partition& p, const Dichotomy& d, bool flip) {
    p.zeros |= flip ? d.b : d.a;
    p.ones |= flip ? d.a : d.b;
  }

  // One class's share of a node's memo key.
  static std::uint64_t class_hash(const Partition& p) {
    return search::hash_mix(search::hash_u64(p.zeros), search::hash_u64(p.ones));
  }

  static bool place_first_fit(std::vector<Partition>& classes, const Dichotomy& d) {
    for (Partition& p : classes) {
      for (const bool flip : {false, true}) {
        if (detail::fits(p, d, flip)) {
          merge(p, d, flip);
          return true;
        }
      }
    }
    return false;
  }

  void sort_most_constrained() {
    // Most-constrained-first: larger dichotomies are harder to place.
    // Deliberately no tiebreak — this comparator is pinned by the golden
    // corpus; see tests/data/README.md.
    std::sort(dichotomies_.begin(), dichotomies_.end(),
              [](const Dichotomy& x, const Dichotomy& y) {
                return std::popcount(x.a | x.b) > std::popcount(y.a | y.b);
              });
  }

  void greedy() {
    std::vector<Partition> classes;
    for (const Dichotomy& d : dichotomies_) {
      if (!place_first_fit(classes, d)) classes.push_back(Partition{d.a, d.b});
    }
    best_ = std::move(classes);
  }

  // Certifies the incumbent, or searches until it meets the certificate.
  void search_to_bound() {
    const std::optional<detail::Certificate> cert =
        detail::tracey_certificate(dichotomies_);
    bound_ = cert ? cert->bound : 0;
    if (cert && best_.size() <= bound_) {
      last_exact_ = true;
      return;
    }
    // A leaf larger than the cover's own solution would lose to it below,
    // so the search looks only for leaves no larger.
    const bool covered = cert && !cert->partitions.empty();
    cap_ = covered ? cert->partitions.size() + 1 : kNoCap;
    search();
    if (covered && cert->partitions.size() < best_.size()) {
      best_ = cert->partitions;
    }
    last_exact_ = budget_.exact() || (cert && best_.size() <= bound_);
  }

  // The search has met its budget or the certificate's bound.
  bool stopped() const { return budget_.exhausted() || best_.size() <= bound_; }

  // Class counts from here up can neither beat the incumbent nor the
  // cover's solution.
  std::size_t limit() const { return std::min(best_.size(), cap_); }

  std::uint64_t* class_planes(std::size_t i) {
    return planes_.data() + 2 * i * fit_->words();
  }

  // Copies the words of a class's planes that hold dichotomies `from` on.
  void copy_planes(const std::uint64_t* source, std::uint64_t* target,
                   std::size_t from) const {
    const std::size_t words = fit_->words();
    std::copy(source + from / 64, source + words, target + from / 64);
    std::copy(source + words + from / 64, source + 2 * words,
              target + words + from / 64);
  }

  void search() {
    std::vector<Partition> classes;
    budget_.reset();
    // Rebuilt per search, as the memo keys below.  At most limit()
    // classes are ever open, and each depth saves the planes of the one
    // class it merges into.  A node at index i reads and writes only the
    // words holding dichotomies i on.
    fit_.emplace(dichotomies_);
    const std::size_t plane_words = 2 * fit_->words();
    planes_.assign(limit() * plane_words, 0);
    undo_.assign(dichotomies_.size() * plane_words, 0);
    if (tt_ != nullptr) {
      // Re-rooted per search: add() extends and re-sorts dichotomies_,
      // which changes what an (index, classes) state means.
      std::uint64_t root = search::hash_u64(dichotomies_.size());
      for (const Dichotomy& d : dichotomies_) {
        root = search::hash_mix(root, d.a);
        root = search::hash_mix(root, d.b);
      }
      index_key_.resize(dichotomies_.size());
      for (std::size_t i = 0; i < index_key_.size(); ++i) {
        index_key_[i] = search::hash_mix(root, i);
      }
      class_hash_.clear();
    }
    recurse(0, classes, 0);
  }

  // `class_sum` is the wrapping sum of class_hash over `classes`: the
  // completion cost from here depends on the class *set* and the
  // remaining suffix, not on class order, so the memo key combines the
  // index with this commutative sum.  Each child updates it by the one
  // class it changes, so no node rehashes its classes.
  void recurse(std::size_t index, std::vector<Partition>& classes,
               std::uint64_t class_sum) {
    // Unified accounting (search::NodeBudget convention): the historical
    // pre-increment guard here could never leave nodes_ above budget_,
    // so a truncated search still claimed exact=true.
    if (budget_.charge()) return;
    if (classes.size() >= limit()) return;  // cannot improve
    if (index == dichotomies_.size()) {
      best_ = classes;
      return;
    }
    // Forward check: with no class left to open, a dichotomy that fits no
    // class in either orientation can never be placed below this node.
    if (classes.size() + 1 >= limit() &&
        fit_->some_fits_nowhere(planes_.data(), classes.size(), index)) {
      return;
    }
    std::uint64_t sig = 0;
    if (tt_ != nullptr) {
      sig = search::hash_mix(index_key_[index], class_sum);
      if (const auto lower = tt_->probe(sig);
          lower && classes.size() + *lower >= limit()) {
        return;
      }
    }
    const Dichotomy& d = dichotomies_[index];
    std::uint64_t* const saved_planes =
        undo_.data() + index * 2 * fit_->words();
    bool truncated = false;
    for (std::size_t i = 0; i < classes.size() && !truncated; ++i) {
      std::uint64_t* const planes = class_planes(i);
      for (const bool flip : {false, true}) {
        if (!fit_->fits(planes, index, flip)) continue;
        const Partition saved = classes[i];
        copy_planes(planes, saved_planes, index);
        merge(classes[i], d, flip);
        fit_->merge(planes, index, flip, index);
        std::uint64_t child_sum = 0;
        std::uint64_t saved_hash = 0;
        if (tt_ != nullptr) {
          saved_hash = class_hash_[i];
          class_hash_[i] = class_hash(classes[i]);
          child_sum = class_sum - saved_hash + class_hash_[i];
        }
        recurse(index + 1, classes, child_sum);
        classes[i] = saved;
        copy_planes(saved_planes, planes, index);
        if (tt_ != nullptr) class_hash_[i] = saved_hash;
        if (stopped()) {
          truncated = true;
          break;
        }
      }
    }
    if (!truncated) {
      // Open a new class.
      fit_->open(class_planes(classes.size()), index, index);
      classes.push_back(Partition{d.a, d.b});
      std::uint64_t child_sum = 0;
      if (tt_ != nullptr) {
        class_hash_.push_back(class_hash(classes.back()));
        child_sum = class_sum + class_hash_.back();
      }
      recurse(index + 1, classes, child_sum);
      classes.pop_back();
      if (tt_ != nullptr) class_hash_.pop_back();
    }
    // No completion below here beats the limit we leave with.
    if (tt_ != nullptr && !budget_.exhausted()) {
      tt_->store(sig, static_cast<std::uint32_t>(limit() - classes.size()));
    }
  }

  static constexpr std::size_t kNoCap = static_cast<std::size_t>(-1);

  std::vector<Dichotomy> dichotomies_;
  search::NodeBudget budget_;
  search::TranspositionTable* tt_;
  std::vector<std::uint64_t> index_key_;   ///< hash_mix(root, index)
  std::vector<std::uint64_t> class_hash_;  ///< class_hash of each class
  std::vector<Partition> best_;
  std::size_t bound_ = 0;  ///< the certificate's lower bound (0: none)
  std::size_t cap_ = kNoCap;  ///< the cover's solution size + 1
  bool last_exact_ = true;
  std::optional<detail::FitPlanes> fit_;  ///< this search's pairwise fits
  std::vector<std::uint64_t> planes_;  ///< open class i's planes at 2i words()
  std::vector<std::uint64_t> undo_;    ///< depth i's saved class planes
};

}  // namespace

detail::PartitionResult detail::solve_partitions(
    std::vector<Dichotomy> dichotomies, std::size_t node_budget,
    search::TranspositionTable* tt) {
  PartitionSearch search(std::move(dichotomies), node_budget, tt);
  PartitionResult result;
  result.classes = search.solve(&result.exact);
  result.nodes = search.budget_.nodes();
  result.truncated = search.budget_.exhausted();
  return result;
}

Assignment assign_ustt(const FlowTable& table, const AssignOptions& options,
                       search::TranspositionTable* tt) {
  if (table.num_states() > flowtable::kMaxStates) {
    throw std::invalid_argument("assign_ustt: too many states");
  }
  const int n = table.num_states();
  PartitionSearch search(transition_dichotomies(table), options.node_budget, tt);
  bool exact = true;
  std::vector<Partition> parts = search.solve(&exact);

  for (int round = 0;; ++round) {
    if (round > n * n) {
      throw std::runtime_error("assign_ustt: uniqueness completion did not converge");
    }
    std::vector<std::uint32_t> codes = detail::codes_from_partitions(n, parts);
    // Collect EVERY colliding pair of this round (the seed path added only
    // the first and paid one full re-solve per pair), then resume the
    // search with the whole batch of separation requirements at once.
    std::vector<Dichotomy> fresh;
    for (int s = 0; s < n; ++s) {
      for (int t = s + 1; t < n; ++t) {
        if (codes[static_cast<std::size_t>(s)] == codes[static_cast<std::size_t>(t)]) {
          fresh.push_back(
              detail::canonical(Dichotomy{StateSet{1} << s, StateSet{1} << t}));
        }
      }
    }
    if (fresh.empty()) {
      return Assignment{std::move(codes), static_cast<int>(parts.size()),
                        std::move(parts), exact, round};
    }
    parts = search.add(fresh, &exact);
  }
}

bool verify_ustt(const FlowTable& table, const std::vector<std::uint32_t>& codes,
                 int num_vars, std::string* why) {
  if (static_cast<int>(codes.size()) != table.num_states()) {
    if (why != nullptr) *why = "code vector size mismatch";
    return false;
  }
  for (int s = 0; s < table.num_states(); ++s) {
    for (int t = s + 1; t < table.num_states(); ++t) {
      if (codes[static_cast<std::size_t>(s)] == codes[static_cast<std::size_t>(t)]) {
        if (why != nullptr) {
          *why = "states " + table.state_name(s) + " and " + table.state_name(t) +
                 " share a code";
        }
        return false;
      }
    }
  }
  for (int c = 0; c < table.num_columns(); ++c) {
    std::vector<std::pair<int, int>> ts;  // (src, dst)
    for (int s = 0; s < table.num_states(); ++s) {
      const Entry& e = table.entry(s, c);
      if (e.specified()) ts.emplace_back(s, e.next);
    }
    for (StateSet parker : detail::transient_parkers(table, c)) {
      const int s = std::countr_zero(parker);
      if (!table.entry(s, c).specified()) ts.emplace_back(s, s);
    }
    for (std::size_t i = 0; i < ts.size(); ++i) {
      for (std::size_t j = i + 1; j < ts.size(); ++j) {
        const auto [s1, d1] = ts[i];
        const auto [s2, d2] = ts[j];
        if (s1 == s2 || s1 == d2 || d1 == s2 || d1 == d2) continue;  // interacting
        if (s1 == d1 && s2 == d2) continue;  // two parked states: no race
        bool separated = false;
        for (int v = 0; v < num_vars && !separated; ++v) {
          const auto bit = [&](int s) {
            return (codes[static_cast<std::size_t>(s)] >> v) & 1u;
          };
          separated = bit(s1) == bit(d1) && bit(s2) == bit(d2) && bit(s1) != bit(s2);
        }
        if (!separated) {
          if (why != nullptr) {
            *why = "column " + std::to_string(c) + ": transitions " +
                   table.state_name(s1) + "->" + table.state_name(d1) + " and " +
                   table.state_name(s2) + "->" + table.state_name(d2) +
                   " are not separated";
          }
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace seance::assign
