#include "minimize/reduce_reference.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>

namespace seance::minimize {

using flowtable::Entry;
using flowtable::FlowTable;

namespace {

int popcount(StateSet s) { return std::popcount(s); }

std::vector<int> set_members(StateSet s) {
  std::vector<int> members;
  while (s != 0) {
    const int b = std::countr_zero(s);
    members.push_back(b);
    s &= s - 1;
  }
  return members;
}

}  // namespace

std::vector<std::vector<char>> reference_compatible_pairs(const FlowTable& table) {
  const int n = table.num_states();
  if (n > flowtable::kMaxStates) throw std::invalid_argument("compatible_pairs: too many states");
  std::vector<std::vector<char>> compat(static_cast<std::size_t>(n),
                                        std::vector<char>(static_cast<std::size_t>(n), 1));
  // Seed: output conflicts.
  for (int s = 0; s < n; ++s) {
    for (int t = s + 1; t < n; ++t) {
      for (int c = 0; c < table.num_columns(); ++c) {
        const Entry& es = table.entry(s, c);
        const Entry& et = table.entry(t, c);
        if (es.specified() && et.specified() && detail::outputs_conflict(es, et)) {
          compat[s][t] = compat[t][s] = 0;
          break;
        }
      }
    }
  }
  // Fixpoint on implied pairs.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int s = 0; s < n; ++s) {
      for (int t = s + 1; t < n; ++t) {
        if (!compat[s][t]) continue;
        for (int c = 0; c < table.num_columns(); ++c) {
          const Entry& es = table.entry(s, c);
          const Entry& et = table.entry(t, c);
          if (!es.specified() || !et.specified()) continue;
          const int u = es.next;
          const int v = et.next;
          if (u != v && !compat[u][v]) {
            compat[s][t] = compat[t][s] = 0;
            changed = true;
            break;
          }
        }
      }
    }
  }
  return compat;
}

bool reference_is_compatible_set(const FlowTable& /*table*/,
                                 const std::vector<std::vector<char>>& pairs,
                                 StateSet set) {
  const std::vector<int> members = set_members(set);
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (!pairs[static_cast<std::size_t>(members[i])]
                [static_cast<std::size_t>(members[j])]) {
        return false;
      }
    }
  }
  return true;
}

std::vector<StateSet> reference_maximal_compatibles(
    const FlowTable& table, const std::vector<std::vector<char>>& pairs) {
  const int n = table.num_states();
  std::vector<StateSet> adj(static_cast<std::size_t>(n), 0);
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s != t && pairs[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)]) {
        adj[static_cast<std::size_t>(s)] |= StateSet{1} << t;
      }
    }
  }
  std::vector<StateSet> cliques;
  const StateSet all = (n >= 64) ? ~StateSet{0} : ((StateSet{1} << n) - 1);
  detail::bron_kerbosch(adj, 0, all, 0, cliques);
  std::sort(cliques.begin(), cliques.end(), [](StateSet a, StateSet b) {
    if (popcount(a) != popcount(b)) return popcount(a) > popcount(b);
    return a < b;
  });
  return cliques;
}

std::vector<PrimeCompatible> reference_prime_compatibles(
    const FlowTable& table, const std::vector<std::vector<char>>& pairs) {
  const std::vector<StateSet> mcs = reference_maximal_compatibles(table, pairs);
  const int n = table.num_states();

  // Candidates per size, seeded by maximal compatibles.
  std::vector<std::vector<StateSet>> by_size(static_cast<std::size_t>(n) + 1);
  for (StateSet mc : mcs) by_size[static_cast<std::size_t>(popcount(mc))].push_back(mc);

  std::vector<PrimeCompatible> primes;
  // Does `sub` have closure obligations no stronger than those already
  // implied by an accepted prime superset?  (Grasselli-Luccio exclusion,
  // containment form: every implied class of the superset fits inside an
  // implied class of the subset — replacement in any solution stays valid.)
  const auto excluded = [&](StateSet cand, const std::vector<StateSet>& cand_implied) {
    for (const PrimeCompatible& p : primes) {
      if ((cand & p.states) != cand || cand == p.states) continue;  // need strict superset
      const bool weaker = std::all_of(
          p.implied.begin(), p.implied.end(), [&](StateSet dp) {
            return std::any_of(cand_implied.begin(), cand_implied.end(),
                               [&](StateSet dc) { return (dp & ~dc) == 0; });
          });
      if (weaker) return true;
    }
    return false;
  };

  for (int size = n; size >= 1; --size) {
    auto& candidates = by_size[static_cast<std::size_t>(size)];
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    for (StateSet cand : candidates) {
      const std::vector<StateSet> implied = implied_classes(table, cand);
      if (!excluded(cand, implied)) {
        primes.push_back(PrimeCompatible{cand, implied});
      }
      // All (size-1)-subsets become candidates at the next level down,
      // whether or not `cand` itself was prime (standard generation).
      if (size > 1) {
        for (int v : set_members(cand)) {
          by_size[static_cast<std::size_t>(size - 1)].push_back(cand & ~(StateSet{1} << v));
        }
      }
    }
  }
  return primes;
}

namespace {

// Branch-and-bound minimal closed cover over prime compatibles, seed
// shape: first_unmet rescans the chosen set at every call.  Hot-path
// fixes vs the seed: first_unmet is computed once per node (it was
// evaluated twice — once in the bound check, once for branching), and
// chosen-membership is a bitset probe instead of a linear std::find per
// candidate prime.  Neither changes the traversal: node counts are
// pinned by tests.
class ReferenceCoverSearch {
 public:
  ReferenceCoverSearch(const FlowTable& table, std::vector<PrimeCompatible> primes,
                       std::size_t node_budget)
      : table_(table), primes_(std::move(primes)), node_budget_(node_budget),
        chosen_mask_((primes_.size() + 63) / 64, 0) {}

  std::vector<StateSet> solve(std::size_t* nodes, bool* exact) {
    greedy();  // incumbent
    std::vector<std::size_t> chosen;
    recurse(chosen);
    if (nodes != nullptr) *nodes = nodes_;
    if (exact != nullptr) *exact = nodes_ <= node_budget_;
    std::vector<StateSet> result;
    result.reserve(best_.size());
    for (std::size_t i : best_) result.push_back(primes_[i].states);
    return result;
  }

 private:
  // First unmet obligation: an uncovered state (as a singleton set) or an
  // implied class of a chosen prime not contained in any chosen prime.
  std::optional<StateSet> first_unmet(const std::vector<std::size_t>& chosen) const {
    StateSet covered = 0;
    for (std::size_t i : chosen) covered |= primes_[i].states;
    for (int s = 0; s < table_.num_states(); ++s) {
      if (!(covered & (StateSet{1} << s))) return StateSet{1} << s;
    }
    for (std::size_t i : chosen) {
      for (StateSet d : primes_[i].implied) {
        const bool contained =
            std::any_of(chosen.begin(), chosen.end(), [&](std::size_t j) {
              return (d & ~primes_[j].states) == 0;
            });
        if (!contained) return d;
      }
    }
    return std::nullopt;
  }

  void greedy() {
    std::vector<std::size_t> chosen;
    while (auto unmet = first_unmet(chosen)) {
      std::size_t best_i = primes_.size();
      int best_size = -1;
      for (std::size_t i = 0; i < primes_.size(); ++i) {
        if ((*unmet & ~primes_[i].states) != 0) continue;
        // Prefer big classes with few obligations.
        const int score = popcount(primes_[i].states) * 8 -
                          static_cast<int>(primes_[i].implied.size());
        if (score > best_size) {
          best_size = score;
          best_i = i;
        }
      }
      if (best_i == primes_.size()) {
        throw std::logic_error("closed-cover search: obligation unsatisfiable");
      }
      chosen.push_back(best_i);
    }
    best_ = chosen;
  }

  [[nodiscard]] bool is_chosen(std::size_t i) const {
    return (chosen_mask_[i >> 6] >> (i & 63)) & 1u;
  }

  void recurse(std::vector<std::size_t>& chosen) {
    if (++nodes_ > node_budget_) return;
    const auto unmet = first_unmet(chosen);
    if (chosen.size() + 1 >= best_.size() && unmet) return;
    if (!unmet) {
      if (chosen.size() < best_.size()) best_ = chosen;
      return;
    }
    for (std::size_t i = 0; i < primes_.size(); ++i) {
      if ((*unmet & ~primes_[i].states) != 0) continue;
      if (is_chosen(i)) continue;
      chosen.push_back(i);
      chosen_mask_[i >> 6] |= std::uint64_t{1} << (i & 63);
      recurse(chosen);
      chosen.pop_back();
      chosen_mask_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
      if (nodes_ > node_budget_) return;
    }
  }

  const FlowTable& table_;
  std::vector<PrimeCompatible> primes_;
  std::size_t node_budget_;
  std::vector<std::uint64_t> chosen_mask_;
  std::vector<std::size_t> best_;
  std::size_t nodes_ = 0;
};

}  // namespace

ReductionResult reference_reduce(const FlowTable& table, const ReduceOptions& options) {
  detail::validate_output_widths(table);
  const auto pairs = reference_compatible_pairs(table);
  auto primes = reference_prime_compatibles(table, pairs);
  ReferenceCoverSearch search(table, std::move(primes), options.node_budget);
  std::size_t nodes = 0;
  bool exact = true;
  std::vector<StateSet> classes = search.solve(&nodes, &exact);
  ReductionResult result = detail::build_reduction(table, std::move(classes));
  result.cover_nodes = nodes;
  result.cover_exact = exact;
  return result;
}

}  // namespace seance::minimize
