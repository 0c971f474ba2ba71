#include "minimize/reduce.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>

namespace seance::minimize {

using flowtable::Entry;
using flowtable::FlowTable;
using flowtable::Trit;

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

namespace detail {

// Outputs of two entries conflict iff some bit is 0 in one and 1 in the other.
bool outputs_conflict(const Entry& a, const Entry& b) {
  const std::size_t n = std::min(a.outputs.size(), b.outputs.size());
  for (std::size_t k = 0; k < n; ++k) {
    const Trit ta = a.outputs[k];
    const Trit tb = b.outputs[k];
    if (ta != Trit::kDC && tb != Trit::kDC && ta != tb) return true;
  }
  return false;
}

void validate_output_widths(const FlowTable& table) {
  const std::size_t width = static_cast<std::size_t>(table.num_outputs());
  for (int s = 0; s < table.num_states(); ++s) {
    for (int c = 0; c < table.num_columns(); ++c) {
      const Entry& e = table.entry(s, c);
      if (!e.specified()) continue;
      if (!e.outputs.empty() && e.outputs.size() != width) {
        throw std::invalid_argument(
            "reduce: state " + table.state_name(s) + " column " +
            std::to_string(c) + " has " + std::to_string(e.outputs.size()) +
            " output bits, table declares " + std::to_string(width));
      }
    }
  }
}

// Bron-Kerbosch maximal-clique enumeration over the compatibility graph.
void bron_kerbosch(const std::vector<StateSet>& adj, StateSet r, StateSet p,
                   StateSet x, std::vector<StateSet>& out) {
  if (p == 0 && x == 0) {
    out.push_back(r);
    return;
  }
  // Pivot: vertex of p|x with most neighbours in p.
  int pivot = -1;
  int best = -1;
  for (StateSet s = p | x; s != 0; s &= s - 1) {
    const int v = std::countr_zero(s);
    const int deg = popcount(adj[static_cast<std::size_t>(v)] & p);
    if (deg > best) {
      best = deg;
      pivot = v;
    }
  }
  StateSet candidates = p & ~adj[static_cast<std::size_t>(pivot)];
  while (candidates != 0) {
    const int v = std::countr_zero(candidates);
    const StateSet vbit = StateSet{1} << v;
    candidates &= candidates - 1;
    bron_kerbosch(adj, r | vbit, p & adj[static_cast<std::size_t>(v)],
                  x & adj[static_cast<std::size_t>(v)], out);
    p &= ~vbit;
    x |= vbit;
  }
}

}  // namespace detail

std::vector<StateSet> compatibility_rows(const FlowTable& table) {
  const int n = table.num_states();
  if (n > flowtable::kMaxStates) throw std::invalid_argument("compatible_pairs: too many states");
  const int cols = table.num_columns();
  const StateSet all = (n >= 64) ? ~StateSet{0} : ((StateSet{1} << n) - 1);
  std::vector<StateSet> rows(static_cast<std::size_t>(n), all);

  // Pair index (s < t) -> flat slot.
  const auto pair_index = [n](int s, int t) {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(t);
  };
  std::vector<char> incompatible(static_cast<std::size_t>(n) *
                                     static_cast<std::size_t>(n),
                                 0);
  std::vector<std::size_t> worklist;

  const auto mark = [&](int s, int t) {
    if (t < s) std::swap(s, t);
    auto& flag = incompatible[pair_index(s, t)];
    if (flag) return;
    flag = 1;
    rows[static_cast<std::size_t>(s)] &= ~(StateSet{1} << t);
    rows[static_cast<std::size_t>(t)] &= ~(StateSet{1} << s);
    worklist.push_back(pair_index(s, t));
  };

  // Reverse-implication index: rev[(u,v)] lists the pairs (s,t) whose
  // specified transitions in some column land on {u,v} — the pairs that
  // must be revisited when (u,v) turns incompatible.  Built in one pass;
  // each (pair, column) edge is touched exactly once here and at most
  // once again during propagation, replacing the whole-chart fixpoint
  // sweeps of the reference path.
  std::vector<std::vector<std::uint32_t>> rev(static_cast<std::size_t>(n) *
                                              static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    for (int t = s + 1; t < n; ++t) {
      bool conflict = false;
      for (int c = 0; c < cols && !conflict; ++c) {
        const Entry& es = table.entry(s, c);
        const Entry& et = table.entry(t, c);
        if (es.specified() && et.specified() &&
            detail::outputs_conflict(es, et)) {
          conflict = true;
        }
      }
      if (conflict) {
        mark(s, t);
        continue;  // already incompatible; implications are irrelevant
      }
      for (int c = 0; c < cols; ++c) {
        const Entry& es = table.entry(s, c);
        const Entry& et = table.entry(t, c);
        if (!es.specified() || !et.specified()) continue;
        int u = es.next;
        int v = et.next;
        if (u == v) continue;
        if (v < u) std::swap(u, v);
        if (u == s && v == t) continue;  // self-implication
        rev[pair_index(u, v)].push_back(
            static_cast<std::uint32_t>(pair_index(s, t)));
      }
    }
  }

  while (!worklist.empty()) {
    const std::size_t uv = worklist.back();
    worklist.pop_back();
    for (const std::uint32_t st : rev[uv]) {
      if (incompatible[st]) continue;
      const int s = static_cast<int>(st / static_cast<std::size_t>(n));
      const int t = static_cast<int>(st % static_cast<std::size_t>(n));
      mark(s, t);
    }
  }
  return rows;
}

bool is_compatible_set(const FlowTable& /*table*/,
                       const std::vector<StateSet>& rows, StateSet set) {
  for (StateSet rest = set; rest != 0; rest &= rest - 1) {
    const int s = std::countr_zero(rest);
    if ((set & ~rows[static_cast<std::size_t>(s)]) != 0) return false;
  }
  return true;
}

std::vector<StateSet> maximal_compatibles(const FlowTable& table,
                                          const std::vector<StateSet>& rows) {
  const int n = table.num_states();
  std::vector<StateSet> adj(static_cast<std::size_t>(n), 0);
  for (int s = 0; s < n; ++s) {
    adj[static_cast<std::size_t>(s)] =
        rows[static_cast<std::size_t>(s)] & ~(StateSet{1} << s);
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

std::vector<StateSet> implied_classes(const FlowTable& table, StateSet compatible) {
  std::vector<StateSet> implied;
  for (int c = 0; c < table.num_columns(); ++c) {
    StateSet dest = 0;
    for (StateSet rest = compatible; rest != 0; rest &= rest - 1) {
      const Entry& e = table.entry(std::countr_zero(rest), c);
      if (e.specified()) dest |= StateSet{1} << e.next;
    }
    if (popcount(dest) >= 2 && (dest & ~compatible) != 0) {
      if (std::find(implied.begin(), implied.end(), dest) == implied.end()) {
        implied.push_back(dest);
      }
    }
  }
  return implied;
}

std::vector<PrimeCompatible> prime_compatibles(const FlowTable& table,
                                               const std::vector<StateSet>& rows) {
  const std::vector<StateSet> mcs = maximal_compatibles(table, rows);
  const int n = table.num_states();

  // Every candidate is a nonempty submask of some maximal compatible, and
  // the reference path's level-by-level subset generation visits exactly
  // that family.  Enumerate it directly: walk each MC's submask lattice
  // once into per-size buckets, then sort each bucket and drop the copies
  // that overlapping MCs share.  This removes the duplicated per-level
  // candidate churn — a size-k subset was previously pushed once per
  // parent — which dominated reduce() on collapse-heavy tables.
  std::vector<std::vector<StateSet>> by_size(static_cast<std::size_t>(n) + 1);
  for (const StateSet mc : mcs) {
    for (StateSet sub = mc; sub != 0; sub = (sub - 1) & mc) {
      by_size[static_cast<std::size_t>(popcount(sub))].push_back(sub);
    }
  }
  for (auto& bucket : by_size) {
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
  }

  std::vector<PrimeCompatible> primes;
  std::vector<StateSet> cand_implied;
  for (int size = n; size >= 1; --size) {
    for (const StateSet cand : by_size[static_cast<std::size_t>(size)]) {
      // Grasselli-Luccio exclusion with lazily memoized implied classes:
      // a strict prime superset with *no* obligations excludes `cand`
      // outright, so Γ(cand) is computed only when a containment test
      // actually needs it (and then at most once per candidate).
      bool implied_known = false;
      bool excluded = false;
      for (const PrimeCompatible& p : primes) {
        if ((cand & p.states) != cand || cand == p.states) continue;
        if (!p.implied.empty() && !implied_known) {
          cand_implied = implied_classes(table, cand);
          implied_known = true;
        }
        const bool weaker = std::all_of(
            p.implied.begin(), p.implied.end(), [&](StateSet dp) {
              return std::any_of(cand_implied.begin(), cand_implied.end(),
                                 [&](StateSet dc) { return (dp & ~dc) == 0; });
            });
        if (weaker) {
          excluded = true;
          break;
        }
      }
      if (!excluded) {
        if (!implied_known) cand_implied = implied_classes(table, cand);
        primes.push_back(PrimeCompatible{cand, cand_implied});
      }
    }
  }
  return primes;
}

bool is_closed_cover(const FlowTable& table, const std::vector<StateSet>& classes,
                     std::string* why) {
  StateSet covered = 0;
  for (StateSet c : classes) covered |= c;
  for (int s = 0; s < table.num_states(); ++s) {
    if (!(covered & (StateSet{1} << s))) {
      if (why != nullptr) *why = "state " + table.state_name(s) + " not covered";
      return false;
    }
  }
  for (StateSet c : classes) {
    for (int col = 0; col < table.num_columns(); ++col) {
      StateSet dest = 0;
      for (int s : set_members(c)) {
        const Entry& e = table.entry(s, col);
        if (e.specified()) dest |= StateSet{1} << e.next;
      }
      if (dest == 0) continue;
      const bool contained = std::any_of(classes.begin(), classes.end(),
                                         [&](StateSet k) { return (dest & ~k) == 0; });
      if (!contained) {
        if (why != nullptr) {
          *why = "implied class of column " + std::to_string(col) +
                 " not contained in any chosen class";
        }
        return false;
      }
    }
  }
  return true;
}

namespace {

// Branch-and-bound minimal closed cover over prime compatibles with an
// incremental obligation frontier: the covered-state set and the met/unmet
// flags of every outstanding implied class are maintained on push/pop (a
// trail records which obligations a pushed prime satisfied, so pops undo
// exactly that), so finding the branching obligation is a flag scan
// instead of the reference path's full rescan of the chosen set.  The
// traversal order is bit-for-bit that of ReferenceCoverSearch — the
// equivalence suite pins identical node counts and identical covers.
class CoverSearch {
 public:
  CoverSearch(const FlowTable& table, std::vector<PrimeCompatible> primes,
              std::size_t node_budget, search::TranspositionTable* tt)
      : primes_(std::move(primes)), budget_(node_budget), tt_(tt),
        chosen_mask_((primes_.size() + 63) / 64, 0) {
    const int n = table.num_states();
    all_states_ = (n >= 64) ? ~StateSet{0} : ((StateSet{1} << n) - 1);
    if (tt_ != nullptr) {
      // The chosen-class *set* determines covered_ and the unmet
      // obligation set, so a node signature is the root (prime list +
      // state universe) mixed with a commutative sum of per-index
      // hashes maintained on push/pop.
      std::uint64_t h = search::hash_u64(static_cast<std::uint64_t>(n));
      for (const PrimeCompatible& p : primes_) {
        h = search::hash_mix(h, p.states);
        for (const StateSet d : p.implied) h = search::hash_mix(h, d);
        h = search::hash_mix(h, p.implied.size());
      }
      root_sig_ = h;
    }
  }

  std::vector<StateSet> solve(std::size_t* nodes, bool* exact) {
    greedy();  // incumbent
    recurse();
    if (nodes != nullptr) *nodes = budget_.nodes();
    if (exact != nullptr) *exact = budget_.exact();
    std::vector<StateSet> result;
    result.reserve(best_.size());
    for (std::size_t i : best_) result.push_back(primes_[i].states);
    return result;
  }

 private:
  struct Obligation {
    StateSet states = 0;
    bool met = false;
  };
  struct Frame {
    StateSet prev_covered = 0;
    std::size_t obligation_start = 0;
    std::size_t trail_start = 0;
  };

  [[nodiscard]] bool is_chosen(std::size_t i) const {
    return (chosen_mask_[i >> 6] >> (i & 63)) & 1u;
  }

  void push(std::size_t i) {
    const StateSet states = primes_[i].states;
    frames_.push_back(Frame{covered_, obligations_.size(), trail_.size()});
    covered_ |= states;
    // The new prime may satisfy outstanding obligations; record each flip
    // on the trail so the matching pop un-flips exactly those.
    for (std::size_t o = 0; o < frames_.back().obligation_start; ++o) {
      Obligation& ob = obligations_[o];
      if (!ob.met && (ob.states & ~states) == 0) {
        ob.met = true;
        trail_.push_back(static_cast<std::uint32_t>(o));
      }
    }
    // Its own obligations join the frontier, pre-met if any chosen prime
    // (including itself) already contains them.
    for (const StateSet d : primes_[i].implied) {
      bool met = (d & ~states) == 0;
      for (std::size_t k = 0; k < chosen_.size() && !met; ++k) {
        met = (d & ~primes_[chosen_[k]].states) == 0;
      }
      obligations_.push_back(Obligation{d, met});
    }
    chosen_.push_back(i);
    chosen_mask_[i >> 6] |= std::uint64_t{1} << (i & 63);
    sig_accum_ += search::hash_u64(static_cast<std::uint64_t>(i) + 1);
  }

  void pop() {
    const std::size_t i = chosen_.back();
    chosen_.pop_back();
    chosen_mask_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    sig_accum_ -= search::hash_u64(static_cast<std::uint64_t>(i) + 1);
    const Frame& frame = frames_.back();
    covered_ = frame.prev_covered;
    obligations_.resize(frame.obligation_start);
    while (trail_.size() > frame.trail_start) {
      obligations_[trail_.back()].met = false;
      trail_.pop_back();
    }
    frames_.pop_back();
  }

  // First unmet obligation, in exactly the reference order: the lowest
  // uncovered state (as a singleton), else the first unmet implied class
  // in chosen-then-implied append order.
  std::optional<StateSet> first_unmet() const {
    if (covered_ != all_states_) {
      return StateSet{1} << std::countr_zero(~covered_ & all_states_);
    }
    for (const Obligation& ob : obligations_) {
      if (!ob.met) return ob.states;
    }
    return std::nullopt;
  }

  void greedy() {
    while (auto unmet = first_unmet()) {
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
      push(best_i);
    }
    best_ = chosen_;
    while (!chosen_.empty()) pop();
  }

  void recurse() {
    if (budget_.charge()) return;
    const auto unmet = first_unmet();
    if (chosen_.size() + 1 >= best_.size() && unmet) return;
    if (!unmet) {
      if (chosen_.size() < best_.size()) best_ = chosen_;
      return;
    }
    std::uint64_t sig = 0;
    if (tt_ != nullptr) {
      sig = search::hash_mix(root_sig_, sig_accum_);
      if (const auto lower = tt_->probe(sig);
          lower && chosen_.size() + *lower >= best_.size()) {
        return;
      }
    }
    for (std::size_t i = 0; i < primes_.size(); ++i) {
      if ((*unmet & ~primes_[i].states) != 0) continue;
      if (is_chosen(i)) continue;
      push(i);
      recurse();
      pop();
      if (budget_.exhausted()) break;
    }
    // No completion below here beats the incumbent we leave with.
    if (tt_ != nullptr && !budget_.exhausted()) {
      tt_->store(sig, static_cast<std::uint32_t>(best_.size() - chosen_.size()));
    }
  }

  std::vector<PrimeCompatible> primes_;
  search::NodeBudget budget_;
  search::TranspositionTable* tt_;
  std::uint64_t root_sig_ = 0;
  std::uint64_t sig_accum_ = 0;
  StateSet all_states_ = 0;

  StateSet covered_ = 0;
  std::vector<std::size_t> chosen_;
  std::vector<std::uint64_t> chosen_mask_;
  std::vector<Obligation> obligations_;
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> trail_;

  std::vector<std::size_t> best_;
};

Trit merged_output_bit(const FlowTable& table, StateSet cls, int column, int bit) {
  Trit result = Trit::kDC;
  for (StateSet rest = cls; rest != 0; rest &= rest - 1) {
    const Entry& e = table.entry(std::countr_zero(rest), column);
    if (!e.specified()) continue;
    // Width was validated in reduce(): non-empty vectors carry exactly
    // num_outputs() trits; an empty vector is all-don't-care.
    if (e.outputs.empty()) continue;
    const Trit t = e.outputs[static_cast<std::size_t>(bit)];
    if (t == Trit::kDC) continue;
    if (result != Trit::kDC && result != t) {
      throw std::logic_error("merged_output_bit: incompatible members merged");
    }
    result = t;
  }
  return result;
}

}  // namespace

namespace detail {

ReductionResult build_reduction(const FlowTable& table,
                                std::vector<StateSet> classes) {
  std::sort(classes.begin(), classes.end(), [](StateSet a, StateSet b) {
    const int za = std::countr_zero(a);
    const int zb = std::countr_zero(b);
    if (za != zb) return za < zb;
    // Full-value tiebreak: two overlapping classes can share their lowest
    // member, and an unspecified relative order would let reduced-state
    // numbering (and every downstream byte) vary across stdlib sorts.
    return a < b;
  });

  const int num_classes = static_cast<int>(classes.size());
  FlowTable reduced(table.num_inputs(), table.num_outputs(), num_classes);
  for (int i = 0; i < num_classes; ++i) {
    std::string name = "m";
    for (int s : set_members(classes[static_cast<std::size_t>(i)])) {
      name += "_" + table.state_name(s);
    }
    reduced.set_state_name(i, name);
  }

  for (int i = 0; i < num_classes; ++i) {
    const StateSet cls = classes[static_cast<std::size_t>(i)];
    for (int c = 0; c < table.num_columns(); ++c) {
      StateSet dest = 0;
      for (int s : set_members(cls)) {
        const Entry& e = table.entry(s, c);
        if (e.specified()) dest |= StateSet{1} << e.next;
      }
      if (dest == 0) continue;  // unspecified entry
      // Prefer the class itself (keeps the entry stable), else the first
      // chosen class containing the implied set.
      int next_class = -1;
      if ((dest & ~cls) == 0) {
        next_class = i;
      } else {
        for (int j = 0; j < num_classes; ++j) {
          if ((dest & ~classes[static_cast<std::size_t>(j)]) == 0) {
            next_class = j;
            break;
          }
        }
      }
      if (next_class < 0) throw std::logic_error("reduce: closure violated");
      std::string outputs;
      for (int k = 0; k < table.num_outputs(); ++k) {
        outputs += flowtable::to_char(merged_output_bit(table, cls, c, k));
      }
      reduced.set(i, c, next_class, outputs);
    }
  }
  reduced.normalize_to_normal_mode();

  std::vector<int> state_to_class(static_cast<std::size_t>(table.num_states()), -1);
  for (int s = 0; s < table.num_states(); ++s) {
    for (int j = 0; j < num_classes; ++j) {
      if (classes[static_cast<std::size_t>(j)] & (StateSet{1} << s)) {
        state_to_class[static_cast<std::size_t>(s)] = j;
        break;
      }
    }
  }
  ReductionResult result{FlowTable(1, 0, 1), {}, {}};
  result.reduced = std::move(reduced);
  result.classes = std::move(classes);
  result.state_to_class = std::move(state_to_class);
  return result;
}

}  // namespace detail

ReductionResult reduce(const FlowTable& table, const ReduceOptions& options,
                       search::TranspositionTable* tt) {
  detail::validate_output_widths(table);
  const auto rows = compatibility_rows(table);
  auto primes = prime_compatibles(table, rows);
  CoverSearch search(table, std::move(primes), options.node_budget, tt);
  std::size_t nodes = 0;
  bool exact = true;
  std::vector<StateSet> classes = search.solve(&nodes, &exact);
  ReductionResult result = detail::build_reduction(table, std::move(classes));
  result.cover_nodes = nodes;
  result.cover_exact = exact;
  return result;
}

}  // namespace seance::minimize
