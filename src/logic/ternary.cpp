#include "logic/ternary.hpp"

#include <array>
#include <bit>
#include <span>
#include <vector>

#include "logic/truth_table.hpp"

namespace seance::logic {

Val3 and3(Val3 a, Val3 b) {
  if (a == Val3::k0 || b == Val3::k0) return Val3::k0;
  if (a == Val3::k1 && b == Val3::k1) return Val3::k1;
  return Val3::kX;
}

Val3 or3(Val3 a, Val3 b) {
  if (a == Val3::k1 || b == Val3::k1) return Val3::k1;
  if (a == Val3::k0 && b == Val3::k0) return Val3::k0;
  return Val3::kX;
}

Val3 not3(Val3 a) {
  switch (a) {
    case Val3::k0:
      return Val3::k1;
    case Val3::k1:
      return Val3::k0;
    case Val3::kX:
      return Val3::kX;
  }
  return Val3::kX;
}

Val3 eval3(const Cover& cover, std::span<const Val3> vals) {
  Val3 result = Val3::k0;
  for (const Cube& c : cover.cubes()) {
    Val3 term = Val3::k1;
    for (int i = 0; i < cover.num_vars(); ++i) {
      const std::uint32_t bit = 1u << i;
      if (!(c.care() & bit)) continue;
      const Val3 v = vals[static_cast<std::size_t>(i)];
      term = and3(term, (c.value() & bit) ? v : not3(v));
      if (term == Val3::k0) break;
    }
    result = or3(result, term);
    if (result == Val3::k1) return result;
  }
  return result;
}

Val3 eval3(const ExprPtr& e, std::span<const Val3> vals) {
  switch (e->op()) {
    case Op::kConst:
      return e->const_value() ? Val3::k1 : Val3::k0;
    case Op::kVar:
      return vals[static_cast<std::size_t>(e->var_index())];
    case Op::kNot:
      return not3(eval3(e->kids().front(), vals));
    case Op::kAnd: {
      Val3 v = Val3::k1;
      for (const ExprPtr& k : e->kids()) v = and3(v, eval3(k, vals));
      return v;
    }
    case Op::kOr: {
      Val3 v = Val3::k0;
      for (const ExprPtr& k : e->kids()) v = or3(v, eval3(k, vals));
      return v;
    }
    case Op::kNor: {
      Val3 v = Val3::k0;
      for (const ExprPtr& k : e->kids()) v = or3(v, eval3(k, vals));
      return not3(v);
    }
  }
  return Val3::kX;
}

bool ternary_transition_clean(const Cover& cover, Minterm from, Minterm to) {
  const int n = cover.num_vars();
  std::vector<Val3> vals(static_cast<std::size_t>(n));
  const std::uint32_t diff = from ^ to;
  for (int i = 0; i < n; ++i) {
    const std::uint32_t bit = 1u << i;
    if (diff & bit) {
      vals[static_cast<std::size_t>(i)] = Val3::kX;
    } else {
      vals[static_cast<std::size_t>(i)] = (from & bit) ? Val3::k1 : Val3::k0;
    }
  }
  const Val3 mid = eval3(cover, vals);
  const bool v_from = cover.eval(from);
  const bool v_to = cover.eval(to);
  if (v_from == v_to) {
    // Static transition: determinate ternary value means no glitch.
    if (mid != Val3::kX) return true;
    // A single cube spanning the whole transition sub-cube also suffices
    // for static-1 (and an empty intersection for static-0).
    if (v_from) {
      Cube span(n, ~diff & ((n >= 32) ? ~0u : ((1u << n) - 1u)), from & ~diff);
      return cover.single_cube_contains(span);
    }
    return false;
  }
  // Dynamic transition: accepted when determinate at X (monotone network).
  return mid != Val3::kX;
}

namespace {

/// One "pair covered" bit plane per variable, interleaved by word: bit j
/// of plane b's word w is set iff some cube of the cover contains minterm
/// 64w + j and leaves variable b free, i.e. holds both that minterm and
/// its neighbour across b.  Adding a cube ORs its minterm pattern into
/// the planes of its free variables, a word at a time.
class PairPlanes {
 public:
  explicit PairPlanes(const Cover& cover)
      : n_(cover.num_vars()), planes_(word_count(n_) * static_cast<std::size_t>(n_), 0) {
    for (const Cube& c : cover.cubes()) add(c);
  }

  void add(const Cube& c) {
    const std::uint32_t free = ((1u << n_) - 1u) & ~c.care();
    (void)for_each_cube_word(c, n_, [&](std::uint32_t w, std::uint64_t pattern) {
      std::uint64_t* word = &planes_[std::size_t{w} * static_cast<std::size_t>(n_)];
      for (std::uint32_t f = free; f != 0; f &= f - 1) word[std::countr_zero(f)] |= pattern;
      return true;
    });
  }

  /// Word w of variable b's plane.
  [[nodiscard]] std::uint64_t covered(std::size_t w, int b) const {
    return planes_[w * static_cast<std::size_t>(n_) + static_cast<std::size_t>(b)];
  }

 private:
  int n_;
  std::vector<std::uint64_t> planes_;
};

/// The lower ends m (bit b of m clear) in word w of the ON pairs
/// (m, m | 2^b): a shift inside the word for the six low variables, the
/// partner word w | 2^(b-6) above them.
std::uint64_t adjacent_on(std::span<const std::uint64_t> on, std::size_t w, int b) {
  if (b < 6) return on[w] & ~kLowVar[b] & (on[w] >> (1u << b));
  const std::size_t high = std::size_t{1} << (b - 6);
  return (w & high) != 0 ? 0 : on[w] & on[w | high];
}

}  // namespace

int make_sic_static1_hazard_free(Cover& cover) {
  const int n = cover.num_vars();
  const std::uint32_t full = (1u << n) - 1u;
  // Materialize the exact function once: every added cube is an
  // implicant, so the function never changes.
  const TruthTable on = TruthTable::of(cover, n);
  const std::span<const std::uint64_t> on_words = on.words();
  PairPlanes pairs(cover);
  int added = 0;
  std::array<std::uint64_t, kMaxVars> open{};
  for (std::size_t w = 0; w < on_words.size(); ++w) {
    if (on_words[w] == 0) continue;
    // Each unordered pair once, from its lower end.  Adding a cube only
    // closes pairs, so the pairs open now are a superset of those open
    // when each is visited; each is re-read from the planes then.
    std::uint64_t any = 0;
    for (int b = 0; b < n; ++b) {
      open[b] = adjacent_on(on_words, w, b) & ~pairs.covered(w, b);
      any |= open[b];
    }
    // Minterms ascending, then variables ascending: the order of a scan
    // over every (minterm, variable) pair.
    for (; any != 0; any &= any - 1) {
      const int j = std::countr_zero(any);
      const Minterm m = static_cast<Minterm>(w * 64) + static_cast<Minterm>(j);
      for (int b = 0; b < n; ++b) {
        if (((open[b] & ~pairs.covered(w, b)) >> j & 1u) == 0) continue;
        const std::uint32_t bit = 1u << b;
        Cube pair(n, full & ~bit, m & ~bit);
        // Enlarge the pair cube toward a prime implicant of the function.
        for (int drop = 0; drop < n; ++drop) {
          const std::uint32_t drop_bit = 1u << drop;
          if (!(pair.care() & drop_bit)) continue;
          Cube bigger(n, pair.care() & ~drop_bit, pair.value() & ~drop_bit);
          if (on.contains(bigger)) pair = bigger;
        }
        pairs.add(pair);
        cover.add(pair);
        ++added;
      }
    }
  }
  return added;
}

bool sic_static1_hazard_free(const Cover& cover) {
  const int n = cover.num_vars();
  const TruthTable on = TruthTable::of(cover, n);
  const std::span<const std::uint64_t> on_words = on.words();
  const PairPlanes pairs(cover);
  for (std::size_t w = 0; w < on_words.size(); ++w) {
    if (on_words[w] == 0) continue;
    for (int b = 0; b < n; ++b) {
      // Both endpoints ON: some cube must contain both.
      if ((adjacent_on(on_words, w, b) & ~pairs.covered(w, b)) != 0) return false;
    }
  }
  return true;
}

}  // namespace seance::logic
