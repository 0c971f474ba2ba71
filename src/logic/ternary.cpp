#include "logic/ternary.hpp"

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

/// Per minterm, the union of the free-variable masks of the cover's
/// cubes that contain it.  A cube contains both m and m ^ bit iff it
/// contains m and leaves `bit` free, so the pair lies inside one cube
/// iff `bit` is set in free_bits[m].
class PairCoverage {
 public:
  explicit PairCoverage(const Cover& cover)
      : space_((1u << cover.num_vars()) - 1u), free_bits_(std::size_t{space_} + 1, 0) {
    for (const Cube& c : cover.cubes()) add(c);
  }

  void add(const Cube& c) {
    const std::uint32_t free = space_ & ~c.care();
    std::uint32_t sub = 0;
    while (true) {
      free_bits_[c.value() | sub] |= free;
      if (sub == free) break;
      sub = (sub - free) & free;
    }
  }

  /// True iff one cube contains both m and m ^ bit.
  [[nodiscard]] bool covers_pair(Minterm m, std::uint32_t bit) const {
    return (free_bits_[m] & bit) != 0;
  }

 private:
  std::uint32_t space_;
  std::vector<std::uint32_t> free_bits_;
};

}  // namespace

int make_sic_static1_hazard_free(Cover& cover) {
  const int n = cover.num_vars();
  const std::uint32_t space_size = 1u << n;
  const std::uint32_t full = space_size - 1u;
  // Materialize the exact function once: every added cube is an
  // implicant, so the function never changes.
  const TruthTable on = TruthTable::of(cover, n);
  PairCoverage pairs(cover);
  int added = 0;
  for (Minterm m = 0; m < space_size; ++m) {
    if (!on.test(m)) continue;
    for (int b = 0; b < n; ++b) {
      const std::uint32_t bit = 1u << b;
      // Each unordered pair once, from its lower end.
      if ((m & bit) != 0 || !on.test(m | bit)) continue;
      if (pairs.covers_pair(m, bit)) continue;
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
  return added;
}

bool sic_static1_hazard_free(const Cover& cover) {
  const int n = cover.num_vars();
  const std::uint32_t space_size = 1u << n;
  const TruthTable on = TruthTable::of(cover, n);
  const PairCoverage pairs(cover);
  for (Minterm m = 0; m < space_size; ++m) {
    if (!on.test(m)) continue;
    for (int b = 0; b < n; ++b) {
      const std::uint32_t bit = 1u << b;
      // Both endpoints ON (each unordered pair once): some cube must
      // contain both.
      if ((m & bit) != 0 || !on.test(m | bit)) continue;
      if (!pairs.covers_pair(m, bit)) return false;
    }
  }
  return true;
}

}  // namespace seance::logic
