#include "logic/consensus_reference.hpp"

#include <vector>

namespace seance::logic {

int reference_make_sic_static1_hazard_free(Cover& cover) {
  const int n = cover.num_vars();
  const std::uint32_t space_size = 1u << n;
  // Materialize the exact function once.
  std::vector<char> on(space_size, 0);
  for (Minterm m = 0; m < space_size; ++m) on[m] = cover.eval(m) ? 1 : 0;
  const auto implies = [&](const Cube& c) {
    for (Minterm m : c.minterms()) {
      if (!on[m]) return false;
    }
    return true;
  };
  int added = 0;
  for (Minterm m = 0; m < space_size; ++m) {
    if (!on[m]) continue;
    for (int b = 0; b < n; ++b) {
      const Minterm m2 = m ^ (1u << b);
      if (m2 < m || !on[m2]) continue;
      const std::uint32_t full = (n >= 32) ? ~0u : ((1u << n) - 1u);
      Cube pair(n, full & ~(1u << b), m & ~(1u << b));
      if (cover.single_cube_contains(pair)) continue;
      // Enlarge the pair cube toward a prime implicant of the function.
      for (int drop = 0; drop < n; ++drop) {
        const std::uint32_t bit = 1u << drop;
        if (!(pair.care() & bit)) continue;
        Cube bigger(n, pair.care() & ~bit, pair.value() & ~bit);
        if (implies(bigger)) pair = bigger;
      }
      cover.add(pair);
      ++added;
    }
  }
  return added;
}

bool reference_sic_static1_hazard_free(const Cover& cover) {
  const int n = cover.num_vars();
  const std::uint32_t space_size = 1u << n;
  for (Minterm m = 0; m < space_size; ++m) {
    if (!cover.eval(m)) continue;
    for (int b = 0; b < n; ++b) {
      const Minterm m2 = m ^ (1u << b);
      if (m2 < m) continue;  // each unordered pair once
      if (!cover.eval(m2)) continue;
      // Both endpoints ON: some cube must contain both.
      Cube pair_cube(n, ((n >= 32) ? ~0u : ((1u << n) - 1u)) & ~(1u << b),
                     m & ~(1u << b));
      if (!cover.single_cube_contains(pair_cube)) return false;
    }
  }
  return true;
}

}  // namespace seance::logic
