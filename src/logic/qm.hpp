// Quine-McCluskey prime-implicant generation and cover selection.
//
// SEANCE (paper §5.2) reduces canonical minterm expressions for Z and SSD
// to "essential SOP" form with Quine-McCluskey, and (paper §5.3, step 7)
// reduces fsv to *all* of its prime implicants so the cover is free of
// logic hazards under single-variable moves.  Both cover styles are
// produced here.  Prime generation runs on the word-parallel engine
// (prime_engine.hpp), which also emits the prime×minterm incidence as a
// packed bitmatrix; cover completion runs on the packed-bitset covering
// engine (cover_engine.hpp): essentials, dominance reduction, exact
// branch and bound, and the greedy fallback all consume that bitmatrix
// directly — no per-(prime, minterm) contains() sweep anywhere.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "logic/cube.hpp"

namespace seance::logic {

/// All prime implicants of the incompletely specified function with the
/// given ON-set and DC-set (minterm lists may be unsorted; duplicates are
/// tolerated).  Primes that cover only DC minterms are retained here and
/// filtered by the cover selectors below.
[[nodiscard]] std::vector<Cube> compute_primes(int num_vars,
                                               std::span<const Minterm> on,
                                               std::span<const Minterm> dc);

struct CoverStats {
  std::size_t prime_count = 0;      ///< primes generated
  std::size_t essential_count = 0;  ///< essential primes found
  /// True when the returned cover is a proven minimum-cardinality cover.
  /// False when the branch-and-bound node budget ran out (the cover is
  /// then the best the search reached, no larger than greedy's) or the
  /// chart exceeded kExactCellLimit and took the greedy completion.
  bool exact = true;
  /// Cubes in the returned cover (the certified upper bound).
  std::size_t cover_size = 0;
  /// Certified lower bound on the minimum cover size: essentials are in
  /// every cover, plus the covering engine's bound on the residual chart
  /// (the deterministic root bound when the search did not prove).  When
  /// `exact`, equals `cover_size`.  `cover_size - lower_bound` is the
  /// certified optimality gap — zero means proven minimum even when the
  /// chart was routed to greedy.
  std::size_t lower_bound = 0;
};

/// Default branch-and-bound node budget for the exact cover completion.
/// The search starts at the greedy cover and keeps only a cover no
/// larger, so a chart the budget stops still returns a cover no worse
/// than greedy (CoverStats::exact = false).  Over budgets from 50'000 to
/// 2'000'000 on the golden and a seed-7 corpus, summed gates and state
/// variables stay flat while the time spent in unproven charts falls
/// with the budget and the lost proofs grow: 200'000 loses 2 of the
/// golden's 1'365 proofs (hardest-20x6-0001's 249x316 chart among them)
/// against 2'000'000, and 50'000 loses 9.  Charts above the cell limit were found still
/// unproven at 100'000'000 nodes, so a stronger per-node bound, not a
/// larger budget, is what proves more charts.
inline constexpr std::size_t kDefaultExactNodeBudget = 200'000;

/// Ceiling on rows*columns of the reduced covering chart for attempting
/// the exact completion; larger charts take the lazy greedy cover.
/// Retuned down from 16'777'216 on the harder 12-state / 5-input corpus,
/// whose ~1M-cell cyclic charts (12-15-var Y equations) never proved at
/// any budget up to 100M nodes, while their truncated searches cost
/// about 3x greedy's time for more gates.  Every chart the corpus ever
/// proved sits well below it (largest observed: ~391k cells, proven by
/// reduction alone).
/// Re-checked after the transposition-table memo landed (a ceiling
/// sweep over harder+hardest jobs): raising the ceiling 4x alone proves
/// nothing new and costs +68% wall; the one chart that does newly prove
/// needs a 4x node budget too, at 5.5x wall.  The ceiling therefore
/// stays fixed, and the certified cover_gap column reports exactly what
/// remains unproven.  The same ceiling decides which USTT searches build
/// Tracey's certificate (assign::detail::tracey_certificate).
inline constexpr std::size_t kExactCellLimit = 524'288;

/// Minimum essential-SOP cover (paper's reduction for Z/SSD/Y): the
/// essential primes plus an exact branch-and-bound completion that
/// expands at most `exact_node_budget` search nodes; on overrun the best
/// cover the search reached is kept, no larger than the greedy one (see
/// CoverStats::exact).  Greedy alone completes a reduced chart of more
/// than kExactCellLimit cells.
[[nodiscard]] Cover select_cover(
    int num_vars, std::span<const Minterm> on, std::span<const Minterm> dc,
    CoverStats* stats = nullptr,
    std::size_t exact_node_budget = kDefaultExactNodeBudget);

/// Every prime implicant that covers at least one ON-set minterm (paper's
/// reduction for fsv, step 7): hazard-free for single-input changes.
[[nodiscard]] Cover all_primes_cover(int num_vars, std::span<const Minterm> on,
                                     std::span<const Minterm> dc);

/// True iff `c` is a prime implicant of the function (c covers only
/// on ∪ dc, and no single-literal enlargement of c still does).
[[nodiscard]] bool is_prime_implicant(const Cube& c, int num_vars,
                                      std::span<const Minterm> on,
                                      std::span<const Minterm> dc);

/// True iff removing any cube from the cover uncovers some ON minterm.
[[nodiscard]] bool is_irredundant(const Cover& cover,
                                  std::span<const Minterm> on);

}  // namespace seance::logic
