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

#include <span>
#include <vector>

#include "logic/cube.hpp"
#include "search/search.hpp"

namespace seance::logic {

/// All prime implicants of the incompletely specified function with the
/// given ON-set and DC-set (minterm lists may be unsorted; duplicates are
/// tolerated).  Primes that cover only DC minterms are retained here and
/// filtered by the cover selectors below.
[[nodiscard]] std::vector<Cube> compute_primes(int num_vars,
                                               std::span<const Minterm> on,
                                               std::span<const Minterm> dc);

/// Cover-selection policy.
enum class CoverMode {
  /// Essential primes plus an exact branch-and-bound completion —
  /// minimum-cardinality cover (falls back to greedy past a work bound).
  kEssentialSop,
  /// Greedy set-cover completion after essential primes.
  kGreedy,
  /// Every prime implicant that covers at least one ON-set minterm.
  /// Hazard-free for single-input changes (used for fsv, paper step 7).
  kAllPrimes,
};

struct CoverStats {
  std::size_t prime_count = 0;      ///< primes generated
  std::size_t essential_count = 0;  ///< essential primes found
  /// True when the returned cover is a proven minimum-cardinality cover.
  /// False when the branch-and-bound node budget ran out — either with a
  /// valid incumbent (which is returned as-is) or with the greedy
  /// completion engaged.
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
/// Sweep-checked against the harder 12-state / 5-input corpus: every
/// chart under kExactCellLimit proved its minimum within ~2'200 nodes, so
/// 2M is ~1000x headroom; charts above the cell limit stayed unproven even at
/// 100'000'000 nodes, so raising this buys nothing.
inline constexpr std::size_t kDefaultExactNodeBudget = 2'000'000;

/// Ceiling on rows*columns of the reduced covering chart for attempting
/// the exact completion.  Retuned down from 16'777'216 on the harder
/// 12-state / 5-input corpus: its ~1M-cell cyclic charts (12-15-var Y
/// equations) never reached a proof at any budget up to 100M nodes, and
/// the budget-exhausted incumbents were no better than the lazy-greedy
/// completion (total gates 4742 at 2M nodes / 1.7s vs 4683 greedy /
/// 0.6s over 8 harder jobs) — so past this size the exact attempt is
/// pure wall-time loss.  Every chart the corpus ever proved sits well
/// below it (largest observed: ~391k cells, proven by reduction alone).
/// Re-checked after the transposition-table memo landed (a ceiling
/// sweep over harder+hardest jobs): raising the ceiling 4x alone proves
/// nothing new and costs +68% wall; the one chart that does newly prove
/// needs a 4x node budget too, at 5.5x wall.  The ceiling therefore
/// stays fixed, and the certified cover_gap column reports exactly what
/// remains unproven.
inline constexpr std::size_t kExactCellLimit = 524'288;

/// Selects a cover of the ON-set from the function's primes.  The exact
/// completion (kEssentialSop) expands at most `exact_node_budget` search
/// nodes; on overrun the best cover found so far is kept (see
/// CoverStats::exact), and greedy fills in only when no complete cover
/// was reached at all.
///
/// `tt` (optional) memoizes covering-chart subproblem bounds across
/// calls; the caller decides how long entries live (core::synthesize
/// scopes them to one synthesis — see its purity contract).
[[nodiscard]] Cover select_cover(
    int num_vars, std::span<const Minterm> on, std::span<const Minterm> dc,
    CoverMode mode, CoverStats* stats = nullptr,
    std::size_t exact_node_budget = kDefaultExactNodeBudget,
    search::TranspositionTable* tt = nullptr);

/// Convenience: minimum essential-SOP cover (paper's reduction for Z/SSD/Y).
[[nodiscard]] Cover minimize_sop(int num_vars, std::span<const Minterm> on,
                                 std::span<const Minterm> dc);

/// Convenience: all-primes cover (paper's reduction for fsv).
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
