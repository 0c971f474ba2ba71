#include "logic/qm.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "logic/cover_engine.hpp"
#include "logic/prime_engine.hpp"

namespace seance::logic {

namespace {

std::vector<Minterm> dedup(std::span<const Minterm> v) {
  std::vector<Minterm> out(v.begin(), v.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::vector<Cube> compute_primes(int num_vars, std::span<const Minterm> on,
                                 std::span<const Minterm> dc) {
  return prime_engine::compute_primes(num_vars, on, dc);
}

Cover select_cover(int num_vars, std::span<const Minterm> on,
                   std::span<const Minterm> dc, CoverMode mode,
                   CoverStats* stats, std::size_t exact_node_budget,
                   search::TranspositionTable* tt) {
  const std::vector<Minterm> on_sorted = dedup(on);

  // The all-primes mode (every fsv cover) needs only the filtered prime
  // list — skip the incidence bitmatrix entirely.
  if (mode == CoverMode::kAllPrimes) {
    std::vector<Cube> primes =
        prime_engine::compute_on_primes(num_vars, on_sorted, dc);
    if (stats != nullptr) {
      *stats = CoverStats{};
      stats->prime_count = primes.size();
      // All-primes covers are hazard-driven, not minimized: ub == lb by
      // definition so they never contribute optimality gap.
      stats->cover_size = primes.size();
      stats->lower_bound = primes.size();
    }
    return Cover(num_vars, std::move(primes));
  }

  // Primes restricted to the ON-set plus the prime×minterm incidence,
  // emitted directly as a packed bitmatrix by the word-parallel engine;
  // it drives essential detection, the covered-set accumulation, and the
  // candidate columns handed to the covering engine.
  prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(num_vars, on_sorted, dc);
  std::vector<Cube>& primes = pi.primes;
  const CoverTable& incidence = pi.incidence;

  if (stats != nullptr) {
    *stats = CoverStats{};
    stats->prime_count = primes.size();
  }

  const std::size_t num_minterms = on_sorted.size();
  const std::size_t mwords = incidence.words();
  std::vector<std::uint32_t> cover_count(num_minterms, 0);
  std::vector<std::size_t> sole(num_minterms, 0);
  for (std::size_t p = 0; p < primes.size(); ++p) {
    const std::uint64_t* col = incidence.column(p);
    for (std::size_t w = 0; w < mwords; ++w) {
      std::uint64_t bits = col[w];
      while (bits != 0) {
        const std::size_t m =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        ++cover_count[m];
        sole[m] = p;
      }
    }
  }

  // Essential primes: sole cover of some minterm.
  std::vector<char> selected(primes.size(), 0);
  for (std::size_t m = 0; m < num_minterms; ++m) {
    if (cover_count[m] == 1) selected[sole[m]] = 1;
  }
  std::size_t essential_count = 0;
  std::vector<std::uint64_t> covered(mwords, 0);
  for (std::size_t p = 0; p < primes.size(); ++p) {
    if (!selected[p]) continue;
    ++essential_count;
    const std::uint64_t* col = incidence.column(p);
    for (std::size_t w = 0; w < mwords; ++w) covered[w] |= col[w];
  }
  if (stats != nullptr) stats->essential_count = essential_count;

  // Compress the still-uncovered minterms into dense row indices.
  std::vector<std::uint32_t> row_of(num_minterms, 0);
  std::size_t num_rows = 0;
  for (std::size_t m = 0; m < num_minterms; ++m) {
    if (!((covered[m / 64] >> (m % 64)) & 1u)) {
      row_of[m] = static_cast<std::uint32_t>(num_rows++);
    }
  }

  // Every cover contains the essentials, so they seed both bounds; the
  // residual chart's contribution is filled in below.
  std::size_t residual_lb = 0;

  if (num_rows > 0) {
    // Candidate columns: unselected primes restricted to remaining rows.
    std::vector<std::size_t> cand_ids;
    std::vector<std::vector<std::uint32_t>> cand_rows;
    std::size_t max_gain = 1;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (selected[p]) continue;
      const std::uint64_t* col = incidence.column(p);
      std::vector<std::uint32_t> rows;
      for (std::size_t w = 0; w < mwords; ++w) {
        std::uint64_t bits = col[w] & ~covered[w];
        while (bits != 0) {
          const std::size_t m = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          rows.push_back(row_of[m]);
        }
      }
      if (rows.empty()) continue;
      max_gain = std::max(max_gain, rows.size());
      cand_ids.push_back(p);
      cand_rows.push_back(std::move(rows));
    }
    CoverTable candidates(num_rows, cand_ids.size());
    for (std::size_t c = 0; c < cand_rows.size(); ++c) {
      for (std::uint32_t r : cand_rows[c]) candidates.set(r, c);
    }
    // Root bound for any path that does not prove: each further cube
    // covers at most max_gain of the remaining rows.  Deterministic (no
    // transposition-table input), so reports never depend on warmth.
    residual_lb = (num_rows + max_gain - 1) / max_gain;

    bool solved = false;
    if (mode == CoverMode::kEssentialSop &&
        num_rows * cand_ids.size() <= kExactCellLimit) {
      const MinCoverResult result =
          solve_min_cover(candidates, exact_node_budget, tt);
      residual_lb = std::max(residual_lb, result.lower_bound);
      if (result.found) {
        // A budget overrun with a valid incumbent still uses it — only
        // the exactness claim is dropped (CoverStats::exact = false).
        for (std::size_t c : result.columns) selected[cand_ids[c]] = 1;
        if (stats != nullptr) stats->exact = result.exact;
        solved = true;
      }
    }
    if (!solved) {
      if (stats != nullptr) stats->exact = false;
      const auto greedy = greedy_cover(candidates);
      if (!greedy) {
        throw std::logic_error("select_cover: ON-set not coverable by primes");
      }
      for (std::size_t c : *greedy) selected[cand_ids[c]] = 1;
    }
  }

  std::vector<Cube> chosen;
  for (std::size_t p = 0; p < primes.size(); ++p) {
    if (selected[p]) chosen.push_back(primes[p]);
  }
  if (stats != nullptr) {
    stats->cover_size = chosen.size();
    stats->lower_bound =
        stats->exact ? chosen.size() : essential_count + residual_lb;
  }
  return Cover(num_vars, std::move(chosen));
}

Cover minimize_sop(int num_vars, std::span<const Minterm> on,
                   std::span<const Minterm> dc) {
  return select_cover(num_vars, on, dc, CoverMode::kEssentialSop);
}

Cover all_primes_cover(int num_vars, std::span<const Minterm> on,
                       std::span<const Minterm> dc) {
  return select_cover(num_vars, on, dc, CoverMode::kAllPrimes);
}

bool is_prime_implicant(const Cube& c, int num_vars,
                        std::span<const Minterm> on,
                        std::span<const Minterm> dc) {
  std::vector<char> allowed(1u << num_vars, 0);
  for (Minterm m : on) allowed[m] = 1;
  for (Minterm m : dc) allowed[m] = 1;
  const auto implies = [&](const Cube& cube) {
    for (Minterm m : cube.minterms()) {
      if (!allowed[m]) return false;
    }
    return true;
  };
  if (!implies(c)) return false;
  // Enlarging by dropping any literal must leave the allowed region.
  for (int b = 0; b < num_vars; ++b) {
    const std::uint32_t bit = 1u << b;
    if (!(c.care() & bit)) continue;
    if (implies(Cube(num_vars, c.care() & ~bit, c.value() & ~bit))) return false;
  }
  return true;
}

bool is_irredundant(const Cover& cover, std::span<const Minterm> on) {
  for (std::size_t skip = 0; skip < cover.size(); ++skip) {
    bool some_uncovered = false;
    for (Minterm m : on) {
      bool covered = false;
      for (std::size_t i = 0; i < cover.size(); ++i) {
        if (i != skip && cover.cubes()[i].contains(m)) {
          covered = true;
          break;
        }
      }
      if (!covered && cover.cubes()[skip].contains(m)) {
        some_uncovered = true;
        break;
      }
    }
    if (!some_uncovered) return false;
  }
  return true;
}

}  // namespace seance::logic
