#include "logic/prime_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "search/search.hpp"

namespace seance::logic::prime_engine {

namespace {

// Packed level word: [care:24][popcount(value):6][value:24].  Sorting
// these words groups equal care masks into contiguous runs and, inside a
// run, partitions values into QM weight buckets — the whole level
// structure comes from one std::sort.
constexpr int kCareShift = 30;
constexpr int kWeightShift = 24;
constexpr std::uint64_t kValueMask = (std::uint64_t{1} << kWeightShift) - 1;

// The sharp path gives up past kSharpWorkFactor * |ON∪DC| * num_vars
// cube visits.  Timed on every prime call of the golden corpus, factors
// 48-256 are a plateau of equal total prime time.  The dense
// 15-variable calls set the floor: the sharp path is ~37x faster than
// the level merge on them, yet needs up to 38 * |ON∪DC| * num_vars
// visits, so factor 16 sends them to the level merge.
constexpr std::size_t kSharpWorkFactor = 64;

std::uint32_t full_mask(int num_vars) {
  return num_vars == 0 ? 0u : (std::uint32_t{1} << num_vars) - 1u;
}

std::uint64_t encode(std::uint32_t care, std::uint32_t value) {
  return (static_cast<std::uint64_t>(care) << kCareShift) |
         (static_cast<std::uint64_t>(std::popcount(value)) << kWeightShift) |
         value;
}

std::uint32_t care_of(std::uint64_t w) {
  return static_cast<std::uint32_t>(w >> kCareShift);
}
std::uint32_t weight_of(std::uint64_t w) {
  return static_cast<std::uint32_t>((w >> kWeightShift) & 0x3f);
}
std::uint32_t value_of(std::uint64_t w) {
  return static_cast<std::uint32_t>(w & kValueMask);
}

// Sharp path: primes = maximal cubes avoiding OFF.  Start from the
// universal cube; for each OFF minterm, split every cube containing it
// into its free-variable fragments (cube minus that point) and absorb
// fragments contained in surviving cubes.  Every prime survives: a
// prime P disagrees with each OFF minterm on some variable that must be
// free in any containing cube, so P stays inside some fragment at every
// step, and whatever finally contains P equals P by maximality.  A
// final single-bit-enlargement test drops the non-maximal stragglers
// one-directional absorption can leave behind.
//
// The path is output-sensitive: near-tautologies (the Y/fsv equations
// of deep machines are >90% don't-care) have ~10^7 implicants at 15
// variables but a modest prime count, and the sharp path wins there by
// orders of magnitude, while on sparse functions the cube list swells
// and the level merge wins.  Which one a call is decides itself by
// measured work: every OFF point adds the cube visits of its scan, and
// once the count passes work_cap the path gives up (nullopt) and the
// caller runs the level merge.  The count is deterministic, so the path
// chosen, like the prime set either path returns, never depends on
// timing.  Each scanned cube splits into at most num_vars fragments, so
// the cube list also stays below 1 + num_vars * work_cap.
struct SharpCube {
  std::uint32_t care;
  std::uint32_t value;
};

std::optional<std::vector<std::uint64_t>> sharp_prime_words(
    int num_vars, const std::vector<std::uint64_t>& seen,
    std::size_t work_cap) {
  const std::uint32_t full = full_mask(num_vars);
  const std::size_t space = std::size_t{1} << num_vars;
  // Allowed (ON∪DC) bitset.  The OFF points are read off its clear bits
  // as they are split, so a call that falls back never built a list of
  // up to 2^num_vars OFF points.
  std::vector<std::uint64_t> allowed(space / 64 + 1, 0);
  for (std::uint64_t w : seen) {
    const std::uint32_t m = value_of(w);
    allowed[m / 64] |= std::uint64_t{1} << (m % 64);
  }

  // Absorption by distance-1 neighbours.  Every cube kept for the next
  // round (survivors, then accepted fragments) avoids the OFF point o,
  // so it contains the fragment of a split cube c at free bit b iff it
  // disagrees with o on exactly one care bit, namely b, and its other
  // care bits lie inside c's care (on those it agrees with o, as the
  // fragment does).  near[b] holds that "other care" mask for every kept
  // cube at distance exactly {b} from o, so a fragment is absorbed iff
  // some entry of near[b] is a submask of c.care.  That is the set query
  // "does some kept cube contain the fragment", asked in fragment order,
  // so the antichain evolves exactly as under a sweep over the kept
  // cubes.  Nested cubes keep the smaller one first, so in practice only
  // survivors absorb; the entries of accepted fragments keep the query
  // whole without leaning on that.
  std::array<std::vector<std::uint32_t>, kMaxVars> near;
  std::vector<SharpCube> cubes{{0u, 0u}};
  std::vector<SharpCube> split;
  std::size_t work = 0;
  for (std::size_t word = 0; word * 64 < space; ++word) {
    std::uint64_t off_bits = ~allowed[word];
    if (space - word * 64 < 64) {
      off_bits &= (std::uint64_t{1} << (space - word * 64)) - 1;
    }
    for (; off_bits != 0; off_bits &= off_bits - 1) {
      const auto o =
          static_cast<std::uint32_t>(word * 64 + std::countr_zero(off_bits));
      search::poll_deadline();
      work += cubes.size();
      if (work > work_cap) return std::nullopt;
      split.clear();
      for (int b = 0; b < num_vars; ++b) near[static_cast<std::size_t>(b)].clear();
      std::size_t kept = 0;
      for (const SharpCube c : cubes) {
        const std::uint32_t d = (o ^ c.value) & c.care;
        if (d == 0) {
          split.push_back(c);
          continue;
        }
        cubes[kept++] = c;
        if ((d & (d - 1)) == 0) {
          near[static_cast<std::size_t>(std::countr_zero(d))].push_back(c.care & ~d);
        }
      }
      cubes.resize(kept);
      // c contains o: the fragments (one free variable fixed opposite to
      // o) cover exactly c minus the point o.  A fragment sits inside its
      // parent, so no surviving cube can be inside a fragment; only
      // fragments need testing, against survivors and earlier-accepted
      // fragments.
      for (const SharpCube& c : split) {
        for (std::uint32_t bits = full & ~c.care; bits != 0; bits &= bits - 1) {
          const std::uint32_t b = bits & (0u - bits);
          std::vector<std::uint32_t>& absorbers =
              near[static_cast<std::size_t>(std::countr_zero(b))];
          const bool absorbed =
              std::any_of(absorbers.begin(), absorbers.end(),
                          [&](std::uint32_t rest) { return (rest & ~c.care) == 0; });
          if (absorbed) continue;
          cubes.push_back({c.care | b, c.value | (~o & b)});
          absorbers.push_back(c.care);
        }
      }
    }
  }

  // Maximality filter: keep a cube only if no single freed literal
  // stays OFF-free.  The sub-cube walk tests whole 64-minterm words at
  // a time where the low free variables allow it.
  const auto off_free = [&](std::uint32_t care, std::uint32_t value) {
    const std::uint32_t free = full & ~care;
    const std::uint32_t lowfree = free & 63u;
    const std::uint32_t highfree = free & ~63u;
    std::uint64_t pattern = 0;
    std::uint32_t t = 0;
    do {
      pattern |= std::uint64_t{1} << ((value & 63u) | t);
      t = (t - lowfree) & lowfree;
    } while (t != 0);
    std::uint32_t s = 0;
    do {
      const std::uint64_t w = allowed[(value | s) >> 6];
      if ((w & pattern) != pattern) return false;
      s = (s - highfree) & highfree;
    } while (s != 0);
    return true;
  };
  std::vector<std::uint64_t> primes;
  primes.reserve(cubes.size());
  for (const SharpCube& c : cubes) {
    search::poll_deadline();
    bool maximal = true;
    for (std::uint32_t bits = c.care; bits != 0 && maximal; bits &= bits - 1) {
      const std::uint32_t b = bits & (0u - bits);
      if (off_free(c.care ^ b, c.value & ~b)) maximal = false;
    }
    if (maximal) primes.push_back(encode(c.care, c.value));
  }
  return primes;
}

// Level 0 of the merge: the packed minterm words of ON∪DC, sorted and
// duplicate-free.
std::vector<std::uint64_t> minterm_level(int num_vars,
                                         std::span<const Minterm> on,
                                         std::span<const Minterm> dc) {
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("prime_engine: num_vars out of range");
  }
  const std::uint32_t full = full_mask(num_vars);
  std::vector<std::uint64_t> level;
  level.reserve(on.size() + dc.size());
  for (Minterm m : on) level.push_back(encode(full, m & full));
  for (Minterm m : dc) level.push_back(encode(full, m & full));
  std::sort(level.begin(), level.end());
  level.erase(std::unique(level.begin(), level.end()), level.end());
  return level;
}

// The word-parallel level-by-level adjacency merge, from a minterm
// level.  Returns the packed (care, value) words of every prime, in
// generation order.
std::vector<std::uint64_t> merge_levels(int num_vars,
                                        std::vector<std::uint64_t> level) {
  const std::uint32_t full = full_mask(num_vars);
  const std::size_t space = std::size_t{1} << num_vars;

  // Within-word "position has index bit b clear" patterns, b in [0, 6).
  static constexpr std::uint64_t kBitClear[6] = {
      0x5555555555555555ull, 0x3333333333333333ull, 0x0f0f0f0f0f0f0f0full,
      0x00ff00ff00ff00ffull, 0x0000ffff0000ffffull, 0x00000000ffffffffull};

  std::vector<std::uint64_t> primes;
  std::vector<std::uint64_t> next;
  std::vector<char> combined;
  // Scratch bitsets over the raw value space, for groups dense enough
  // that word-wide pairing beats element scans (lazily allocated).
  const std::size_t vwords = (space + 63) / 64;
  std::vector<std::uint64_t> sbits;  ///< the group's value set
  std::vector<std::uint64_t> cbits;  ///< combined marks
  while (!level.empty()) {
    combined.assign(level.size(), 0);
    next.clear();
    std::size_t group = 0;
    while (group < level.size()) {
      search::poll_deadline();
      const std::uint32_t care = care_of(level[group]);
      std::size_t group_end = group;
      while (group_end < level.size() && care_of(level[group_end]) == care) {
        ++group_end;
      }
      // Emit-once: a merged cube with free set F arises from |F| parent
      // groups (one per dropped bit); emitting it only when the dropped
      // bit is F's lowest keeps `next` duplicate-free by construction.
      // Pairs must still be *examined* for every bit — combination marks
      // survivors — only the push is gated.
      const std::uint32_t group_free = full & ~care;
      const std::uint32_t emit_below =
          group_free != 0 ? (group_free & (0u - group_free)) : ~0u;

      if ((group_end - group) * 4 >= vwords) {
        // Dense group: project the values onto a bitset and pair all 64
        // positions of a word at once — candidates with bit b clear AND
        // a partner at value|b reduce to S & (S >> 2^b) under a block
        // mask.  Chosen only when the member count is at least the word
        // count, so the bitset build/clear never dominates.
        if (sbits.empty()) {
          sbits.assign(vwords, 0);
          cbits.assign(vwords, 0);
        }
        for (std::size_t i = group; i < group_end; ++i) {
          const std::uint32_t v = value_of(level[i]);
          sbits[v / 64] |= std::uint64_t{1} << (v % 64);
        }
        for (std::uint32_t bits = care; bits != 0; bits &= bits - 1) {
          const std::uint32_t bit = bits & (0u - bits);
          const int b = std::countr_zero(bit);
          const bool emit = bit < emit_below;
          if (b >= 6) {
            // Partner lives exactly 2^(b-6) words ahead; block index
            // parity of the word says whether position bit b is clear.
            const std::size_t wd = std::size_t{1} << (b - 6);
            for (std::size_t w = 0; w < vwords; ++w) {
              if ((w >> (b - 6)) & 1u) continue;
              const std::uint64_t pairs = sbits[w] & sbits[w + wd];
              if (pairs == 0) continue;
              cbits[w] |= pairs;
              cbits[w + wd] |= pairs;
              if (!emit) continue;
              std::uint64_t p = pairs;
              while (p != 0) {
                const std::uint32_t v = static_cast<std::uint32_t>(
                    w * 64 + static_cast<std::size_t>(std::countr_zero(p)));
                p &= p - 1;
                next.push_back(encode(care ^ bit, v));
              }
            }
          } else {
            // Partner is 2^b positions ahead inside the same word.
            const int shift = 1 << b;
            const std::uint64_t clear_mask = kBitClear[b];
            for (std::size_t w = 0; w < vwords; ++w) {
              const std::uint64_t pairs =
                  sbits[w] & clear_mask & (sbits[w] >> shift);
              if (pairs == 0) continue;
              cbits[w] |= pairs | (pairs << shift);
              if (!emit) continue;
              std::uint64_t p = pairs;
              while (p != 0) {
                const std::uint32_t v = static_cast<std::uint32_t>(
                    w * 64 + static_cast<std::size_t>(std::countr_zero(p)));
                p &= p - 1;
                next.push_back(encode(care ^ bit, v));
              }
            }
          }
        }
        for (std::size_t i = group; i < group_end; ++i) {
          const std::uint32_t v = value_of(level[i]);
          combined[i] =
              static_cast<char>((cbits[v / 64] >> (v % 64)) & 1u);
        }
        std::fill(sbits.begin(), sbits.end(), 0);
        std::fill(cbits.begin(), cbits.end(), 0);
        group = group_end;
        continue;
      }

      // Sparse group: cubes with identical care combine only across
      // adjacent weight buckets, so pairing is a two-pointer scan over
      // each (bucket, bucket+1) run per care bit — values with `bit`
      // clear (low bucket) and values with `bit` set viewed as
      // value^bit (high bucket) are both sorted subsequences.
      std::size_t lo = group;
      while (lo < group_end) {
        const std::uint32_t w = weight_of(level[lo]);
        std::size_t lo_end = lo;
        while (lo_end < group_end && weight_of(level[lo_end]) == w) ++lo_end;
        if (lo_end < group_end && weight_of(level[lo_end]) == w + 1) {
          std::size_t hi_end = lo_end;
          while (hi_end < group_end && weight_of(level[hi_end]) == w + 1) {
            ++hi_end;
          }
          for (std::uint32_t bits = care; bits != 0; bits &= bits - 1) {
            const std::uint32_t bit = bits & (0u - bits);
            std::size_t i = lo;
            std::size_t j = lo_end;
            while (true) {
              while (i < lo_end && (value_of(level[i]) & bit) != 0) ++i;
              while (j < hi_end && (value_of(level[j]) & bit) == 0) ++j;
              if (i >= lo_end || j >= hi_end) break;
              const std::uint32_t a = value_of(level[i]);
              const std::uint32_t b = value_of(level[j]) ^ bit;
              if (a < b) {
                ++i;
              } else if (a > b) {
                ++j;
              } else {
                combined[i] = 1;
                combined[j] = 1;
                if (bit < emit_below) next.push_back(encode(care ^ bit, a));
                ++i;
                ++j;
              }
            }
          }
        }
        lo = lo_end;
      }
      group = group_end;
    }
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (!combined[i]) primes.push_back(level[i]);
    }
    // Emit-once keeps `next` duplicate-free; sorting restores the
    // care-run / weight-bucket level structure.
    std::sort(next.begin(), next.end());
    level.swap(next);
  }
  return primes;
}

// Every prime, packed, in generation order: the sharp path under the
// production work cap, the level merge once the sharp path passes it.
std::vector<std::uint64_t> prime_words(int num_vars,
                                       std::span<const Minterm> on,
                                       std::span<const Minterm> dc) {
  std::vector<std::uint64_t> level = minterm_level(num_vars, on, dc);
  if (auto primes = sharp_prime_words(
          num_vars, level, detail::sharp_work_cap(num_vars, level.size()))) {
    return *std::move(primes);
  }
  return merge_levels(num_vars, std::move(level));
}

std::vector<Cube> to_canonical_cubes(int num_vars,
                                     std::vector<std::uint64_t> keys) {
  // Canonical order: fewest literals first, then Cube::key — the
  // historical compute_primes contract, shared with the reference
  // generator so downstream covers pick identical cubes.  One packed
  // word per prime, [popcount(care)][care:24][value:24], sorts in that
  // order with plain <, since Cube::key orders by care, then value.
  for (std::uint64_t& w : keys) {
    const std::uint32_t care = care_of(w);
    w = (static_cast<std::uint64_t>(std::popcount(care)) << 48) |
        (static_cast<std::uint64_t>(care) << 24) | value_of(w);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<Cube> out;
  out.reserve(keys.size());
  for (std::uint64_t w : keys) {
    out.emplace_back(num_vars, static_cast<std::uint32_t>(w >> 24) & kValueMask,
                     value_of(w));
  }
  return out;
}

}  // namespace

namespace {

// Minterm -> incidence row probe over the caller's sorted ON list: a
// flat table while the minterm space is cheap (<= 2^20 entries), binary
// search past that.
class RowLookup {
 public:
  RowLookup(int num_vars, std::uint32_t full, std::span<const Minterm> on_sorted)
      : on_(on_sorted), flat_(num_vars <= 20) {
    if (flat_) {
      row_flat_.assign(std::size_t{1} << num_vars, -1);
      for (std::size_t i = 0; i < on_.size(); ++i) {
        row_flat_[on_[i] & full] = static_cast<std::int32_t>(i);
      }
    }
  }

  [[nodiscard]] std::int32_t row_of(Minterm m) const {
    if (flat_) return row_flat_[m];
    const auto it = std::lower_bound(on_.begin(), on_.end(), m);
    if (it == on_.end() || *it != m) return -1;
    return static_cast<std::int32_t>(it - on_.begin());
  }

 private:
  std::span<const Minterm> on_;
  bool flat_;
  std::vector<std::int32_t> row_flat_;
};

}  // namespace

std::vector<Cube> compute_primes(int num_vars, std::span<const Minterm> on,
                                 std::span<const Minterm> dc) {
  return to_canonical_cubes(num_vars, prime_words(num_vars, on, dc));
}

std::vector<Cube> compute_on_primes(int num_vars,
                                    std::span<const Minterm> on_sorted,
                                    std::span<const Minterm> dc) {
  std::vector<Cube> all =
      to_canonical_cubes(num_vars, prime_words(num_vars, on_sorted, dc));
  const std::uint32_t full = full_mask(num_vars);
  const RowLookup lookup(num_vars, full, on_sorted);
  // Keep a prime as soon as its sub-cube walk hits one ON minterm — no
  // row collection, no incidence table.
  std::erase_if(all, [&](const Cube& p) {
    const std::uint32_t free = full & ~p.care();
    std::uint32_t s = 0;
    do {
      if (lookup.row_of(p.value() | s) >= 0) return false;
      s = (s - free) & free;
    } while (s != 0);
    return true;  // covers only DC minterms
  });
  return all;
}

PrimeIncidence compute_incidence(int num_vars,
                                 std::span<const Minterm> on_sorted,
                                 std::span<const Minterm> dc) {
  const std::vector<Cube> all =
      to_canonical_cubes(num_vars, prime_words(num_vars, on_sorted, dc));
  const std::uint32_t full = full_mask(num_vars);
  const RowLookup lookup(num_vars, full, on_sorted);

  // Each prime scatters its own minterm sub-cube (submask walk over the
  // free variables) into rows — never an all-pairs contains() sweep.
  std::vector<Cube> kept;
  std::vector<std::vector<std::uint32_t>> kept_rows;
  std::vector<std::uint32_t> rows;
  for (const Cube& p : all) {
    search::poll_deadline();
    rows.clear();
    const std::uint32_t free = full & ~p.care();
    std::uint32_t s = 0;
    do {
      const std::int32_t r = lookup.row_of(p.value() | s);
      if (r >= 0) rows.push_back(static_cast<std::uint32_t>(r));
      s = (s - free) & free;
    } while (s != 0);
    if (rows.empty()) continue;  // covers only DC minterms
    kept.push_back(p);
    kept_rows.push_back(rows);
  }

  PrimeIncidence out{std::move(kept),
                     CoverTable(on_sorted.size(), kept_rows.size())};
  for (std::size_t c = 0; c < kept_rows.size(); ++c) {
    for (std::uint32_t r : kept_rows[c]) out.incidence.set(r, c);
  }
  return out;
}

namespace detail {

std::size_t sharp_work_cap(int num_vars, std::size_t on_dc_count) {
  return kSharpWorkFactor * on_dc_count *
         static_cast<std::size_t>(std::max(num_vars, 1));
}

std::optional<std::vector<Cube>> sharp_primes(int num_vars,
                                              std::span<const Minterm> on,
                                              std::span<const Minterm> dc,
                                              std::size_t work_cap) {
  auto primes =
      sharp_prime_words(num_vars, minterm_level(num_vars, on, dc), work_cap);
  if (!primes) return std::nullopt;
  return to_canonical_cubes(num_vars, *std::move(primes));
}

std::vector<Cube> level_primes(int num_vars, std::span<const Minterm> on,
                               std::span<const Minterm> dc) {
  return to_canonical_cubes(num_vars,
                            merge_levels(num_vars, minterm_level(num_vars, on, dc)));
}

}  // namespace detail

}  // namespace seance::logic::prime_engine
