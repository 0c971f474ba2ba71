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
// units of work: cube visits, one per cube of the list per OFF cube,
// plus the bitset words read while growing the OFF cubes.  Replayed
// over every prime call of the golden corpus, factors 2-256 give the
// same total prime time within noise (factor 1 sends the dense
// 15-variable calls to the level merge, 0.3 s -> 12 s in all); no call
// on which the sharp path is at least twice as fast needs more than 3
// units, and at 64 no call falls back.  Random functions set the
// factor inside that plateau.  Dense ones with scattered OFF points
// (8% ON, 89% DC) need 37 units at 14 variables and 99 at 15, where
// the sharp path is still 2-3x faster, while sparse ones need 300 and
// more, where the level merge wins; a larger factor keeps more of the
// former, a smaller one gives up on the latter sooner.
constexpr std::size_t kSharpWorkFactor = 64;

std::uint32_t full_mask(int num_vars) {
  return num_vars == 0 ? 0u : (std::uint32_t{1} << num_vars) - 1u;
}

void check_num_vars(int num_vars) {
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("prime_engine: num_vars out of range");
  }
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

// Calls visit(word, pattern) for each 64-minterm word of a minterm
// bitset that the cube (care, value) touches, with the pattern of the
// cube's minterms inside that word, until visit returns false.  Returns
// whether every call returned true.  `value` must be 0 on free bits.
template <class Visit>
bool each_cube_word(std::uint32_t full, std::uint32_t care,
                    std::uint32_t value, Visit visit) {
  const std::uint32_t free = full & ~care;
  std::uint64_t pattern = std::uint64_t{1} << (value & 63u);
  for (std::uint32_t low = free & 63u; low != 0; low &= low - 1) {
    pattern |= pattern << (1u << std::countr_zero(low));
  }
  const std::uint32_t highfree = free & ~63u;
  std::uint32_t s = 0;
  do {
    if (!visit(std::size_t{(value | s) >> 6}, pattern)) return false;
    s = (s - highfree) & highfree;
  } while (s != 0);
  return true;
}

// True iff some / every minterm of the cube is set in `bits`.
bool cube_meets(const std::vector<std::uint64_t>& bits, std::uint32_t full,
                std::uint32_t care, std::uint32_t value) {
  return !each_cube_word(full, care, value,
                         [&](std::size_t w, std::uint64_t pattern) {
                           return (bits[w] & pattern) == 0;
                         });
}
bool cube_inside(const std::vector<std::uint64_t>& bits, std::uint32_t full,
                 std::uint32_t care, std::uint32_t value) {
  return each_cube_word(full, care, value,
                        [&](std::size_t w, std::uint64_t pattern) {
                          return (bits[w] & pattern) == pattern;
                        });
}

// Bitset of the minterms in `a` and `b` over 2^num_vars points, with
// one spare word.
std::vector<std::uint64_t> minterm_bits(int num_vars,
                                        std::span<const Minterm> a,
                                        std::span<const Minterm> b = {}) {
  check_num_vars(num_vars);
  const std::uint32_t full = full_mask(num_vars);
  std::vector<std::uint64_t> bits((std::size_t{1} << num_vars) / 64 + 1, 0);
  for (const std::span<const Minterm> minterms : {a, b}) {
    for (Minterm m : minterms) {
      m &= full;
      bits[m / 64] |= std::uint64_t{1} << (m % 64);
    }
  }
  return bits;
}

// Sharp path: primes = maximal cubes avoiding OFF.  Start from the
// universal cube and sharp it against a cover of OFF by all-OFF cubes:
// for each OFF cube O, split every cube c that meets O into its
// fragments, one per bit b of O.care & ~c.care with b fixed opposite to
// O, which together cover exactly c minus O; absorb fragments contained
// in kept cubes.  Every prime survives, whatever the cover: a prime P
// avoids O, so it disagrees with O on some bit b of O.care, and if c
// meets O and contains P then b is free in c (on c.care, c agrees with
// both), so P lies in fragment b.  Whatever finally contains P is an
// implicant and so equals P by maximality; a final
// single-bit-enlargement test drops the non-maximal stragglers that
// one-directional absorption can leave behind.  The prime set is
// therefore the same as sharping against the OFF points one by one.
//
// The cover is built lazily in OFF-point order: each OFF point no
// earlier OFF cube covers grows greedily (ascending bit order) into a
// maximal all-OFF cube just before it is used.  On the Y/fsv equations
// of deep machines that turns about 940 OFF points a call into about
// 95 OFF cubes, each scanned against the cube list once.
//
// With `on_bits`, a fragment that holds no ON minterm is dropped: every
// cube later split from it is inside it and lacks ON too, so the path
// returns exactly the primes that hold an ON minterm, the only ones a
// cover can use.
//
// The path is output-sensitive: near-tautologies (the Y/fsv equations
// of deep machines are >90% don't-care) have ~10^7 implicants at 15
// variables but a modest prime count, and the sharp path wins there by
// orders of magnitude, while on sparse functions the cube list swells
// and the level merge wins.  Which one a call is decides itself by
// measured work: growing an OFF cube adds the bitset words its tests
// read, splitting against it adds the length of the cube list it
// scans, and once the count passes work_cap the path gives up
// (nullopt) and the caller runs the level merge.  The count is
// deterministic, so the path chosen, like the prime set either path
// returns, never depends on timing.  Each scanned cube splits into at
// most num_vars fragments, so the cube list also stays below
// 1 + num_vars * work_cap.
struct SharpCube {
  std::uint32_t care;
  std::uint32_t value;
};

std::optional<std::vector<std::uint64_t>> sharp_prime_words(
    int num_vars, const std::vector<std::uint64_t>& allowed,
    const std::vector<std::uint64_t>* on_bits, std::size_t work_cap) {
  const std::uint32_t full = full_mask(num_vars);
  const std::size_t space = std::size_t{1} << num_vars;
  // OFF points no OFF cube covers yet.  They are read off the clear
  // bits of the allowed (ON∪DC) bitset, so a call that falls back never
  // built a list of up to 2^num_vars OFF points.
  std::vector<std::uint64_t> pending((space + 63) / 64);
  for (std::size_t w = 0; w < pending.size(); ++w) pending[w] = ~allowed[w];
  if (space % 64 != 0) pending.back() &= (std::uint64_t{1} << (space % 64)) - 1;

  // Absorption by distance-1 neighbours.  Every cube kept for the next
  // round (survivors, then accepted fragments) avoids the OFF cube O, so
  // it contains the fragment of a split cube c at bit b iff three things
  // hold: it disagrees with O on exactly one bit of O.care, namely b;
  // its other care bits lie inside c.care; and it agrees with c on them.
  // (On O.care the agreement is automatic, since c agrees with O there;
  // off O.care it is not.)  near[b] holds the kept cube minus bit b for
  // every kept cube at distance exactly {b} from O, so a fragment is
  // absorbed iff some entry of near[b] contains its parent c.  That is
  // the set query "does some kept cube contain the fragment", asked in
  // fragment order, so the antichain evolves exactly as under a sweep
  // over the kept cubes.  Only survivors get entries.  An accepted
  // fragment's entry would be its parent c, which contains a later
  // fragment at the same bit only if that fragment's parent lies inside
  // c; nested cubes keep the smaller one first (a fragment inside a kept
  // cube is never added), so such an entry could never absorb, yet every
  // later fragment at its bit would scan it.
  std::array<std::vector<SharpCube>, kMaxVars> near;
  std::vector<SharpCube> cubes{{0u, 0u}};
  std::vector<SharpCube> split;
  std::size_t work = 0;
  for (std::size_t word = 0; word < pending.size(); ++word) {
    while (pending[word] != 0) {
      search::poll_deadline();
      // Grow the OFF point into a maximal all-OFF cube: freeing bit b
      // keeps O all-OFF iff its mirror image across b is all-OFF.
      std::uint32_t ocare = full;
      std::uint32_t ovalue =
          static_cast<std::uint32_t>(word * 64 + std::countr_zero(pending[word]));
      for (std::uint32_t bits = full; bits != 0; bits &= bits - 1) {
        const std::uint32_t b = bits & (0u - bits);
        const bool all_off = each_cube_word(
            full, ocare, ovalue ^ b, [&](std::size_t w, std::uint64_t pattern) {
              ++work;
              return (allowed[w] & pattern) == 0;
            });
        if (all_off) {
          ocare ^= b;
          ovalue &= ~b;
        }
      }
      each_cube_word(full, ocare, ovalue, [&](std::size_t w, std::uint64_t pattern) {
        pending[w] &= ~pattern;
        return true;
      });

      search::poll_deadline();
      work += cubes.size();
      if (work > work_cap) return std::nullopt;
      split.clear();
      for (int b = 0; b < num_vars; ++b) near[static_cast<std::size_t>(b)].clear();
      std::size_t kept = 0;
      for (const SharpCube c : cubes) {
        const std::uint32_t d = (ovalue ^ c.value) & c.care & ocare;
        if (d == 0) {
          split.push_back(c);
          continue;
        }
        cubes[kept++] = c;
        if ((d & (d - 1)) == 0) {
          near[static_cast<std::size_t>(std::countr_zero(d))].push_back(
              {c.care & ~d, c.value & ~d});
        }
      }
      cubes.resize(kept);
      // A fragment sits inside its parent, so no surviving cube can be
      // inside a fragment; only fragments need testing.
      for (const SharpCube& c : split) {
        for (std::uint32_t bits = ocare & ~c.care; bits != 0; bits &= bits - 1) {
          const std::uint32_t b = bits & (0u - bits);
          const std::vector<SharpCube>& absorbers =
              near[static_cast<std::size_t>(std::countr_zero(b))];
          const bool absorbed =
              std::any_of(absorbers.begin(), absorbers.end(), [&](SharpCube k) {
                return (k.care & ~c.care) == 0 && ((k.value ^ c.value) & k.care) == 0;
              });
          if (absorbed) continue;
          const SharpCube fragment{c.care | b, c.value | (~ovalue & b)};
          if (on_bits != nullptr &&
              !cube_meets(*on_bits, full, fragment.care, fragment.value)) {
            continue;
          }
          cubes.push_back(fragment);
        }
      }
    }
  }

  // Maximality filter: keep a cube only if no single freed literal
  // stays OFF-free.
  std::vector<std::uint64_t> primes;
  primes.reserve(cubes.size());
  for (const SharpCube& c : cubes) {
    search::poll_deadline();
    bool maximal = true;
    for (std::uint32_t bits = c.care; bits != 0 && maximal; bits &= bits - 1) {
      const std::uint32_t b = bits & (0u - bits);
      if (cube_inside(allowed, full, c.care ^ b, c.value & ~b)) maximal = false;
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
  check_num_vars(num_vars);
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
// With `on_only`, only the primes that hold an ON minterm.
std::vector<std::uint64_t> prime_words(int num_vars,
                                       std::span<const Minterm> on,
                                       std::span<const Minterm> dc,
                                       bool on_only) {
  const std::vector<std::uint64_t> allowed = minterm_bits(num_vars, on, dc);
  if (on_only && on.empty()) return {};
  const std::vector<std::uint64_t> on_bits =
      on_only ? minterm_bits(num_vars, on) : std::vector<std::uint64_t>{};
  std::size_t on_dc_count = 0;
  for (std::uint64_t w : allowed) on_dc_count += static_cast<std::size_t>(std::popcount(w));
  if (auto primes = sharp_prime_words(num_vars, allowed,
                                      on_only ? &on_bits : nullptr,
                                      detail::sharp_work_cap(num_vars, on_dc_count))) {
    return *std::move(primes);
  }
  std::vector<std::uint64_t> primes =
      merge_levels(num_vars, minterm_level(num_vars, on, dc));
  if (on_only) {
    const std::uint32_t full = full_mask(num_vars);
    std::erase_if(primes, [&](std::uint64_t w) {
      return !cube_meets(on_bits, full, care_of(w), value_of(w));
    });
  }
  return primes;
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

std::vector<Cube> compute_primes(int num_vars, std::span<const Minterm> on,
                                 std::span<const Minterm> dc) {
  return to_canonical_cubes(num_vars, prime_words(num_vars, on, dc, false));
}

std::vector<Cube> compute_on_primes(int num_vars,
                                    std::span<const Minterm> on_sorted,
                                    std::span<const Minterm> dc) {
  return to_canonical_cubes(num_vars, prime_words(num_vars, on_sorted, dc, true));
}

PrimeIncidence compute_incidence(int num_vars,
                                 std::span<const Minterm> on_sorted,
                                 std::span<const Minterm> dc) {
  check_num_vars(num_vars);
  const std::uint32_t full = full_mask(num_vars);
  for (std::size_t i = 0; i < on_sorted.size(); ++i) {
    if (on_sorted[i] > full || (i > 0 && on_sorted[i] <= on_sorted[i - 1])) {
      throw std::invalid_argument(
          "prime_engine::compute_incidence: ON must be ascending, "
          "duplicate-free and below 2^num_vars");
    }
  }
  std::vector<Cube> primes =
      to_canonical_cubes(num_vars, prime_words(num_vars, on_sorted, dc, true));
  const std::size_t num_primes = primes.size();
  PrimeIncidence out{std::move(primes), CoverTable(on_sorted.size(), num_primes)};

  // ON is ascending, so minterm m's row is its rank among the ON
  // minterms: the ON count of the words below m's, plus the ON bits
  // below m in its own word.
  const std::vector<std::uint64_t> on_bits = minterm_bits(num_vars, on_sorted);
  std::vector<std::uint32_t> rank(on_bits.size(), 0);
  for (std::size_t w = 1; w < on_bits.size(); ++w) {
    rank[w] = rank[w - 1] + static_cast<std::uint32_t>(std::popcount(on_bits[w - 1]));
  }
  // Each prime visits the bitset words its minterms lie in and maps
  // every ON hit to its row.
  for (std::size_t c = 0; c < num_primes; ++c) {
    search::poll_deadline();
    const Cube& p = out.primes[c];
    (void)each_cube_word(full, p.care(), p.value(), [&](std::size_t w, std::uint64_t pattern) {
      for (std::uint64_t hits = on_bits[w] & pattern; hits != 0; hits &= hits - 1) {
        const std::uint64_t below = (std::uint64_t{1} << std::countr_zero(hits)) - 1;
        out.incidence.set(rank[w] + static_cast<std::size_t>(std::popcount(on_bits[w] & below)),
                          c);
      }
      return true;
    });
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
  auto primes = sharp_prime_words(num_vars, minterm_bits(num_vars, on, dc),
                                  nullptr, work_cap);
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
