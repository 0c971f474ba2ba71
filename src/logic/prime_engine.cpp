#include "logic/prime_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace seance::logic::prime_engine {

namespace {

// Packed level word: [care:24][popcount(value):6][value:24].  Sorting
// these words groups equal care masks into contiguous runs and, inside a
// run, partitions values into QM weight buckets — the whole level
// structure comes from one std::sort.
constexpr int kCareShift = 30;
constexpr int kWeightShift = 24;
constexpr std::uint64_t kValueMask = (std::uint64_t{1} << kWeightShift) - 1;

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

// The dense regime: when the OFF-set is small relative to the minterm
// space, the implicant lattice of ON∪DC is enormous (near-tautologies
// at 15 variables have ~10^7 implicants) but the *prime count* stays
// modest, so an output-sensitive algorithm wins by orders of magnitude.
// Sharp path: primes = maximal cubes avoiding OFF.  Start from the
// universal cube; for each OFF minterm, split every cube containing it
// into its free-variable fragments (cube minus that point) and absorb
// fragments contained in surviving cubes.  Every prime survives: a
// prime P disagrees with each OFF minterm on some variable that must be
// free in any containing cube, so P stays inside some fragment at every
// step, and whatever finally contains P equals P by maximality.  A
// final single-bit-enlargement test drops the non-maximal stragglers
// one-directional absorption can leave behind.
constexpr std::size_t kSharpOffFactor = 8;  // sharp iff |OFF| <= space/8

struct SharpCube {
  std::uint32_t care;
  std::uint32_t value;
};

struct NoPayload {};

// Open-addressing table over 64-bit keys with an optional per-key
// payload — the inner probe of the absorption index below, so it has to
// beat std::unordered hashing by a wide margin: power-of-two capacity,
// splitmix64-finalizer mix, linear probing, at most half full.  Keys
// stay under 2^48 (care and value are kMaxVars-bit), so all-ones is a
// safe empty sentinel.  erase() shifts the rest of the probe run back
// over the hole instead of leaving a tombstone, so a lookup can still
// stop at the first empty slot.
template <typename Payload>
class FlatTable {
 public:
  void reset(std::size_t expected) {
    std::size_t cap = 64;
    while (cap < expected * 2) cap <<= 1;
    if (cap != slots_.size()) {
      slots_.assign(cap, Slot{});
    } else {
      std::fill(slots_.begin(), slots_.end(), Slot{});
    }
    mask_ = cap - 1;
    count_ = 0;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const std::uint64_t slot = slots_[i].key;
      if (slot == key) return true;
      if (slot == kEmpty) return false;
    }
  }

  /// The key's payload, or nullptr when the key is absent.
  [[nodiscard]] Payload* find(std::uint64_t key) {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].payload;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }

  /// Adds the key if absent.  Returns its payload (value-initialized
  /// when just added) and whether it was added.
  std::pair<Payload*, bool> insert(std::uint64_t key) {
    if ((count_ + 1) * 2 > slots_.size()) grow();
    return insert_key(key);
  }

  [[nodiscard]] std::size_t size() const { return count_; }

  /// True when the key was present.
  bool erase(std::uint64_t key) {
    std::size_t hole = home(key);
    while (slots_[hole].key != key) {
      if (slots_[hole].key == kEmpty) return false;
      hole = (hole + 1) & mask_;
    }
    // A later run member may fill the hole iff its home does not lie
    // cyclically in (hole, j]: then it is still reachable from home.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --count_;
    return true;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t key = kEmpty;
    [[no_unique_address]] Payload payload{};
  };
  static_assert(!std::is_empty_v<Payload> ||
                sizeof(Slot) == sizeof(std::uint64_t));

  [[nodiscard]] std::size_t home(std::uint64_t z) const {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(z ^ (z >> 31)) & mask_;
  }
  std::pair<Payload*, bool> insert_key(std::uint64_t key) {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {&slots_[i].payload, false};
      if (slots_[i].key == kEmpty) {
        slots_[i].key = key;
        ++count_;
        return {&slots_[i].payload, true};
      }
    }
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    count_ = 0;
    for (const Slot& s : old) {
      if (s.key != kEmpty) *insert_key(s.key).first = s.payload;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

// Absorption index over the antichain.  A cube (c, v) absorbs a
// fragment (fc, fv) iff c ⊆ fc and v == fv & c (values never carry bits
// outside care), so the linear antichain sweep, quadratic in the prime
// count on 14+-var high-DC charts, becomes a keyed lookup: an
// absorber's care is *derivable* from the fragment's.  Each candidate
// care is first tested against a bitmap of the live cares, and only a
// live one costs a probe at (care, fv & care).  A fragment whose care
// has no more submasks than there are live cares walks all of them.  A
// wider one walks the submasks at distance 0, 1 and 2, then covers the
// deep tail by scanning the distinct live care masks bucketed at
// popcount <= pc(fc) - 3.
class AbsorbIndex {
 public:
  explicit AbsorbIndex(std::uint32_t full)
      : live_cares_(std::size_t{full} / 64 + 1, 0) {}

  void reset(std::size_t expected) {
    cubes_.reset(expected);
    cares_.reset(expected / 4 + 1);
    for (int p = 0; p <= highest_pc_; ++p) {
      for (const std::uint32_t care : cares_by_pc_[p]) {
        live_cares_[care / 64] &= ~(std::uint64_t{1} << (care % 64));
      }
      cares_by_pc_[p].clear();
    }
    highest_pc_ = 0;
  }

  void insert(const SharpCube& c) {
    if (!cubes_.insert(pack(c.care, c.value)).second) return;
    const auto [ref, added] = cares_.insert(c.care);
    if (added) {
      const int pc = std::popcount(c.care);
      std::vector<std::uint32_t>& bucket =
          cares_by_pc_[static_cast<std::size_t>(pc)];
      ref->pos = static_cast<std::uint32_t>(bucket.size());
      bucket.push_back(c.care);
      highest_pc_ = pc > highest_pc_ ? pc : highest_pc_;
      live_cares_[c.care / 64] |= std::uint64_t{1} << (c.care % 64);
    }
    ++ref->cubes;
  }

  void erase(const SharpCube& c) {
    if (!cubes_.erase(pack(c.care, c.value))) return;
    CareRef* ref = cares_.find(c.care);
    if (--ref->cubes != 0) return;
    // The care's last cube is gone: swap-pop the care out of its bucket
    // so the deep-tail scan never visits a dead care.
    std::vector<std::uint32_t>& bucket =
        cares_by_pc_[static_cast<std::size_t>(std::popcount(c.care))];
    const std::uint32_t moved = bucket.back();
    bucket[ref->pos] = moved;
    cares_.find(moved)->pos = ref->pos;
    bucket.pop_back();
    (void)cares_.erase(c.care);
    live_cares_[c.care / 64] &= ~(std::uint64_t{1} << (c.care % 64));
  }

  [[nodiscard]] bool absorbs(const SharpCube& f) const {
    const int pc = std::popcount(f.care);
    if ((std::size_t{1} << pc) <= cares_.size()) {
      for (std::uint32_t sub = f.care;; sub = (sub - 1) & f.care) {
        if (holds(sub, f.value)) return true;
        if (sub == 0) return false;
      }
    }
    if (holds(f.care, f.value)) return true;
    for (std::uint32_t bits = f.care; bits != 0; bits &= bits - 1) {
      const std::uint32_t b1 = bits & (0u - bits);
      if (holds(f.care ^ b1, f.value)) return true;
      for (std::uint32_t bits2 = bits & (bits - 1); bits2 != 0;
           bits2 &= bits2 - 1) {
        const std::uint32_t b2 = bits2 & (0u - bits2);
        if (holds(f.care ^ b1 ^ b2, f.value)) return true;
      }
    }
    const int top = pc - 3 < highest_pc_ ? pc - 3 : highest_pc_;
    for (int p = 0; p <= top; ++p) {
      for (const std::uint32_t care : cares_by_pc_[static_cast<std::size_t>(p)]) {
        if ((care & ~f.care) != 0) continue;
        if (cubes_.contains(pack(care, f.value & care))) return true;
      }
    }
    return false;
  }

 private:
  /// How many indexed cubes share a care, and where the care sits in
  /// its popcount bucket.
  struct CareRef {
    std::uint32_t cubes = 0;
    std::uint32_t pos = 0;
  };

  static std::uint64_t pack(std::uint32_t care, std::uint32_t value) {
    return (std::uint64_t{care} << 24) | value;
  }

  /// True when an indexed cube has exactly this care and agrees with
  /// `value` on it.
  [[nodiscard]] bool holds(std::uint32_t care, std::uint32_t value) const {
    return ((live_cares_[care / 64] >> (care % 64)) & 1u) != 0 &&
           cubes_.contains(pack(care, value & care));
  }

  FlatTable<NoPayload> cubes_;
  FlatTable<CareRef> cares_;
  std::array<std::vector<std::uint32_t>, kMaxVars + 1> cares_by_pc_;
  std::vector<std::uint64_t> live_cares_;  ///< bitmap over care masks
  int highest_pc_ = 0;
};

std::vector<std::uint64_t> sharp_primes(std::uint32_t full,
                                        const std::vector<std::uint64_t>& seen,
                                        std::size_t space) {
  // Allowed (ON∪DC) bitset and the OFF list.
  std::vector<std::uint64_t> allowed(space / 64 + 1, 0);
  for (std::uint64_t w : seen) {
    const std::uint32_t m = value_of(w);
    allowed[m / 64] |= std::uint64_t{1} << (m % 64);
  }
  std::vector<std::uint32_t> off;
  off.reserve(space - seen.size());
  for (std::uint32_t m = 0; m < space; ++m) {
    if (!((allowed[m / 64] >> (m % 64)) & 1u)) off.push_back(m);
  }

  // Small antichains absorb faster by brute scan than through hashing,
  // so the index only takes over once the linear sweep would hurt.  It
  // is built from scratch only when the antichain reaches the threshold
  // (first time, or again after dropping below); past that it stays
  // live across OFF points, losing each split cube and gaining each
  // accepted fragment, since splits are rare next to survivors.
  constexpr std::size_t kIndexThreshold = 64;
  std::vector<SharpCube> cubes{{0u, 0u}};
  std::vector<SharpCube> next;
  std::vector<SharpCube> fresh;
  AbsorbIndex index(full);
  bool index_live = false;
  for (std::uint32_t o : off) {
    next.clear();
    fresh.clear();
    const bool use_index = cubes.size() >= kIndexThreshold;
    const bool rebuild = use_index && !index_live;
    index_live = use_index;
    if (rebuild) index.reset(cubes.size() * 2);
    for (const SharpCube& c : cubes) {
      if (((o ^ c.value) & c.care) != 0) {
        next.push_back(c);
        if (rebuild) index.insert(c);
        continue;
      }
      if (use_index && !rebuild) index.erase(c);
      // c contains o: the fragments (one free variable fixed opposite
      // to o) cover exactly c minus the point o.
      for (std::uint32_t bits = full & ~c.care; bits != 0; bits &= bits - 1) {
        const std::uint32_t b = bits & (0u - bits);
        fresh.push_back({c.care | b, c.value | (~o & b)});
      }
    }
    // One-directional absorption: a fragment sits inside its parent, so
    // no surviving cube can be inside a fragment — only fragments need
    // testing, against survivors and earlier-accepted fragments.
    // Invariant at every absorbs() call: the live index holds exactly
    // `next` (this round's survivors plus the fragments accepted before
    // this one), the set the linear sweep scans.  No fragment can equal
    // a split cube (it misses o), so the erases above never remove a
    // key the round still needs.  absorbs() is a pure set query, so
    // which fragments are accepted, and in what order, does not depend on
    // whether the index or the sweep answers it.
    for (const SharpCube& f : fresh) {
      bool absorbed = false;
      if (use_index) {
        absorbed = index.absorbs(f);
      } else {
        for (const SharpCube& s : next) {
          if ((s.care & ~f.care) == 0 && ((s.value ^ f.value) & s.care) == 0) {
            absorbed = true;
            break;
          }
        }
      }
      if (!absorbed) {
        next.push_back(f);
        if (use_index) index.insert(f);
      }
    }
    cubes.swap(next);
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
    bool maximal = true;
    for (std::uint32_t bits = c.care; bits != 0 && maximal; bits &= bits - 1) {
      const std::uint32_t b = bits & (0u - bits);
      if (off_free(c.care ^ b, c.value & ~b)) maximal = false;
    }
    if (maximal) primes.push_back(encode(c.care, c.value));
  }
  return primes;
}

// Prime generation: packed level-0 construction, then either the sharp
// path (dense ON∪DC) or the word-parallel level-by-level adjacency
// merge.  Returns the packed (care, value) words of every prime, in
// generation order.
std::vector<std::uint64_t> merge_levels(int num_vars,
                                        std::span<const Minterm> on,
                                        std::span<const Minterm> dc) {
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("prime_engine: num_vars out of range");
  }
  const std::uint32_t full =
      num_vars == 0 ? 0u : (std::uint32_t{1} << num_vars) - 1u;

  std::vector<std::uint64_t> level;
  level.reserve(on.size() + dc.size());
  for (Minterm m : on) level.push_back(encode(full, m & full));
  for (Minterm m : dc) level.push_back(encode(full, m & full));
  std::sort(level.begin(), level.end());
  level.erase(std::unique(level.begin(), level.end()), level.end());

  const std::size_t space = std::size_t{1} << num_vars;
  if (!level.empty() && (space - level.size()) * kSharpOffFactor <= space) {
    return sharp_primes(full, level, space);
  }

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
  return to_canonical_cubes(num_vars, merge_levels(num_vars, on, dc));
}

std::vector<Cube> compute_on_primes(int num_vars,
                                    std::span<const Minterm> on_sorted,
                                    std::span<const Minterm> dc) {
  std::vector<Cube> all =
      to_canonical_cubes(num_vars, merge_levels(num_vars, on_sorted, dc));
  const std::uint32_t full =
      num_vars == 0 ? 0u : (std::uint32_t{1} << num_vars) - 1u;
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
      to_canonical_cubes(num_vars, merge_levels(num_vars, on_sorted, dc));
  const std::uint32_t full =
      num_vars == 0 ? 0u : (std::uint32_t{1} << num_vars) - 1u;
  const RowLookup lookup(num_vars, full, on_sorted);

  // Each prime scatters its own minterm sub-cube (submask walk over the
  // free variables) into rows — never an all-pairs contains() sweep.
  std::vector<Cube> kept;
  std::vector<std::vector<std::uint32_t>> kept_rows;
  std::vector<std::uint32_t> rows;
  for (const Cube& p : all) {
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

}  // namespace seance::logic::prime_engine
