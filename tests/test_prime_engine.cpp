// Differential and regression suite for the word-parallel prime engine.
// compute_primes tries the sharp path first and counts its work (each
// OFF cube adds the bitset words read while growing it and the size of
// the cube list it scans); past 64 * |ON∪DC| * num_vars it gives up and
// the level merge runs instead.  Which path a random function takes is
// therefore a property of its shape, so every case runs through both
// paths on their own (prime_engine::detail, the sharp path uncapped) as
// well as through compute_primes, each against the retained hash-map
// oracle (reference_compute_primes) over random functions at 4-14
// variables, and the ON-rooted entry points against that oracle
// restricted to ON.  At 13-15 variables, with OFF a union of random
// subcubes, the two paths check each other.  Regressions pin the
// fallback itself, the deadline checkpoints, the canonical prime order,
// and incidence bitmatrix correctness against brute-force
// Cube::contains, from one partial bitset word (0-6 variables) up to
// sparse functions at 21-24 variables, and the ON precondition of
// compute_incidence.

#include "logic/prime_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "logic/qm.hpp"
#include "logic/qm_reference.hpp"
#include "search/search.hpp"
#include "testutil.hpp"

namespace seance::logic {
namespace {

using testutil::random_function;

struct DiffCase {
  int num_vars;
  double p_on;
  double p_dc;
  std::uint64_t seed;
  int off_cubes = 0;        ///< see make_function
  bool whole_space = false;  ///< see make_function
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.num_vars << "v on=" << c.p_on << " dc=" << c.p_dc
      << " seed=" << c.seed;
  if (c.off_cubes != 0) *os << " off_cubes=" << c.off_cubes;
  if (c.whole_space) *os << " whole_space";
}

// A set of `count` random subcubes of the space below `span` (a power
// of two), each with between min_free and max_free free variables.
std::vector<char> random_subcubes(Minterm span, int num_vars, int count,
                                  int min_free, int max_free,
                                  std::mt19937_64& rng) {
  std::vector<char> in(span, 0);
  for (int c = 0; c < count; ++c) {
    const int want =
        min_free == max_free
            ? min_free
            : min_free + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                                      max_free - min_free + 1));
    Minterm free = 0;
    while (std::popcount(free) < want) {
      free |= Minterm{1} << (rng() % static_cast<std::uint64_t>(num_vars));
    }
    const Minterm base = static_cast<Minterm>(rng()) & (span - 1) & ~free;
    Minterm s = 0;
    do {
      in[base | s] = 1;
      s = (s - free) & free;
    } while (s != 0);
  }
  return in;
}

// The random function, reshaped when `off_cubes` > 0 so that its OFF
// set is a union of random subcubes, the shape of the Y/fsv equations.
// The sharp path grows each OFF point that no earlier OFF cube covers
// into a maximal all-OFF cube, in ascending point order, and splits the
// cube list against it.
// - Low half (whole_space false): the low half of the space (top
//   variable 0) is OFF on exactly `off_cubes` random 5-variable subcubes
//   and DC everywhere else, and the high half keeps the random
//   function.  The first OFF cubes are unions of those subcubes: they
//   swell the cube list and then collapse it, and the scattered OFF
//   points of the high half grow it into the thousands afterwards.
// - Whole space (whole_space true): OFF is `off_cubes` random subcubes
//   of 1-5 free variables anywhere, ON is each other point with
//   probability p_on, and the rest is DC.  Overlapping subcubes give
//   OFF cubes whose care bits cut across the cubes they split, the case
//   where absorption must also check agreement off the OFF cube's care.
// A fragment's absorbers are the kept cubes at distance one from the
// OFF cube: survivors of the round, and the fragments accepted earlier
// in it.  The cube list keeps nested cubes smaller first, so an earlier
// fragment is scanned but never absorbs; the last low-half cases of
// diff_cases() pin both sides of that.
testutil::RandomFunction make_function(const DiffCase& p) {
  if (p.whole_space) {
    const Minterm space = Minterm{1} << p.num_vars;
    std::mt19937_64 rng(p.seed);
    const std::vector<char> off =
        random_subcubes(space, p.num_vars, p.off_cubes, 1, 5, rng);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    testutil::RandomFunction f;
    for (Minterm m = 0; m < space; ++m) {
      if (off[m]) {
        f.off.push_back(m);
      } else {
        (dist(rng) < p.p_on ? f.on : f.dc).push_back(m);
      }
    }
    return f;
  }
  testutil::RandomFunction f =
      random_function(p.num_vars, p.p_on, p.p_dc, p.seed);
  if (p.off_cubes == 0) return f;
  const Minterm half = Minterm{1} << (p.num_vars - 1);
  std::mt19937_64 rng(p.seed + 1);
  const std::vector<char> off =
      random_subcubes(half, p.num_vars - 1, p.off_cubes, 5, 5, rng);
  const auto in_low_half = [&](Minterm m) { return m < half; };
  std::erase_if(f.on, in_low_half);
  std::erase_if(f.dc, in_low_half);
  std::erase_if(f.off, in_low_half);
  std::vector<Minterm> low_dc;
  std::vector<Minterm> low_off;
  for (Minterm m = 0; m < half; ++m) (off[m] ? low_off : low_dc).push_back(m);
  f.dc.insert(f.dc.begin(), low_dc.begin(), low_dc.end());
  f.off.insert(f.off.begin(), low_off.begin(), low_off.end());
  return f;
}

// The primes that hold a minterm of `on`, order kept.
std::vector<Cube> restrict_to_on(std::vector<Cube> primes, int num_vars,
                                 const std::vector<Minterm>& on) {
  std::vector<char> is_on(std::size_t{1} << num_vars, 0);
  for (Minterm m : on) is_on[m] = 1;
  const Minterm full = (Minterm{1} << num_vars) - 1;
  std::erase_if(primes, [&](const Cube& p) {
    const Minterm free = full & ~p.care();
    Minterm s = 0;
    do {
      if (is_on[p.value() | s]) return false;
      s = (s - free) & free;
    } while (s != 0);
    return true;
  });
  return primes;
}

class PrimeEngineDiff : public ::testing::TestWithParam<DiffCase> {};

void expect_same_primes(const std::vector<Cube>& got,
                        const std::vector<Cube>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key(), want[i].key()) << "at index " << i;
  }
}

constexpr std::size_t kNoCap = std::numeric_limits<std::size_t>::max();

TEST_P(PrimeEngineDiff, MatchesReferencePrimesExactly) {
  const auto& p = GetParam();
  const auto f = make_function(p);
  const std::vector<Cube> reference =
      reference_compute_primes(p.num_vars, f.on, f.dc);
  {
    SCOPED_TRACE("compute_primes");
    expect_same_primes(prime_engine::compute_primes(p.num_vars, f.on, f.dc),
                       reference);
  }
  {
    SCOPED_TRACE("sharp path");
    const std::optional<std::vector<Cube>> sharp =
        prime_engine::detail::sharp_primes(p.num_vars, f.on, f.dc, kNoCap);
    ASSERT_TRUE(sharp.has_value());
    expect_same_primes(*sharp, reference);
  }
  {
    SCOPED_TRACE("level merge");
    expect_same_primes(prime_engine::detail::level_primes(p.num_vars, f.on, f.dc),
                       reference);
  }
  {
    // compute_on_primes and compute_incidence drop every fragment that
    // holds no ON minterm, so they generate the ON primes only.
    SCOPED_TRACE("ON-rooted");
    const std::vector<Cube> on_reference =
        restrict_to_on(reference, p.num_vars, f.on);
    expect_same_primes(prime_engine::compute_on_primes(p.num_vars, f.on, f.dc),
                       on_reference);
    expect_same_primes(
        prime_engine::compute_incidence(p.num_vars, f.on, f.dc).primes,
        on_reference);
  }
}

TEST_P(PrimeEngineDiff, IncidenceMatchesBruteForceContains) {
  const auto& p = GetParam();
  const auto f = make_function(p);

  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(p.num_vars, f.on, f.dc);
  ASSERT_EQ(pi.incidence.num_rows(), f.on.size());
  ASSERT_EQ(pi.incidence.num_cols(), pi.primes.size());
  for (std::size_t c = 0; c < pi.primes.size(); ++c) {
    bool covers_some = false;
    for (std::size_t r = 0; r < f.on.size(); ++r) {
      const bool expected = pi.primes[c].contains(f.on[r]);
      EXPECT_EQ(pi.incidence.covers(c, r), expected)
          << "prime " << c << " minterm " << f.on[r];
      covers_some = covers_some || expected;
    }
    // The incidence path keeps exactly the ON-covering primes.
    EXPECT_TRUE(covers_some) << "DC-only prime " << c << " not filtered";
  }
}

TEST_P(PrimeEngineDiff, OnPrimesMatchIncidencePrimes) {
  // The table-free all-primes filter (used by fsv covers) must keep
  // exactly the primes the incidence path keeps, in the same order.
  const auto& p = GetParam();
  const auto f = make_function(p);
  const std::vector<Cube> on_primes =
      prime_engine::compute_on_primes(p.num_vars, f.on, f.dc);
  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(p.num_vars, f.on, f.dc);
  ASSERT_EQ(on_primes.size(), pi.primes.size());
  for (std::size_t i = 0; i < on_primes.size(); ++i) {
    EXPECT_EQ(on_primes[i].key(), pi.primes[i].key()) << "at index " << i;
  }
}

std::vector<DiffCase> diff_cases() {
  std::vector<DiffCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    // Sparse / balanced shapes: the word-parallel level merge's home
    // ground.  At these sizes the sharp path stays inside its work cap,
    // so production takes it; detail::level_primes keeps the level
    // merge covered.
    cases.push_back({4, 0.35, 0.15, seed});
    cases.push_back({6, 0.3, 0.2, seed * 5});
    cases.push_back({8, 0.25, 0.2, seed * 7});
    cases.push_back({10, 0.15, 0.2, seed * 11});
    // Dense ON∪DC shapes (small OFF-set): the sharp path, well inside
    // its cap.  This is the Y/fsv-equation regime — deep machines
    // specify almost nothing.
    cases.push_back({6, 0.1, 0.85, seed * 13});
    cases.push_back({8, 0.05, 0.92, seed * 17});
    cases.push_back({10, 0.03, 0.93, seed * 19});
  }
  // A couple of heavier charts at the top of the tested range (the
  // reference oracle needs real time per call past 12 variables).
  cases.push_back({12, 0.3, 0.2, 97});
  cases.push_back({12, 0.02, 0.95, 98});
  // 14-var high-DC chart: deep enough that the sharp path's antichain
  // reaches thousands of cubes — the regime where absorption by a linear
  // sweep over the antichain went quadratic.  Still oracle-covered: the
  // reference generator handles it in seconds, just not in bulk.
  cases.push_back({14, 0.01, 0.95, 99});
  // Dense 11-13-var charts whose sharp-path antichain swells, collapses
  // and then grows large (see make_function).
  for (const std::uint64_t seed : {2, 10}) {
    cases.push_back({11, 0.05, 0.9, seed, 4});
  }
  for (const std::uint64_t seed : {2, 5, 6}) {
    cases.push_back({12, 0.05, 0.92, seed, 4});
  }
  cases.push_back({13, 0.03, 0.94, 3, 5});
  // Small low-half shapes that the sharp path sharps against only 2, 2
  // and 10 OFF cubes.  Each scans the entry of an accepted fragment,
  // which never absorbs (nested cubes keep the smaller one first):
  // letting that entry match every fragment fails all three, and
  // dropping the survivor entries fails the last.
  cases.push_back({10, 0.05, 0.95, 5, 2});
  cases.push_back({9, 0.05, 0.95, 3, 2});
  cases.push_back({9, 0.05, 0.9, 3, 1});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, PrimeEngineDiff,
                         ::testing::ValuesIn(diff_cases()));

// 13-15 variables, OFF a union of random subcubes of the whole space,
// DC elsewhere: the Y/fsv-equation regime, past the reference oracle's
// reach, so the two prime paths check each other.  The sharp path runs
// uncapped; the ON-rooted entry points must return the level merge's
// primes restricted to ON.  In every case thousands of fragments lie
// under the care of some absorber entry that disagrees with their
// parent off the OFF cube's care, so dropping the agreement test fails
// each of them, as does dropping the survivor entries or zeroing the
// value of an accepted fragment's entry.
class PrimeEngineOffCubeDiff : public ::testing::TestWithParam<DiffCase> {};

TEST_P(PrimeEngineOffCubeDiff, SharpPathMatchesLevelMerge) {
  const auto& p = GetParam();
  const auto f = make_function(p);
  const std::vector<Cube> level =
      prime_engine::detail::level_primes(p.num_vars, f.on, f.dc);
  {
    SCOPED_TRACE("sharp path");
    const std::optional<std::vector<Cube>> sharp =
        prime_engine::detail::sharp_primes(p.num_vars, f.on, f.dc, kNoCap);
    ASSERT_TRUE(sharp.has_value());
    expect_same_primes(*sharp, level);
  }
  {
    SCOPED_TRACE("ON-rooted");
    const std::vector<Cube> on_level = restrict_to_on(level, p.num_vars, f.on);
    expect_same_primes(prime_engine::compute_on_primes(p.num_vars, f.on, f.dc),
                       on_level);
    expect_same_primes(
        prime_engine::compute_incidence(p.num_vars, f.on, f.dc).primes,
        on_level);
  }
}

std::vector<DiffCase> off_cube_cases() {
  return {
      {13, 0.05, 0.0, 1301, 40, true},
      {13, 0.1, 0.0, 1302, 120, true},
      {14, 0.05, 0.0, 1401, 80, true},
      {14, 0.03, 0.0, 1402, 200, true},
      {15, 0.03, 0.0, 1501, 150, true},
  };
}

INSTANTIATE_TEST_SUITE_P(OffCubes, PrimeEngineOffCubeDiff,
                         ::testing::ValuesIn(off_cube_cases()));

// The canonical prime order (fewest literals first, then Cube::key) is a
// documented contract: downstream cover selection, the golden corpus,
// and the all-primes fsv equations all depend on it.  Pinned on the
// classic McCluskey example and a don't-care variant.
TEST(PrimeEngineRegression, CanonicalOrderIsPinned) {
  const std::vector<Minterm> on{4, 8, 9, 10, 11, 12, 14, 15};
  const std::vector<Cube> primes = prime_engine::compute_primes(4, on, {});
  const std::vector<std::string> expected{"0--1", "-1-1", "--01", "001-"};
  ASSERT_EQ(primes.size(), expected.size());
  for (std::size_t i = 0; i < primes.size(); ++i) {
    EXPECT_EQ(primes[i].to_string(), expected[i]);
  }
}

TEST(PrimeEngineRegression, CanonicalOrderWithDontCaresIsPinned) {
  const std::vector<Minterm> on{0, 1, 2, 5, 6, 7};
  const std::vector<Minterm> dc{3};
  const std::vector<Cube> primes = prime_engine::compute_primes(3, on, dc);
  const std::vector<std::string> expected{"1--", "-1-", "--0"};
  ASSERT_EQ(primes.size(), expected.size());
  for (std::size_t i = 0; i < primes.size(); ++i) {
    EXPECT_EQ(primes[i].to_string(), expected[i]);
  }
}

// The dense sharp path at the size where its absorption step dominates:
// 14 variables, ~8% ON, ~3% OFF, the rest DC.  Too slow for the
// reference oracle in a fast test, so the prime count and an fnv64
// fingerprint of the canonical (care, value) list are pinned instead.
TEST(PrimeEngineRegression, DenseFourteenVariableSharpPathIsPinned) {
  const auto f = random_function(14, 0.08, 0.89, 1414);
  ASSERT_TRUE(prime_engine::detail::sharp_primes(
                  14, f.on, f.dc,
                  prime_engine::detail::sharp_work_cap(14, f.on.size() + f.dc.size()))
                  .has_value());
  const std::vector<Cube> primes = prime_engine::compute_primes(14, f.on, f.dc);
  std::string bytes;
  for (const Cube& c : primes) {
    for (const std::uint32_t word : {c.care(), c.value()}) {
      for (int i = 0; i < 4; ++i) {
        bytes.push_back(static_cast<char>((word >> (8 * i)) & 0xffu));
      }
    }
  }
  EXPECT_EQ(primes.size(), 46223u);
  EXPECT_EQ(search::fnv64(bytes), 7947353723911761570ull);
}

// A sparse 14-variable function (~1% ON, no DC) swells the sharp
// path's cube list far past its work cap: production falls back to the
// level merge and returns its primes unchanged.
TEST(PrimeEngineRegression, SparseFunctionFallsBackToLevelMerge) {
  const auto f = random_function(14, 0.01, 0.0, 1401);
  ASSERT_FALSE(prime_engine::detail::sharp_primes(
                   14, f.on, f.dc,
                   prime_engine::detail::sharp_work_cap(14, f.on.size()))
                   .has_value());
  expect_same_primes(prime_engine::compute_primes(14, f.on, f.dc),
                     prime_engine::detail::level_primes(14, f.on, f.dc));
}

// The ON-rooted entry points filter the level merge's primes to ON
// when the sharp path falls back (here some primes hold DC only).
TEST(PrimeEngineRegression, FallbackKeepsOnlyTheOnPrimes) {
  const auto f = random_function(14, 0.01, 0.02, 1403);
  ASSERT_FALSE(prime_engine::detail::sharp_primes(
                   14, f.on, f.dc,
                   prime_engine::detail::sharp_work_cap(14, f.on.size() + f.dc.size()))
                   .has_value());
  const std::vector<Cube> level = prime_engine::detail::level_primes(14, f.on, f.dc);
  const std::vector<Cube> on_level = restrict_to_on(level, 14, f.on);
  ASSERT_LT(on_level.size(), level.size());
  expect_same_primes(prime_engine::compute_on_primes(14, f.on, f.dc), on_level);
  expect_same_primes(prime_engine::compute_incidence(14, f.on, f.dc).primes,
                     on_level);
}

// With no work allowed, the sharp path gives up at its first OFF cube
// (every differential case has one).
TEST(PrimeEngineRegression, ZeroCapAlwaysFallsBack) {
  for (const DiffCase& p : diff_cases()) {
    const auto f = make_function(p);
    ASSERT_FALSE(f.off.empty());
    EXPECT_FALSE(
        prime_engine::detail::sharp_primes(p.num_vars, f.on, f.dc, 0).has_value())
        << ::testing::PrintToString(p);
  }
}

// Under a spent deadline each prime path stops at its first
// checkpoint (the sharp path's first OFF cube, the level merge's first
// group) on a 15-variable Y-shaped function.
TEST(PrimeEngineDeadline, SpentDeadlineStopsEveryPath) {
  const DiffCase p{15, 0.03, 0.0, 1501, 150, true};
  const auto f = make_function(p);
  const search::DeadlineScope spent(0.0);
  EXPECT_THROW(static_cast<void>(prime_engine::detail::sharp_primes(
                   p.num_vars, f.on, f.dc, kNoCap)),
               search::DeadlineExceeded);
  EXPECT_THROW(static_cast<void>(
                   prime_engine::detail::level_primes(p.num_vars, f.on, f.dc)),
               search::DeadlineExceeded);
  EXPECT_THROW(static_cast<void>(
                   prime_engine::compute_incidence(p.num_vars, f.on, f.dc)),
               search::DeadlineExceeded);
}

TEST(PrimeEngineRegression, EveryEmittedCubeIsAPrimeImplicant) {
  for (std::uint64_t seed : {3u, 21u, 77u}) {
    const auto f = random_function(7, 0.3, 0.25, seed);
    for (const Cube& c : prime_engine::compute_primes(7, f.on, f.dc)) {
      EXPECT_TRUE(is_prime_implicant(c, 7, f.on, f.dc)) << c.to_string();
    }
  }
}

// Every incidence bit of compute_incidence against Cube::contains, and
// every kept prime covers some ON minterm.
void expect_incidence_matches_contains(int num_vars, const std::vector<Minterm>& on,
                                       const std::vector<Minterm>& dc,
                                       const std::string& label) {
  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(num_vars, on, dc);
  ASSERT_EQ(pi.incidence.num_rows(), on.size()) << label;
  ASSERT_EQ(pi.incidence.num_cols(), pi.primes.size()) << label;
  for (std::size_t c = 0; c < pi.primes.size(); ++c) {
    bool covers_some = false;
    for (std::size_t r = 0; r < on.size(); ++r) {
      const bool expected = pi.primes[c].contains(on[r]);
      ASSERT_EQ(pi.incidence.covers(c, r), expected)
          << label << ": prime " << pi.primes[c].to_string() << " minterm " << on[r];
      covers_some = covers_some || expected;
    }
    EXPECT_TRUE(covers_some) << label << ": DC-only prime " << c;
  }
}

// Below six variables the whole space is one partial bitset word, and
// at six it is exactly one word: ranks come from the in-word popcount
// alone.
TEST(PrimeEngineIncidence, OnePartialWordMatchesContains) {
  for (int n = 0; n <= 6; ++n) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto f = random_function(n, 0.45, 0.2, 600 + seed * 7 + static_cast<std::uint64_t>(n));
      expect_incidence_matches_contains(
          n, f.on, f.dc, std::to_string(n) + " vars, seed " + std::to_string(seed));
    }
  }
}

// Sparse ON and DC sets at 21-24 variables, each a union of random
// subcubes with free variables anywhere in the space, so most primes
// span many bitset words and their ON hits sit far apart.  (The row
// probe this replaced switched to a binary search past 20 variables.)
TEST(PrimeEngineIncidence, SparseWideFunctionsMatchContains) {
  for (int n = 21; n <= kMaxVars; ++n) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      std::mt19937_64 rng(2100 + seed * 31 + static_cast<std::uint64_t>(n));
      const Minterm full = (Minterm{1} << n) - 1;
      std::vector<Minterm> on;
      std::vector<Minterm> dc;
      for (int k = 0; k < 16; ++k) {
        Minterm free = 0;
        while (std::popcount(free) < 3) {
          free |= Minterm{1} << (rng() % static_cast<std::uint64_t>(n));
        }
        const Minterm base = static_cast<Minterm>(rng()) & full & ~free;
        std::vector<Minterm>& out = (k % 3 == 2) ? dc : on;
        Minterm s = 0;
        do {
          if (rng() % 4 != 0) out.push_back(base | s);
          s = (s - free) & free;
        } while (s != 0);
      }
      // The top minterm keeps the last bitset word's rank in play.
      on.push_back(full);
      std::sort(on.begin(), on.end());
      on.erase(std::unique(on.begin(), on.end()), on.end());
      std::erase_if(dc, [&](Minterm m) { return std::binary_search(on.begin(), on.end(), m); });
      expect_incidence_matches_contains(
          n, on, dc, std::to_string(n) + " vars, seed " + std::to_string(seed));
    }
  }
}

// A minterm's row is its rank in the ON set, which is its position in
// the caller's list only when the list is ascending, duplicate-free and
// inside the space; anything else is refused.
TEST(PrimeEngineIncidence, OnPreconditionIsEnforced) {
  const auto incidence = [](int num_vars, std::vector<Minterm> on) {
    return prime_engine::compute_incidence(num_vars, on, {});
  };
  EXPECT_THROW(static_cast<void>(incidence(4, {5, 3})), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(incidence(4, {3, 3, 5})), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(incidence(4, {3, 16})), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(incidence(0, {1})), std::invalid_argument);
  const prime_engine::PrimeIncidence pi = incidence(4, {3, 5, 15});
  EXPECT_EQ(pi.incidence.num_rows(), 3u);
}

TEST(PrimeEngineEdge, EmptyFunctionHasNoPrimes) {
  EXPECT_TRUE(prime_engine::compute_primes(5, {}, {}).empty());
  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(5, {}, {});
  EXPECT_TRUE(pi.primes.empty());
  EXPECT_EQ(pi.incidence.num_rows(), 0u);
  EXPECT_EQ(pi.incidence.num_cols(), 0u);
}

TEST(PrimeEngineEdge, DcOnlyFunctionKeepsPrimesButEmptyIncidence) {
  const std::vector<Minterm> dc{1, 3, 5, 7};
  EXPECT_FALSE(prime_engine::compute_primes(3, {}, dc).empty());
  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(3, {}, dc);
  EXPECT_TRUE(pi.primes.empty());  // nothing covers an ON minterm
  EXPECT_EQ(pi.incidence.num_rows(), 0u);
}

TEST(PrimeEngineEdge, FullSpaceCollapsesToUniversalCube) {
  // ON = the whole space: the single prime is the universal cube (sharp
  // path with an empty OFF list).
  std::vector<Minterm> on;
  for (Minterm m = 0; m < 16; ++m) on.push_back(m);
  const std::vector<Cube> primes = prime_engine::compute_primes(4, on, {});
  ASSERT_EQ(primes.size(), 1u);
  EXPECT_EQ(primes[0].literal_count(), 0);
  const prime_engine::PrimeIncidence pi =
      prime_engine::compute_incidence(4, on, {});
  ASSERT_EQ(pi.primes.size(), 1u);
  for (std::size_t r = 0; r < on.size(); ++r) {
    EXPECT_TRUE(pi.incidence.covers(0, r));
  }
}

TEST(PrimeEngineEdge, ZeroVariableFunction) {
  const std::vector<Minterm> on{0};
  const std::vector<Cube> primes = prime_engine::compute_primes(0, on, {});
  ASSERT_EQ(primes.size(), 1u);
  EXPECT_EQ(primes[0].literal_count(), 0);
}

TEST(PrimeEngineEdge, DuplicatedAndUnsortedInputIsTolerated) {
  const std::vector<Minterm> on{9, 4, 9, 15, 4, 8, 10, 11, 12, 14, 15, 8};
  const std::vector<Cube> a = prime_engine::compute_primes(4, on, {});
  const std::vector<Minterm> clean{4, 8, 9, 10, 11, 12, 14, 15};
  const std::vector<Cube> b = prime_engine::compute_primes(4, clean, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key(), b[i].key());
  }
}

}  // namespace
}  // namespace seance::logic
