#include "logic/qm.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "testutil.hpp"

namespace seance::logic {
namespace {

using testutil::random_function;

TEST(Qm, TextbookFourVariable) {
  // f = Σm(4,8,10,11,12,15) + d(9,14): the classic QM example.
  const std::vector<Minterm> on = {4, 8, 10, 11, 12, 15};
  const std::vector<Minterm> dc = {9, 14};
  const Cover cover = select_cover(4, on, dc);
  EXPECT_TRUE(cover.equals_function(on, dc));
  // Known minimal solution has 3 product terms.
  EXPECT_EQ(cover.size(), 3u);
}

TEST(Qm, SingleMinterm) {
  const std::vector<Minterm> on = {5};
  const Cover cover = select_cover(3, on, {});
  EXPECT_EQ(cover.size(), 1u);
  EXPECT_TRUE(cover.equals_function(on, {}));
}

TEST(Qm, TautologyCollapsesToUniversalCube) {
  std::vector<Minterm> on;
  for (Minterm m = 0; m < 16; ++m) on.push_back(m);
  const Cover cover = select_cover(4, on, {});
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover.cubes()[0].literal_count(), 0);
}

TEST(Qm, EmptyOnSetGivesEmptyCover) {
  const Cover cover = select_cover(3, {}, {});
  EXPECT_TRUE(cover.empty());
}

TEST(Qm, DontCaresEnlargePrimes) {
  // on = {0}, dc = {1}: prime can drop variable 0.
  const std::vector<Minterm> on = {0};
  const std::vector<Minterm> dc = {1};
  const Cover cover = select_cover(1, on, dc);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover.cubes()[0].literal_count(), 0);
}

TEST(Qm, XorNeedsAllMinterms) {
  // XOR has no mergeable adjacent minterms: cover = the minterms.
  const std::vector<Minterm> on = {0b01, 0b10};
  const Cover cover = select_cover(2, on, {});
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_TRUE(cover.equals_function(on, {}));
}

TEST(Qm, AllPrimesOfXor3) {
  // 3-input XOR: every ON minterm is its own prime.
  const std::vector<Minterm> on = {0b001, 0b010, 0b100, 0b111};
  const std::vector<Cube> primes = compute_primes(3, on, {});
  EXPECT_EQ(primes.size(), 4u);
  for (const Cube& p : primes) EXPECT_EQ(p.literal_count(), 3);
}

TEST(Qm, PrimesOfConsensusFunction) {
  // f = x0 x1 + x0' x2 has consensus term x1 x2: 3 primes total.
  std::vector<Minterm> on;
  for (Minterm m = 0; m < 8; ++m) {
    const bool x0 = m & 1, x1 = m & 2, x2 = m & 4;
    if ((x0 && x1) || (!x0 && x2)) on.push_back(m);
  }
  const std::vector<Cube> primes = compute_primes(3, on, {});
  EXPECT_EQ(primes.size(), 3u);
  const Cover all = all_primes_cover(3, on, {});
  EXPECT_EQ(all.size(), 3u);
  EXPECT_TRUE(all.equals_function(on, {}));
  // Essential cover drops the consensus term.
  const Cover essential = select_cover(3, on, {});
  EXPECT_EQ(essential.size(), 2u);
}

TEST(Qm, IsPrimeImplicantAgrees) {
  std::vector<Minterm> on;
  for (Minterm m = 0; m < 8; ++m) {
    const bool x0 = m & 1, x1 = m & 2, x2 = m & 4;
    if ((x0 && x1) || (!x0 && x2)) on.push_back(m);
  }
  for (const Cube& p : compute_primes(3, on, {})) {
    EXPECT_TRUE(is_prime_implicant(p, 3, on, {})) << p.to_string();
  }
  // A strict sub-cube of a prime is not prime.
  EXPECT_FALSE(is_prime_implicant(Cube::from_string("110"), 3, on, {}));
}

TEST(Qm, CoverStatsReportEssentials) {
  const std::vector<Minterm> on = {4, 8, 10, 11, 12, 15};
  const std::vector<Minterm> dc = {9, 14};
  CoverStats stats;
  (void)select_cover(4, on, dc, &stats);
  EXPECT_GT(stats.prime_count, 0u);
  EXPECT_TRUE(stats.exact);
}

TEST(Qm, TinyNodeBudgetStillYieldsValidCovers) {
  // Regression companion to CoverEngine.BudgetExhaustionKeepsIncumbent:
  // whatever the budget, select_cover must hand back a functionally
  // correct cover — via the kept incumbent or the greedy completion —
  // and report exactness honestly.
  const auto f = testutil::random_function(6, 0.35, 0.15, 99);
  CoverStats full_stats;
  const Cover full = select_cover(6, f.on, f.dc, &full_stats);
  ASSERT_TRUE(full_stats.exact);
  for (std::size_t budget : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                             std::size_t{64}}) {
    CoverStats stats;
    const Cover cover = select_cover(6, f.on, f.dc, &stats, budget);
    EXPECT_TRUE(cover.equals_function(f.on, f.dc)) << "budget " << budget;
    EXPECT_GE(cover.size(), full.size()) << "budget " << budget;
    if (cover.size() > full.size()) {
      EXPECT_FALSE(stats.exact) << "budget " << budget;
    }
  }
}

struct QmRandomCase {
  int num_vars;
  double p_on;
  double p_dc;
  std::uint64_t seed;
};

class QmRandom : public ::testing::TestWithParam<QmRandomCase> {};

TEST_P(QmRandom, EssentialCoverMatchesFunction) {
  const auto& p = GetParam();
  const auto f = random_function(p.num_vars, p.p_on, p.p_dc, p.seed);
  const Cover cover = select_cover(p.num_vars, f.on, f.dc);
  EXPECT_TRUE(cover.equals_function(f.on, f.dc));
  EXPECT_TRUE(is_irredundant(cover, f.on));
}

TEST_P(QmRandom, AllPrimesCoverMatchesFunctionAndIsComplete) {
  const auto& p = GetParam();
  const auto f = random_function(p.num_vars, p.p_on, p.p_dc, p.seed);
  const Cover cover = all_primes_cover(p.num_vars, f.on, f.dc);
  EXPECT_TRUE(cover.equals_function(f.on, f.dc));
  for (const Cube& c : cover.cubes()) {
    EXPECT_TRUE(is_prime_implicant(c, p.num_vars, f.on, f.dc)) << c.to_string();
  }
}

TEST_P(QmRandom, EveryPrimeIsPrimeAndEveryOnMintermCovered) {
  const auto& p = GetParam();
  const auto f = random_function(p.num_vars, p.p_on, p.p_dc, p.seed);
  const std::vector<Cube> primes = compute_primes(p.num_vars, f.on, f.dc);
  for (const Cube& c : primes) {
    EXPECT_TRUE(is_prime_implicant(c, p.num_vars, f.on, f.dc)) << c.to_string();
  }
  for (Minterm m : f.on) {
    EXPECT_TRUE(std::any_of(primes.begin(), primes.end(),
                            [m](const Cube& c) { return c.contains(m); }))
        << "on minterm " << m << " uncovered by primes";
  }
}

std::vector<QmRandomCase> qm_cases() {
  std::vector<QmRandomCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back({4, 0.3, 0.1, seed});
    cases.push_back({5, 0.4, 0.2, seed * 11});
    cases.push_back({6, 0.25, 0.15, seed * 17});
    cases.push_back({7, 0.5, 0.05, seed * 23});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, QmRandom, ::testing::ValuesIn(qm_cases()));

class QmExactMinimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QmExactMinimality, BranchAndBoundBeatsNothingSmaller) {
  // Brute-force minimal cover cardinality over primes for small functions
  // and compare with the solver's result.
  const auto f = random_function(4, 0.4, 0.1, GetParam());
  const std::vector<Cube> primes = compute_primes(4, f.on, f.dc);
  const Cover cover = select_cover(4, f.on, f.dc);
  if (f.on.empty()) {
    EXPECT_TRUE(cover.empty());
    return;
  }
  // Exhaustive subset search (primes are few for 4 vars).
  std::size_t best = primes.size() + 1;
  const std::size_t limit = 1u << primes.size();
  for (std::size_t mask = 0; mask < limit; ++mask) {
    std::size_t count = static_cast<std::size_t>(__builtin_popcountll(mask));
    if (count >= best) continue;
    bool covers_all = true;
    for (Minterm m : f.on) {
      bool covered = false;
      for (std::size_t i = 0; i < primes.size(); ++i) {
        if ((mask >> i) & 1u) {
          if (primes[i].contains(m)) {
            covered = true;
            break;
          }
        }
      }
      if (!covered) {
        covers_all = false;
        break;
      }
    }
    if (covers_all) best = count;
  }
  EXPECT_EQ(cover.size(), best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QmExactMinimality,
                         ::testing::Values(3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace seance::logic
