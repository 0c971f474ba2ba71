// Equivalence suite for the bitset covering engine: the production path
// (select_cover on cover_engine) against the retained seed path
// (reference_select_cover) on identical inputs, plus property tests on
// the hard 8-state / 4-input generator shape the engine was rebuilt for.
//
// The contract checked here: both paths produce functionally correct
// covers, and whenever both complete their exact search the cardinality
// is identical (minimum covers are not unique, so cube *sets* may
// differ; the count may not).

#include <gtest/gtest.h>

#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "logic/qm.hpp"
#include "logic/qm_reference.hpp"
#include "testutil.hpp"

namespace seance::logic {
namespace {

using testutil::random_function;

struct EquivCase {
  int num_vars;
  double p_on;
  double p_dc;
  std::uint64_t seed;
};

class QmEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(QmEquivalence, EssentialSopMatchesReference) {
  const auto& p = GetParam();
  const auto f = random_function(p.num_vars, p.p_on, p.p_dc, p.seed);

  CoverStats ref_stats;
  const Cover reference = reference_select_cover(
      p.num_vars, f.on, f.dc, &ref_stats);
  CoverStats new_stats;
  const Cover bitset = select_cover(p.num_vars, f.on, f.dc, &new_stats);

  EXPECT_TRUE(reference.equals_function(f.on, f.dc));
  EXPECT_TRUE(bitset.equals_function(f.on, f.dc));
  EXPECT_EQ(new_stats.prime_count, ref_stats.prime_count);
  EXPECT_EQ(new_stats.essential_count, ref_stats.essential_count);
  if (ref_stats.exact && new_stats.exact) {
    // Two proven-minimum covers must have the same cardinality.
    EXPECT_EQ(bitset.size(), reference.size());
  }
  if (new_stats.exact) {
    // A proven minimum can never lose to the reference result.
    EXPECT_LE(bitset.size(), reference.size());
  }
}

TEST_P(QmEquivalence, AllPrimesPathsAreIdentical) {
  const auto& p = GetParam();
  const auto f = random_function(p.num_vars, p.p_on, p.p_dc, p.seed);
  const Cover reference = reference_all_primes_cover(p.num_vars, f.on, f.dc);
  const Cover bitset = all_primes_cover(p.num_vars, f.on, f.dc);
  ASSERT_EQ(bitset.size(), reference.size());
  for (std::size_t i = 0; i < bitset.size(); ++i) {
    EXPECT_EQ(bitset.cubes()[i].key(), reference.cubes()[i].key());
  }
}

std::vector<EquivCase> equivalence_cases() {
  std::vector<EquivCase> cases;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cases.push_back({4, 0.35, 0.15, seed});
    cases.push_back({5, 0.3, 0.2, seed * 5});
    cases.push_back({6, 0.3, 0.2, seed * 7});
    cases.push_back({7, 0.25, 0.2, seed * 11});
  }
  // A few heavier charts near the reference engine's comfort limit (the
  // reference needs seconds per call past 8 variables at this density).
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    cases.push_back({8, 0.2, 0.15, seed * 13});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, QmEquivalence,
                         ::testing::ValuesIn(equivalence_cases()));

// The corpus the golden report pins: every Table-1 and extra-suite job
// must keep synthesizing and verifying on the new engine.
TEST(QmEquivalenceCorpus, BuiltinSuitesSynthesizeAndVerify) {
  driver::BatchOptions options;
  options.threads = 2;
  driver::BatchRunner runner(options);
  runner.add_table1_suite();
  runner.add_extra_suite();
  const driver::BatchReport report = runner.run();
  for (const auto& job : report.jobs) {
    EXPECT_EQ(job.status, driver::JobStatus::kOk) << job.name << ": " << job.detail;
    EXPECT_TRUE(job.equations_verified) << job.name;
  }
}

// Property tests on the hard 8-state / 4-input generator shape: the
// whole point of the engine rewrite is that this shape is now batchable,
// so every synthesized machine must verify and its essential covers must
// come from the exact path.
TEST(QmEquivalenceCorpus, HardShapeJobsSynthesizeAndVerify) {
  driver::BatchOptions options;
  options.threads = 2;
  driver::BatchRunner runner(options);
  runner.add_hard_generated(12, /*base_seed=*/1);
  ASSERT_EQ(runner.job_count(), 12);
  const driver::BatchReport report = runner.run();
  for (const auto& job : report.jobs) {
    EXPECT_EQ(job.status, driver::JobStatus::kOk) << job.name << ": " << job.detail;
    EXPECT_TRUE(job.equations_verified) << job.name;
    EXPECT_EQ(job.num_inputs, 4) << job.name;
    EXPECT_EQ(job.input_states, 8) << job.name;
  }
}

// The harder 12-state / 5-input shape opened by the word-parallel prime
// engine (its Y/fsv equations reach 12-15 variables with >90% DC, the
// sharp path's regime).  Every machine must synthesize and verify.
TEST(QmEquivalenceCorpus, HarderShapeJobsSynthesizeAndVerify) {
  driver::BatchOptions options;
  options.threads = 2;
  driver::BatchRunner runner(options);
  runner.add_harder_generated(8, /*base_seed=*/1);
  ASSERT_EQ(runner.job_count(), 8);
  const driver::BatchReport report = runner.run();
  for (const auto& job : report.jobs) {
    EXPECT_EQ(job.status, driver::JobStatus::kOk) << job.name << ": " << job.detail;
    EXPECT_TRUE(job.equations_verified) << job.name;
    EXPECT_EQ(job.num_inputs, 5) << job.name;
    EXPECT_EQ(job.input_states, 12) << job.name;
  }
}

TEST(QmEquivalenceCorpus, HardShapeCoversAreIrredundantAndExact) {
  // Drive select_cover directly at the hard shape's equation arity with
  // ON/DC densities in the range the Y equations produce.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto f = random_function(10, 0.15, 0.5, seed * 17);
    CoverStats stats;
    const Cover cover = select_cover(10, f.on, f.dc, &stats);
    EXPECT_TRUE(cover.equals_function(f.on, f.dc)) << "seed " << seed;
    EXPECT_TRUE(is_irredundant(cover, f.on)) << "seed " << seed;
    EXPECT_TRUE(stats.exact) << "seed " << seed;
  }
}

}  // namespace
}  // namespace seance::logic
