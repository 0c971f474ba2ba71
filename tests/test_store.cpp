// Regression-store contract tests: byte-stable serialization round-trips,
// the diff classification table (status flips, metric drift against
// tolerances, added/removed jobs, identity mismatches), and the parse
// errors that keep a corrupt golden file from passing silently.

#include "store/store.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "driver/batch.hpp"

namespace seance::store {
namespace {

using driver::BatchOptions;
using driver::BatchRunner;
using driver::JobResult;
using driver::JobStatus;

StoredReport run_small_corpus() {
  BatchOptions options;
  options.threads = 2;
  BatchRunner runner(options);
  runner.add_table1_suite();
  bench_suite::GeneratorOptions gen;
  gen.seed = 42;
  runner.add_generated(3, gen);
  // A name that exercises the CSV quoting path through serialize/parse.
  runner.add("runs/a,b \"v2\".kiss2",
             bench_suite::load(bench_suite::by_name("lion")));

  StoredReport stored;
  stored.identity.base_seed = gen.seed;
  stored.identity.corpus = "table1+gen3+kiss";
  stored.identity.checks = describe(options);
  stored.identity.synthesis = describe(core::SynthesisOptions{});
  stored.identity.generator = describe(gen);
  stored.report = runner.run();
  return stored;
}

/// A hand-built report: diff classification tests need exact metric
/// control, not whatever synthesis happens to produce.
JobResult make_job(const std::string& name, JobStatus status = JobStatus::kOk) {
  JobResult r;
  r.name = name;
  r.status = status;
  r.num_inputs = 3;
  r.num_outputs = 2;
  r.input_states = 6;
  r.synthesized_states = 5;
  r.state_vars = 3;
  r.fl_hazards = 10;
  r.var_hazards = 12;
  r.depth.fsv_depth = 3;
  r.depth.y_depth = 5;
  r.depth.total_depth = 9;
  r.gate_count = 80;
  r.equations_verified = true;
  r.ternary_transitions = 40;
  return r;
}

StoredReport make_stored(std::vector<JobResult> jobs) {
  StoredReport stored;
  stored.identity.corpus = "hand-built";
  stored.report.jobs = std::move(jobs);
  return stored;
}

TEST(Store, SerializeParseRoundTripIsLossless) {
  const StoredReport stored = run_small_corpus();
  const std::string bytes = serialize(stored);
  const StoredReport reread = parse(bytes);

  EXPECT_EQ(reread.identity.schema_version, kSchemaVersion);
  EXPECT_EQ(reread.identity.base_seed, stored.identity.base_seed);
  EXPECT_EQ(reread.identity.corpus, stored.identity.corpus);
  EXPECT_EQ(reread.identity.checks, stored.identity.checks);
  EXPECT_EQ(reread.identity.synthesis, stored.identity.synthesis);
  EXPECT_EQ(reread.identity.generator, stored.identity.generator);
  // The persisted columns survive byte-for-byte: re-serializing the
  // parsed report reproduces the input, so golden files are stable under
  // load/save cycles.
  EXPECT_EQ(serialize(reread), bytes);
  // And the parsed report diffs clean against the original.
  const DiffReport d = diff(stored, reread);
  EXPECT_TRUE(d.clean()) << d.summary();
  EXPECT_EQ(d.jobs_compared, static_cast<int>(stored.report.jobs.size()));
}

TEST(Store, SaveLoadFileRoundTrip) {
  const StoredReport stored = run_small_corpus();
  const std::string path = testing::TempDir() + "seance_store_roundtrip.csv";
  save(path, stored);
  const StoredReport loaded = load(path);
  EXPECT_EQ(serialize(loaded), serialize(stored));
  const DiffReport d = diff(stored, loaded);
  EXPECT_TRUE(d.clean()) << d.summary();
}

TEST(Store, SaveIntoMissingDirectoryThrows) {
  EXPECT_THROW(save("/nonexistent-dir/x/y.csv", StoredReport{}),
               std::runtime_error);
  EXPECT_THROW(load("/nonexistent-dir/x/y.csv"), std::runtime_error);
}

TEST(StoreDiff, StatusFlipIsClassified) {
  const StoredReport base = make_stored({make_job("a"), make_job("b")});
  StoredReport cur = make_stored({make_job("a"), make_job("b")});
  cur.report.jobs[1].status = JobStatus::kTimeout;

  const DiffReport d = diff(base, cur);
  ASSERT_EQ(d.deltas.size(), 1u);
  EXPECT_EQ(d.deltas[0].kind, DeltaKind::kStatusChanged);
  EXPECT_EQ(d.deltas[0].name, "b");
  EXPECT_EQ(d.deltas[0].baseline_status, JobStatus::kOk);
  EXPECT_EQ(d.deltas[0].current_status, JobStatus::kTimeout);
  EXPECT_FALSE(d.deltas[0].improvement);
  EXPECT_FALSE(d.clean());
  EXPECT_NE(d.summary().find("ok -> timeout"), std::string::npos);
}

TEST(StoreDiff, StatusRecoveryIsAnImprovementButStillDrift) {
  const StoredReport base =
      make_stored({make_job("a", JobStatus::kVerifyFailed)});
  const StoredReport cur = make_stored({make_job("a")});
  const DiffReport d = diff(base, cur);
  ASSERT_EQ(d.deltas.size(), 1u);
  EXPECT_TRUE(d.deltas[0].improvement);
  EXPECT_FALSE(d.clean());  // the golden file is stale either way
}

TEST(StoreDiff, MetricDriftRespectsTolerances) {
  const StoredReport base = make_stored({make_job("a")});
  StoredReport cur = make_stored({make_job("a")});
  cur.report.jobs[0].gate_count += 3;
  cur.report.jobs[0].depth.total_depth += 1;

  // Zero tolerance: both columns drift.
  DiffReport d = diff(base, cur);
  ASSERT_EQ(d.deltas.size(), 1u);
  EXPECT_EQ(d.deltas[0].kind, DeltaKind::kMetricDrift);
  ASSERT_EQ(d.deltas[0].metrics.size(), 2u);
  EXPECT_STREQ(d.deltas[0].metrics[0].metric, "total_depth");
  EXPECT_STREQ(d.deltas[0].metrics[1].metric, "gate_count");
  EXPECT_FALSE(d.deltas[0].improvement);

  // Tolerance at the drift magnitude swallows it (inclusive bound)...
  DiffOptions tol;
  tol.gate_tolerance = 3;
  tol.depth_tolerance = 1;
  EXPECT_TRUE(diff(base, cur, tol).clean());

  // ...one below does not.
  tol.gate_tolerance = 2;
  const DiffReport tight = diff(base, cur, tol);
  ASSERT_EQ(tight.deltas.size(), 1u);
  ASSERT_EQ(tight.deltas[0].metrics.size(), 1u);
  EXPECT_STREQ(tight.deltas[0].metrics[0].metric, "gate_count");
}

TEST(StoreDiff, TolerancesAreSymmetric) {
  const StoredReport base = make_stored({make_job("a")});
  StoredReport cur = make_stored({make_job("a")});
  cur.report.jobs[0].fl_hazards -= 2;  // improvement is still drift

  const DiffReport d = diff(base, cur);
  ASSERT_EQ(d.deltas.size(), 1u);
  EXPECT_TRUE(d.deltas[0].improvement);
  DiffOptions tol;
  tol.fl_tolerance = 2;
  EXPECT_TRUE(diff(base, cur, tol).clean());
}

TEST(StoreDiff, AddedAndRemovedJobs) {
  const StoredReport base = make_stored({make_job("a"), make_job("gone")});
  const StoredReport cur = make_stored({make_job("a"), make_job("new")});
  const DiffReport d = diff(base, cur);
  ASSERT_EQ(d.deltas.size(), 2u);
  // Baseline order first (removed), then current-only jobs.
  EXPECT_EQ(d.deltas[0].kind, DeltaKind::kRemoved);
  EXPECT_EQ(d.deltas[0].name, "gone");
  EXPECT_EQ(d.deltas[1].kind, DeltaKind::kAdded);
  EXPECT_EQ(d.deltas[1].name, "new");
  EXPECT_EQ(d.jobs_compared, 1);
  // Machine CSV carries one row per delta.
  const std::string csv = d.to_csv();
  EXPECT_NE(csv.find("gone,removed,status,ok,,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("new,added,status,,ok,"), std::string::npos) << csv;
}

TEST(StoreDiff, IdentityMismatchIsNeverClean) {
  StoredReport base = make_stored({make_job("a")});
  StoredReport cur = make_stored({make_job("a")});
  cur.identity.base_seed = 2;
  const DiffReport d = diff(base, cur);
  EXPECT_TRUE(d.deltas.empty());  // per-job agreement...
  EXPECT_FALSE(d.clean());        // ...does not make unlike corpora equal
  ASSERT_EQ(d.warnings.size(), 1u);
  EXPECT_NE(d.warnings[0].find("seed"), std::string::npos);
  EXPECT_NE(d.summary().find("identity mismatch"), std::string::npos);
}

TEST(StoreDiff, CheckConfigurationMismatchWarns) {
  // A baseline recorded with the default checks diffed against a
  // strict-ternary run is not code drift — the runs are incomparable.
  StoredReport base = make_stored({make_job("a")});
  base.identity.checks = describe(driver::BatchOptions{});
  StoredReport cur = make_stored({make_job("a")});
  driver::BatchOptions strict;
  strict.ternary_strict = true;
  cur.identity.checks = describe(strict);
  const DiffReport d = diff(base, cur);
  EXPECT_FALSE(d.clean());
  ASSERT_EQ(d.warnings.size(), 1u);
  EXPECT_NE(d.warnings[0].find("checks"), std::string::npos);
}

TEST(StoreParse, RejectsBadMagicVersionHeaderAndRows) {
  const std::string good = serialize(run_small_corpus());

  EXPECT_THROW(parse("not a store file\n"), std::runtime_error);

  std::string bad_version = good;
  bad_version.replace(bad_version.find("v3"), 2, "v9");
  EXPECT_THROW(parse(bad_version), std::runtime_error);

  std::string bad_header = good;
  const std::size_t name_col = bad_header.find("name,status");
  bad_header.replace(name_col, 4, "nome");
  EXPECT_THROW(parse(bad_header), std::runtime_error);

  std::string bad_row = good;
  bad_row += "short,row\n";
  EXPECT_THROW(parse(bad_row), std::runtime_error);

  std::string bad_status = good;
  const std::size_t ok = bad_status.find(",ok,");
  bad_status.replace(ok, 4, ",??,");
  EXPECT_THROW(parse(bad_status), std::runtime_error);
}

TEST(StoreParse, ToleratesUnknownMetadataAndBlankLines) {
  std::string text = serialize(make_stored({make_job("a")}));
  const std::size_t after_magic = text.find('\n') + 1;
  text.insert(after_magic, "# future-key: whatever\n");
  text += "\n";  // trailing blank line
  const StoredReport reread = parse(text);
  ASSERT_EQ(reread.report.jobs.size(), 1u);
  EXPECT_EQ(reread.report.jobs[0].name, "a");
}

TEST(StoreParse, SkipsFutureHeaderLinesOfAnyShape) {
  // The serve cache reads entries written by other build generations: a
  // same-schema file carrying header lines this build has never heard of
  // — keyed, free-form, or tightly packed — must parse, not error, and
  // the known identity lines around them must still land.
  StoredReport stored = make_stored({make_job("a")});
  stored.identity.base_seed = 99;
  std::string text = serialize(stored);
  const std::size_t before_csv = text.find("name,status");
  text.insert(before_csv,
              "# cache-tier: warm\n"
              "# written by a future seance build\n"
              "#compact-future-flag\n");
  const StoredReport reread = parse(text);
  EXPECT_EQ(reread.identity.base_seed, 99u);
  ASSERT_EQ(reread.report.jobs.size(), 1u);
  EXPECT_EQ(reread.report.jobs[0].name, "a");
  // Tolerance is for *header* shape only: a recognized key with a
  // malformed value is still corruption and still throws.
  std::string bad_seed = serialize(stored);
  const std::size_t seed_at = bad_seed.find("# seed: 99");
  bad_seed.replace(seed_at, 10, "# seed: xx");
  EXPECT_THROW(parse(bad_seed), std::runtime_error);
}

TEST(StoreParse, AcceptsAppendedCsvColumnsFromANewerWriter) {
  // From schema v3 the CSV header is matched by prefix: a same-version
  // file whose writer appended further columns must parse, with the
  // extra per-row fields ignored.  A header that merely *extends the
  // last column name* (no comma boundary) is still a mismatch.
  StoredReport stored = make_stored({make_job("a")});
  std::string text = serialize(stored);
  const std::string header(driver::kCsvHeader);
  std::size_t at = text.find(header);
  ASSERT_NE(at, std::string::npos);
  std::string widened = text;
  widened.replace(at, header.size(), header + ",future_metric");
  // The single data row is the final line; give it the future value too.
  widened.insert(widened.size() - 1, ",123");
  const StoredReport reread = parse(widened);
  ASSERT_EQ(reread.report.jobs.size(), 1u);
  EXPECT_EQ(reread.report.jobs[0].name, "a");
  EXPECT_EQ(serialize(reread), text);  // extras do not survive re-export
  std::string glued = text;
  glued.replace(at, header.size(), header + "_suffix");
  EXPECT_THROW(parse(glued), std::runtime_error);
}

TEST(Store, ShardIdentityRoundTripsAndIsOmittedWhenEmpty) {
  StoredReport stored = make_stored({make_job("a")});
  // Unsharded reports must keep their exact bytes: no shard line at all.
  EXPECT_EQ(serialize(stored).find("# shard:"), std::string::npos);
  stored.identity.shard = "2/4";
  const std::string bytes = serialize(stored);
  EXPECT_NE(bytes.find("# shard: 2/4\n"), std::string::npos);
  const StoredReport reread = parse(bytes);
  EXPECT_EQ(reread.identity.shard, "2/4");
  EXPECT_EQ(serialize(reread), bytes);
  // Two reports differing only in shard tag are not comparable.
  const DiffReport d = diff(make_stored({make_job("a")}), stored);
  ASSERT_EQ(d.warnings.size(), 1u);
  EXPECT_NE(d.warnings[0].find("shard"), std::string::npos);
}

TEST(StoreParse, PartialTailToleranceDropsOnlyTheTornRow) {
  const StoredReport stored =
      make_stored({make_job("a"), make_job("b"), make_job("c")});
  const std::string bytes = serialize(stored);

  // Torn mid-row (no trailing newline): strict parse throws, lenient
  // parse keeps every complete row.
  const std::size_t cut = bytes.rfind(",80,");  // inside row "c"
  const std::string torn = bytes.substr(0, cut);
  EXPECT_THROW((void)parse(torn), std::runtime_error);
  const StoredReport lenient = parse(torn, /*tolerate_partial_tail=*/true);
  ASSERT_EQ(lenient.report.jobs.size(), 2u);
  EXPECT_EQ(lenient.report.jobs[0].name, "a");
  EXPECT_EQ(lenient.report.jobs[1].name, "b");

  // A newline-terminated but short row is also dropped when it is last...
  const std::string short_row = bytes + "gen-x,ok,1\n";
  EXPECT_THROW((void)parse(short_row), std::runtime_error);
  EXPECT_EQ(parse(short_row, true).report.jobs.size(), 3u);

  // ...but interior corruption is corruption, tolerant or not.
  std::string interior = bytes;
  interior.insert(interior.find("b,ok"), "torn,row\n");
  EXPECT_THROW((void)parse(interior, true), std::runtime_error);

  // A complete file parses identically in both modes.
  EXPECT_EQ(serialize(parse(bytes, true)), bytes);
}

StoredReport shard_of(const StoredReport& whole, const std::string& tag,
                      std::vector<std::size_t> rows) {
  StoredReport shard;
  shard.identity = whole.identity;
  shard.identity.shard = tag;
  for (const std::size_t r : rows) {
    shard.report.jobs.push_back(whole.report.jobs[r]);
  }
  return shard;
}

std::vector<std::string> names_of(const StoredReport& stored) {
  std::vector<std::string> names;
  for (const auto& j : stored.report.jobs) names.push_back(j.name);
  return names;
}

TEST(StoreMerge, SingleShardAndEmptyShardMergesAreIdentity) {
  const StoredReport whole =
      make_stored({make_job("a"), make_job("b"), make_job("c")});
  const std::vector<std::string> order = names_of(whole);

  // The whole report as one shard: merge reproduces it byte for byte.
  const StoredReport single =
      merge(whole.identity, {shard_of(whole, "0/1", {0, 1, 2})}, order);
  EXPECT_EQ(serialize(single), serialize(whole));

  // An extra empty shard contributes nothing and changes nothing.
  const StoredReport with_empty =
      merge(whole.identity,
            {shard_of(whole, "0/2", {0, 1, 2}), shard_of(whole, "1/2", {})},
            order);
  EXPECT_EQ(serialize(with_empty), serialize(whole));

  // No shards at all: everything comes back as crashed placeholders.
  const StoredReport none = merge(whole.identity, {}, order);
  ASSERT_EQ(none.report.jobs.size(), 3u);
  for (const auto& j : none.report.jobs) {
    EXPECT_EQ(j.status, driver::JobStatus::kCrashed);
  }
}

TEST(StoreMerge, InterleavedShardsComeBackInCorpusOrder) {
  const StoredReport whole = make_stored(
      {make_job("a"), make_job("b"), make_job("c"), make_job("d")});
  const std::vector<std::string> order = names_of(whole);
  const StoredReport merged =
      merge(whole.identity,
            {shard_of(whole, "1/2", {1, 3}), shard_of(whole, "0/2", {0, 2})},
            order);
  EXPECT_EQ(serialize(merged), serialize(whole));
  EXPECT_TRUE(merged.identity.shard.empty());
}

TEST(StoreMerge, OverlappingJobNamesAreRejected) {
  const StoredReport whole = make_stored({make_job("a"), make_job("b")});
  const std::vector<std::string> order = names_of(whole);
  try {
    (void)merge(whole.identity,
                {shard_of(whole, "0/2", {0, 1}), shard_of(whole, "1/2", {1})},
                order);
    FAIL() << "duplicate job across shards must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("more than one shard"),
              std::string::npos)
        << e.what();
  }
}

TEST(StoreMerge, MismatchedCorpusIdentityIsRejectedWithAClearError) {
  const StoredReport whole = make_stored({make_job("a")});
  StoredReport alien = shard_of(whole, "0/1", {0});
  alien.identity.base_seed = 99;
  try {
    (void)merge(whole.identity, {alien}, names_of(whole));
    FAIL() << "identity mismatch must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("identity mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("seed"), std::string::npos) << what;
    EXPECT_NE(what.find("0/1"), std::string::npos) << what;  // which shard
  }
}

TEST(StoreMerge, UnknownJobAndDuplicateCorpusNamesAreRejected) {
  const StoredReport whole = make_stored({make_job("a")});
  StoredReport rogue = shard_of(whole, "0/1", {0});
  rogue.report.jobs[0].name = "not-in-corpus";
  EXPECT_THROW((void)merge(whole.identity, {rogue}, names_of(whole)),
               std::runtime_error);
  EXPECT_THROW((void)merge(whole.identity, {}, {"a", "a"}),
               std::runtime_error);
}

TEST(StoreMerge, MissingJobsBecomeCrashedPlaceholders) {
  const StoredReport whole =
      make_stored({make_job("a"), make_job("b"), make_job("c")});
  const std::vector<std::string> order = names_of(whole);
  // Shard 1/2 (owning "b") died without reporting: only its job crashes.
  const StoredReport merged =
      merge(whole.identity, {shard_of(whole, "0/2", {0, 2})}, order);
  ASSERT_EQ(merged.report.jobs.size(), 3u);
  EXPECT_EQ(merged.report.jobs[0].status, driver::JobStatus::kOk);
  EXPECT_EQ(merged.report.jobs[1].status, driver::JobStatus::kCrashed);
  EXPECT_EQ(merged.report.jobs[1].name, "b");
  EXPECT_NE(merged.report.jobs[1].detail.find("missing"), std::string::npos);
  EXPECT_EQ(merged.report.jobs[2].status, driver::JobStatus::kOk);
  // Crashed placeholders survive a serialize/parse round trip.
  const StoredReport reread = parse(serialize(merged));
  EXPECT_EQ(reread.report.jobs[1].status, driver::JobStatus::kCrashed);
}

TEST(StoreMerge, TolerancesSurviveMergeAndDiff) {
  const StoredReport baseline = make_stored({make_job("a"), make_job("b")});
  StoredReport drifted = make_stored({make_job("a"), make_job("b")});
  drifted.report.jobs[1].gate_count += 2;
  const std::vector<std::string> order = names_of(baseline);
  const StoredReport merged =
      merge(drifted.identity,
            {shard_of(drifted, "0/2", {0}), shard_of(drifted, "1/2", {1})},
            order);
  // The merged report diffs exactly like the in-process one: drift at
  // zero tolerance, clean once the tolerance covers the delta.
  const DiffReport tight = diff(baseline, merged);
  ASSERT_EQ(tight.deltas.size(), 1u);
  EXPECT_EQ(tight.deltas[0].kind, DeltaKind::kMetricDrift);
  DiffOptions tol;
  tol.gate_tolerance = 2;
  EXPECT_TRUE(diff(baseline, merged, tol).clean());
}

TEST(StoreDescribe, PinnedSpellings) {
  // These strings are persisted in golden files and key the serve result
  // cache; changing the synthesis spelling means bumping
  // core::kOptionsEncodingVersion and regenerating the golden corpus.
  EXPECT_EQ(describe(core::SynthesisOptions{}),
            "v4 fsv=1 minimize=1 factor=1 consensus=1 cover=essential-sop "
            "unique=1 assign-budget=500000 reduce-budget=1000000 tt=1 tt-mb=16");
  EXPECT_EQ(describe(core::SynthesisOptions{}),
            core::options_to_string(core::SynthesisOptions{}));
  EXPECT_EQ(describe(bench_suite::GeneratorOptions{}),
            "states=6 inputs=3 outputs=2 density=0.500000 mic-bias=0.700000");
  EXPECT_EQ(describe(driver::BatchOptions{}),
            "verify=1 ternary=1 gate=0 strict=0 timeout-ms=0");
  core::SynthesisOptions baseline;
  baseline.add_fsv = false;
  baseline.cover_mode = logic::CoverMode::kGreedy;
  EXPECT_NE(describe(baseline), describe(core::SynthesisOptions{}));
}

}  // namespace
}  // namespace seance::store
