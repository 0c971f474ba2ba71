// Shard-plan and shard-protocol contract tests: deterministic splits,
// shard-then-merge byte identity against the single-process run for many
// shard counts, and — through the real seance_cli orchestrator/worker
// re-exec — crash isolation (a killed worker loses only its own
// unflushed jobs), --resume healing, and the local run's private lease
// directory.

#include "driver/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/generator.hpp"
#include "driver/batch.hpp"
#include "store/store.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#define SEANCE_SHARD_CLI_TESTS 1
#endif

namespace seance::driver {
namespace {

TEST(ShardPlan, RoundRobinPartitionsEveryJobExactlyOnce) {
  const ShardPlan plan = ShardPlan::round_robin(10, 4);
  EXPECT_EQ(plan.num_shards, 4);
  ASSERT_EQ(plan.slices.size(), 4u);
  EXPECT_EQ(plan.slices[0], (std::vector<int>{0, 4, 8}));
  EXPECT_EQ(plan.slices[1], (std::vector<int>{1, 5, 9}));
  EXPECT_EQ(plan.slices[2], (std::vector<int>{2, 6}));
  EXPECT_EQ(plan.slices[3], (std::vector<int>{3, 7}));
  EXPECT_EQ(plan.job_count(), 10);
}

TEST(ShardPlan, MoreShardsThanJobsLeavesEmptySlices) {
  const ShardPlan plan = ShardPlan::round_robin(2, 5);
  EXPECT_EQ(plan.job_count(), 2);
  EXPECT_EQ(plan.slices[0], (std::vector<int>{0}));
  EXPECT_EQ(plan.slices[1], (std::vector<int>{1}));
  for (int s = 2; s < 5; ++s) {
    EXPECT_TRUE(plan.slices[static_cast<std::size_t>(s)].empty());
  }
}

TEST(ShardPlan, SingleShardIsTheWholeCorpus) {
  const ShardPlan plan = ShardPlan::round_robin(4, 1);
  ASSERT_EQ(plan.slices.size(), 1u);
  EXPECT_EQ(plan.slices[0], (std::vector<int>{0, 1, 2, 3}));
}

TEST(ShardPlan, InvalidArgumentsThrow) {
  EXPECT_THROW((void)ShardPlan::round_robin(1, 0), std::invalid_argument);
  EXPECT_THROW((void)ShardPlan::round_robin(-1, 2), std::invalid_argument);
}

TEST(ShardPlan, EstimateCostGrowsWithChartArea) {
  bench_suite::GeneratorOptions small;
  bench_suite::GeneratorOptions big = kHardShape;
  const JobSpec a("a", bench_suite::generate(small));
  const JobSpec b("b", bench_suite::generate(big));
  EXPECT_GT(estimate_cost(b), estimate_cost(a));
}

/// The 60-job mixed corpus the shard-then-merge property runs: Table-1
/// suite + extras + generated 6x3 + hard 8x4 shapes.
BatchRunner mixed_corpus(const BatchOptions& options) {
  BatchRunner runner(options);
  runner.add_table1_suite();
  runner.add_extra_suite();
  bench_suite::GeneratorOptions gen;
  gen.seed = 7;
  runner.add_generated(44, gen);
  runner.add_hard_generated(10, 7);
  return runner;
}

store::CorpusIdentity mixed_identity(const BatchOptions& options) {
  store::CorpusIdentity identity;
  identity.base_seed = 7;
  identity.corpus = "table1+extra+gen44+hard10";
  identity.checks = store::describe(options);
  identity.synthesis = store::describe(options.synthesis);
  bench_suite::GeneratorOptions gen;
  gen.seed = 7;
  identity.generator = store::describe(gen);
  return identity;
}

TEST(ShardMerge, ShardThenMergeIsByteIdenticalToSingleProcessForEveryK) {
  BatchOptions options;
  options.threads = 4;
  BatchRunner full = mixed_corpus(options);
  ASSERT_EQ(full.job_count(), 60);
  const store::CorpusIdentity identity = mixed_identity(options);

  store::StoredReport baseline;
  baseline.identity = identity;
  baseline.report = full.run();
  const std::string want = store::serialize(baseline);

  std::vector<std::string> names;
  for (const auto& spec : full.jobs()) names.push_back(spec.name);

  for (const int k : {1, 2, 3, 7, 16}) {
    const ShardPlan plan = ShardPlan::round_robin(full.job_count(), k);
    std::vector<store::StoredReport> shards;
    for (int s = 0; s < k; ++s) {
      BatchRunner slice(options);
      for (const int job : plan.slices[static_cast<std::size_t>(s)]) {
        slice.add(full.jobs()[static_cast<std::size_t>(job)]);
      }
      store::StoredReport shard;
      shard.identity = identity;
      shard.identity.shard = std::to_string(s) + "/" + std::to_string(k);
      shard.report = slice.run();
      shards.push_back(std::move(shard));
    }
    const store::StoredReport merged = store::merge(identity, shards, names);
    // Byte identity covers everything the store persists: job order,
    // statuses, every metric column, and the identity header.
    EXPECT_EQ(store::serialize(merged), want) << "K=" << k;
  }
}

#ifdef SEANCE_SHARD_CLI_TESTS

// ---- Process-level tests through the real CLI orchestrator. ----

int run_command(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return 128 + (WIFSIGNALED(rc) ? WTERMSIG(rc) : 0);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Name -> status map from a batch --csv report.
std::map<std::string, std::string> csv_statuses(const std::string& csv) {
  std::map<std::string, std::string> out;
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos) continue;
    const std::string name = line.substr(0, comma);
    const std::size_t next = line.find(',', comma + 1);
    out[name] = line.substr(comma + 1, next - comma - 1);
  }
  return out;
}

class ShardCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = std::filesystem::path(testing::TempDir()) /
            ("seance_shard_cli_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    std::filesystem::remove_all(work_);
    std::filesystem::create_directories(work_);
  }
  void TearDown() override { std::filesystem::remove_all(work_); }

  [[nodiscard]] std::string quoted(const std::filesystem::path& p) const {
    return "'" + p.string() + "'";
  }

  std::filesystem::path work_;
  // Pre-quoted: the build tree path (and thus the CLI binary) can
  // contain spaces, and these commands go through the shell.
  const std::string cli_ = "'" SEANCE_CLI_PATH "'";
};

TEST_F(ShardCliTest, ShardedBaselineIsByteIdenticalToUnsharded) {
  const auto unsharded = work_ / "unsharded.store";
  const auto sharded = work_ / "sharded.store";
  const std::string corpus = " baseline --no-suite --random 10 --jobs 2 --quiet ";
  ASSERT_EQ(run_command(cli_ + corpus + "--out " + quoted(unsharded) +
                        " > /dev/null 2>&1"),
            0);
  ASSERT_EQ(run_command(cli_ + corpus + "--shards 3 --shard-dir " +
                        quoted(work_ / "shards") + " --out " + quoted(sharded) +
                        " > /dev/null 2>&1"),
            0);
  const std::string a = read_file(unsharded);
  const std::string b = read_file(sharded);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST_F(ShardCliTest, CrashedWorkerLosesOnlyItsUnflushedJobsAndResumeHeals) {
  const auto shard_dir = work_ / "shards";
  const auto crashed_csv = work_ / "crashed.csv";
  const auto healed_csv = work_ / "healed.csv";
  // One worker thread each and a 12-job corpus over 3 shards: shard 0
  // owns jobs 0,3,6,9 in that order, and the hidden hook kills it after
  // two rows hit the disk.
  const std::string base = cli_ +
                           " batch --no-suite --random 12 --jobs 1 --quiet "
                           "--shards 3 --shard-dir " +
                           quoted(shard_dir);
  ASSERT_EQ(run_command(base + " --shard-worker-die-after 2 --csv " +
                        quoted(crashed_csv) + " > /dev/null 2>&1"),
            1);

  const auto statuses = csv_statuses(read_file(crashed_csv));
  ASSERT_EQ(statuses.size(), 12u);
  for (const auto& [name, status] : statuses) {
    if (name == "gen-6x3-0006" || name == "gen-6x3-0009") {
      EXPECT_EQ(status, "crashed") << name;
    } else {
      EXPECT_EQ(status, "ok") << name;
    }
  }

  // Resume re-runs only shard 0: the other shard files stay byte-
  // untouched, and the merged run comes back clean.
  const std::string shard1_before = read_file(shard_dir / "shard-1-of-3.csv");
  const std::string shard2_before = read_file(shard_dir / "shard-2-of-3.csv");
  ASSERT_FALSE(shard1_before.empty());
  ASSERT_EQ(run_command(base + " --resume --csv " + quoted(healed_csv) +
                        " > /dev/null 2>&1"),
            0);
  EXPECT_EQ(read_file(shard_dir / "shard-1-of-3.csv"), shard1_before);
  EXPECT_EQ(read_file(shard_dir / "shard-2-of-3.csv"), shard2_before);

  const auto healed = csv_statuses(read_file(healed_csv));
  ASSERT_EQ(healed.size(), 12u);
  for (const auto& [name, status] : healed) EXPECT_EQ(status, "ok") << name;
}

TEST_F(ShardCliTest, ShardedBatchCsvMatchesUnshardedAcrossThreadCounts) {
  const auto a = work_ / "a.csv";
  const auto b = work_ / "b.csv";
  ASSERT_EQ(run_command(cli_ + " batch --random 8 --jobs 1 --quiet --csv " +
                        quoted(a) + " > /dev/null 2>&1"),
            0);
  ASSERT_EQ(run_command(cli_ + " batch --random 8 --jobs 4 --quiet --shards 2 "
                        "--shard-dir " +
                        quoted(work_ / "shards") + " --csv " + quoted(b) +
                        " > /dev/null 2>&1"),
            0);
  EXPECT_EQ(read_file(a), read_file(b));
}

// ---- Fleet-mode tests: the leased orchestration through the CLI. ----

TEST_F(ShardCliTest, LocalLeaseUnitsKeepByteIdentityAcrossShardCounts) {
  // More lease units than worker processes: workers drain units
  // dynamically instead of owning one fixed slice each.  The merged CSV
  // must not depend on the worker count or the drain order.
  const auto unsharded = work_ / "unsharded.csv";
  const std::string corpus = " batch --no-suite --random 10 --jobs 2 --quiet ";
  ASSERT_EQ(run_command(cli_ + corpus + "--csv " + quoted(unsharded) +
                        " > /dev/null 2>&1"),
            0);
  const std::string want = read_file(unsharded);
  ASSERT_FALSE(want.empty());

  for (const int k : {1, 2, 4}) {
    const auto csv = work_ / ("local-" + std::to_string(k) + ".csv");
    ASSERT_EQ(run_command(cli_ + corpus + "--shards " + std::to_string(k) +
                          " --lease-units 6 --shard-dir " +
                          quoted(work_ / ("shards-" + std::to_string(k))) +
                          " --csv " + quoted(csv) + " > /dev/null 2>&1"),
              0)
        << "K=" << k;
    EXPECT_EQ(read_file(csv), want) << "K=" << k;
  }
}

TEST_F(ShardCliTest, FleetDirMergesByteIdenticallyAcrossRunnerCounts) {
  const auto unsharded = work_ / "unsharded.csv";
  const std::string corpus = " batch --no-suite --random 10 --jobs 2 --quiet ";
  ASSERT_EQ(run_command(cli_ + corpus + "--csv " + quoted(unsharded) +
                        " > /dev/null 2>&1"),
            0);
  const std::string want = read_file(unsharded);
  ASSERT_FALSE(want.empty());

  for (const int runners : {1, 2, 4}) {
    const auto fleet_dir = work_ / ("fleet-" + std::to_string(runners));
    const auto csv = work_ / ("fleet-" + std::to_string(runners) + ".csv");
    const std::string base =
        cli_ + corpus + "--lease-units 6 --fleet-dir " + quoted(fleet_dir);
    // Helper runners are unit-capped and exit without merging (their
    // report is incomplete by design); the closer resolves the rest —
    // executing what is left and observing the helpers' units as
    // completed elsewhere — and writes the merged CSV.
    for (int r = 0; r + 1 < runners; ++r) {
      ASSERT_EQ(run_command(base + " --runner-id helper-" + std::to_string(r) +
                            " --fleet-max-units 2 > /dev/null 2>&1"),
                0)
          << "runners=" << runners;
    }
    ASSERT_EQ(run_command(base + " --runner-id closer --csv " + quoted(csv) +
                          " > /dev/null 2>&1"),
              0)
        << "runners=" << runners;
    EXPECT_EQ(read_file(csv), want) << "runners=" << runners;
  }
}

TEST_F(ShardCliTest, DeadFleetRunnerIsReLeasedByTheSurvivor) {
  // Runner m1 dies (hidden test hook: _Exit(3) on its second acquire)
  // holding a fresh, unserved lease.  m2 must wait out the TTL, re-lease
  // the dead runner's unit, and still merge byte-identically.
  const auto unsharded = work_ / "unsharded.csv";
  const auto csv = work_ / "fleet.csv";
  const auto m2_log = work_ / "m2.log";
  // No --quiet here: the assertion below reads the per-unit summary lines.
  const std::string corpus = " batch --no-suite --random 10 --jobs 2 ";
  ASSERT_EQ(run_command(cli_ + corpus + "--csv " + quoted(unsharded) +
                        " > /dev/null 2>&1"),
            0);
  const std::string base = cli_ + corpus +
                           "--lease-units 5 --lease-ttl 300 --fleet-dir " +
                           quoted(work_ / "fleet");
  ASSERT_EQ(run_command(base + " --runner-id m1 --fleet-die-after-acquire 1 "
                        "> /dev/null 2>&1"),
            3);
  ASSERT_EQ(run_command(base + " --runner-id m2 --csv " + quoted(csv) + " > " +
                        quoted(m2_log) + " 2>&1"),
            0);
  // The survivor's summary names the re-leased unit.
  EXPECT_NE(read_file(m2_log).find("(re-leased)"), std::string::npos);
  EXPECT_EQ(read_file(csv), read_file(unsharded));
}

TEST_F(ShardCliTest, LocalLeasesLiveInAPrivateDirOutsideTheShardDir) {
  // A local run is a one-runner fleet over a private mkdtemp lease
  // directory under TMPDIR: it is gone after the run, --shard-dir holds
  // nothing but slice stores, and a changed recipe reuses that shard dir
  // without tripping over lease state left by the first run.
  const auto tmp = work_ / "tmp";
  const auto shard_dir = work_ / "shards";
  std::filesystem::create_directories(tmp);
  for (const std::string seed : {"1", "2"}) {
    SCOPED_TRACE("seed " + seed);
    const std::string corpus =
        " batch --no-suite --random 6 --jobs 2 --quiet --seed " + seed + " ";
    const auto unsharded = work_ / ("unsharded-" + seed + ".csv");
    const auto sharded = work_ / ("sharded-" + seed + ".csv");
    ASSERT_EQ(run_command(cli_ + corpus + "--csv " + quoted(unsharded) +
                          " > /dev/null 2>&1"),
              0);
    ASSERT_EQ(run_command("TMPDIR=" + quoted(tmp) + " " + cli_ + corpus +
                          "--shards 2 --shard-dir " + quoted(shard_dir) +
                          " --csv " + quoted(sharded) + " > /dev/null 2>&1"),
              0);
    EXPECT_TRUE(std::filesystem::is_empty(tmp));
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(shard_dir)) {
      files.push_back(entry.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, (std::vector<std::string>{"shard-0-of-2.csv",
                                               "shard-1-of-2.csv"}));
    const std::string want = read_file(unsharded);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(read_file(sharded), want);
  }
}

TEST_F(ShardCliTest, LocalCrashedUnitRunsExactlyOnce) {
  // A local run gives each unit one lease attempt.  The crash hook kills
  // unit 0's worker after its first row on every attempt, and --progress
  // (forwarded to the workers) prints that row once per attempt.
  const auto log = work_ / "progress.log";
  ASSERT_EQ(run_command(cli_ +
                        " batch --no-suite --random 6 --jobs 1 --quiet "
                        "--progress --shards 2 --shard-dir " +
                        quoted(work_ / "shards") +
                        " --shard-worker-die-after 1 > /dev/null 2> " +
                        quoted(log)),
            1);
  const std::string text = read_file(log);
  int runs = 0;
  for (std::size_t at = text.find("gen-6x3-0000 "); at != std::string::npos;
       at = text.find("gen-6x3-0000 ", at + 1)) {
    ++runs;
  }
  EXPECT_EQ(runs, 1) << text;
}

TEST_F(ShardCliTest, RunnerIdWithASlashIsRejectedByName) {
  // A helper creates fleet-config first; the joiner's id cannot be
  // spliced into a lease file name.  It must exit 1 naming the id, not
  // spin forever on claims it can never write (`timeout` turns a hang
  // into exit 124).
  const std::string base = cli_ +
                           " batch --no-suite --random 2 --jobs 1 --quiet "
                           "--lease-units 2 --fleet-dir " +
                           quoted(work_ / "fleet");
  ASSERT_EQ(run_command(base + " --runner-id helper --fleet-max-units 1 "
                        "> /dev/null 2>&1"),
            0);
  const auto log = work_ / "joiner.log";
  EXPECT_EQ(run_command("timeout 20 " + base + " --runner-id a/b > " +
                        quoted(log) + " 2>&1"),
            1);
  EXPECT_NE(read_file(log).find("'a/b'"), std::string::npos) << read_file(log);

  // As the first runner of a fresh fleet the same id gets the same error.
  const auto first_log = work_ / "first.log";
  EXPECT_EQ(run_command("timeout 20 " + cli_ +
                        " batch --no-suite --random 2 --jobs 1 --quiet "
                        "--fleet-dir " +
                        quoted(work_ / "fresh") + " --runner-id a/b > " +
                        quoted(first_log) + " 2>&1"),
            1);
  EXPECT_NE(read_file(first_log).find("'a/b'"), std::string::npos)
      << read_file(first_log);
}

// ---- Option validation through the real CLI. ----

class CliOptionTest : public ShardCliTest {};

TEST_F(CliOptionTest, TtMbIsAnUnknownOption) {
  // The memo size is fixed (core::SynthesisOptions::tt_mb); the flag that
  // once set it is gone, not silently ignored.
  const auto log = work_ / "cli.log";
  EXPECT_EQ(run_command("timeout 20 " + cli_ + " test_example --tt-mb 16 > " +
                        quoted(log) + " 2>&1"),
            1);
  EXPECT_NE(read_file(log).find("unknown option --tt-mb"), std::string::npos)
      << read_file(log);
}

TEST_F(CliOptionTest, IntegerOptionsRejectValuesPastTheirType) {
  // Both values once wrapped through a cast to int: --random 4294967298
  // ran 2 jobs and --jobs 4294967297 ran 1 thread.  A run that gets past
  // parsing exits 0 (or 124 from `timeout`), never 1.
  const struct {
    const char* args;
    const char* option;
  } cases[] = {{"batch --no-suite --random 4294967298", "--random"},
               {"batch --jobs 4294967297", "--jobs"},
               {"batch --no-suite --random -4294967295", "--random"},
               {"batch --no-suite --seed -1", "--seed"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.args);
    const auto log = work_ / "cli.log";
    EXPECT_EQ(run_command("timeout 20 " + cli_ + " " + c.args + " > " +
                          quoted(log) + " 2>&1"),
              1);
    EXPECT_NE(read_file(log).find(std::string("option ") + c.option),
              std::string::npos)
        << read_file(log);
  }
}

TEST_F(CliOptionTest, CacheMemMbRejectsNonFiniteAndOversizedValues) {
  // inf once cast to 0 bytes (the LRU silently off), nan to 2^63 bytes;
  // 2^44 MiB is 2^64 bytes, one past SIZE_MAX.  Each exits 1 naming the
  // option before serving anything.
  for (const char* value : {"inf", "nan", "-inf", "1e300", "17592186044416"}) {
    SCOPED_TRACE(value);
    const auto log = work_ / "cli.log";
    EXPECT_EQ(run_command("timeout 20 " + cli_ +
                          " serve --no-disk-cache --cache-mem-mb " + value +
                          " < /dev/null > " + quoted(log) + " 2>&1"),
              1);
    EXPECT_NE(read_file(log).find("option --cache-mem-mb"), std::string::npos)
        << read_file(log);
  }
}

TEST_F(CliOptionTest, TimeoutPastTheClockRangeMeansNoDeadline) {
  // A budget of 1e15 ms or more once overflowed the clock conversion and
  // timed every job out at once.
  for (const char* value : {"1e15", "1e300"}) {
    SCOPED_TRACE(value);
    const auto csv = work_ / "rows.csv";
    EXPECT_EQ(run_command("timeout 60 " + cli_ +
                          " batch --no-suite --random 1 --quiet --timeout " +
                          value + " --csv " + quoted(csv) + " > /dev/null"),
              0);
    EXPECT_EQ(csv_statuses(read_file(csv)),
              (std::map<std::string, std::string>{{"gen-6x3-0000", "ok"}}));
  }
}

TEST_F(CliOptionTest, ServeAnswersErrToBadOptLinesAndKeepsServing) {
  const auto emitted = work_ / "one.txt";
  ASSERT_EQ(run_command(cli_ + " batch --no-suite --random 1 --quiet "
                               "--emit-requests " +
                        quoted(emitted) + " > /dev/null"),
            0);
  const std::string request = read_file(emitted);
  const std::string good = "tt=1";
  ASSERT_NE(request.find(good), std::string::npos) << request;
  // A value outside 0/1, a retired v5 budget key, and the retired v4
  // tt-mb key.
  const struct {
    const char* replacement;
    const char* key;
  } bad[] = {{"tt=2", "tt must be 0 or 1"},
             {"tt=1 assign-budget=500000", "'assign-budget'"},
             {"tt=1 tt-mb=16", "'tt-mb'"}};
  std::string script;
  for (const auto& b : bad) {
    std::string r = request;
    r.replace(r.find(good), good.size(), b.replacement);
    script += r;
  }
  script += request;
  const auto in = work_ / "requests.txt";
  std::ofstream(in) << script;
  const auto out = work_ / "replies.txt";
  ASSERT_EQ(run_command("timeout 20 " + cli_ +
                        " serve --no-disk-cache --quiet < " + quoted(in) +
                        " > " + quoted(out) + " 2>&1"),
            0);
  // A rejected OPT ends its exchange, so the rest of that request's lines
  // each get an ERR of their own before the good request is answered.
  const std::string replies = read_file(out);
  std::istringstream lines(replies);
  std::string line;
  std::vector<std::string> option_errors;
  std::string last_res;
  while (std::getline(lines, line)) {
    if (line.rfind("ERR options: ", 0) == 0) option_errors.push_back(line);
    if (line.rfind("RES ", 0) == 0) last_res = line;
  }
  ASSERT_EQ(option_errors.size(), 3u) << replies;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NE(option_errors[i].find(bad[i].key), std::string::npos)
        << option_errors[i];
  }
  EXPECT_EQ(last_res.rfind("RES miss ", 0), 0u) << replies;
}

#endif  // SEANCE_SHARD_CLI_TESTS

}  // namespace
}  // namespace seance::driver
