// Fleet-layer unit tests: steal-safe slice naming, the slice-store
// completion authority (slice_file_complete), the DirBackend lease
// protocol, and FleetRunner over a real DirBackend with a stub executor
// that writes real store files.  The end-to-end CLI fleet paths (re-exec
// workers, killed runners, byte-identical merges) live in
// test_shard_driver.cpp; everything here runs in-process and fast.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "driver/shard.hpp"
#include "fleet/dir.hpp"
#include "fleet/fleet.hpp"
#include "fleet/process.hpp"
#include "store/store.hpp"

namespace seance::fleet {
namespace {

namespace fs = std::filesystem;
using driver::ShardPlan;

// ------------------------------------------------- steal-safe naming

TEST(SliceNaming, TagAndFileEmbedTheUnitTotal) {
  EXPECT_EQ(ShardPlan::slice_tag(0, 4), "0/4");
  EXPECT_EQ(ShardPlan::slice_tag(3, 4), "3/4");
  EXPECT_EQ(ShardPlan::slice_file(0, 4), "shard-0-of-4.csv");
  EXPECT_EQ(ShardPlan::slice_file(11, 16), "shard-11-of-16.csv");
}

TEST(SliceNaming, ParseRoundTripsAndRejectsGarbage) {
  int u = -1;
  int t = -1;
  EXPECT_TRUE(ShardPlan::parse_slice_tag("2/5", &u, &t));
  EXPECT_EQ(u, 2);
  EXPECT_EQ(t, 5);
  for (const char* bad :
       {"", "/", "2/", "/5", "a/5", "2/b", "2/5x", " 2/5", "2 /5", "-1/5",
        "5/5", "6/5", "0/0", "0/-2", "2//5", "02/5", "2/05"}) {
    EXPECT_FALSE(ShardPlan::parse_slice_tag(bad, &u, &t)) << bad;
  }
}

TEST(SliceNaming, LeaseUnitsClampsToRealWork) {
  // requested wins when positive, fallback otherwise, never an empty unit.
  EXPECT_EQ(ShardPlan::lease_units(100, 6, 16), 6);
  EXPECT_EQ(ShardPlan::lease_units(100, 0, 16), 16);
  EXPECT_EQ(ShardPlan::lease_units(100, -3, 16), 16);
  EXPECT_EQ(ShardPlan::lease_units(4, 16, 16), 4);   // corpus smaller than K
  EXPECT_EQ(ShardPlan::lease_units(1, 16, 16), 1);
  EXPECT_EQ(ShardPlan::lease_units(0, 16, 16), 1);   // degenerate corpus
}

// --------------------------------------------------------- fixtures

store::CorpusIdentity test_identity() {
  store::CorpusIdentity id;
  id.base_seed = 7;
  id.corpus = "fleet-test";
  id.checks = "checks";
  id.synthesis = "synthesis";
  id.generator = "generator";
  return id;
}

/// A complete slice report: one default-constructed row per job name.
store::StoredReport report_for(const store::CorpusIdentity& id,
                               const std::string& tag,
                               const std::vector<std::string>& names) {
  store::StoredReport r;
  r.identity = id;
  r.identity.shard = tag;
  for (const std::string& name : names) {
    driver::JobResult j;
    j.name = name;
    r.report.jobs.push_back(std::move(j));
  }
  return r;
}

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("seance_fleet_") + info->test_suite_name() + "_" +
             info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// names job-0..job-(n-1), round_robin over `units` lease units.
  std::vector<Slice> make_corpus(int n, int units) {
    names_.clear();
    for (int i = 0; i < n; ++i) names_.push_back("job-" + std::to_string(i));
    return make_slices(ShardPlan::round_robin(n, units), names_, {}, dir_);
  }

  std::string dir_;
  std::vector<std::string> names_;
};

// ---------------------------------------------- slice_file_complete

using SliceFileComplete = FleetTest;

TEST_F(SliceFileComplete, AcceptsExactlyTheSliceItNames) {
  const auto slices = make_corpus(5, 2);  // slice 0 = job-0, job-2, job-4
  const Slice& s = slices[0];
  store::save(s.store_path, report_for(test_identity(), s.tag, s.job_names));
  EXPECT_TRUE(slice_file_complete(s.store_path, test_identity(), s.tag,
                                  s.job_names));
}

TEST_F(SliceFileComplete, MissingOrTornFilesAreIncomplete) {
  const auto slices = make_corpus(5, 2);
  const Slice& s = slices[0];
  EXPECT_FALSE(slice_file_complete(s.store_path, test_identity(), s.tag,
                                   s.job_names));
}

TEST_F(SliceFileComplete, StaleUnitTotalInShardTagIsIncomplete) {
  // A file left by a previous run at different --lease-units granularity:
  // same index, different total.  Must not be reused.
  const auto slices = make_corpus(6, 2);
  const Slice& s = slices[0];
  store::save(s.store_path, report_for(test_identity(), "0/3", s.job_names));
  EXPECT_FALSE(slice_file_complete(s.store_path, test_identity(), s.tag,
                                   s.job_names));
}

TEST_F(SliceFileComplete, DuplicateJobNamesInReportAreIncomplete) {
  // Same row count as the slice, but one name twice and one missing —
  // a plain size check would wave it through.
  const auto slices = make_corpus(4, 2);
  const Slice& s = slices[0];  // job-0, job-2
  store::save(s.store_path,
              report_for(test_identity(), s.tag, {"job-0", "job-0"}));
  EXPECT_FALSE(slice_file_complete(s.store_path, test_identity(), s.tag,
                                   s.job_names));
}

TEST_F(SliceFileComplete, StrictSupersetReportIsIncomplete) {
  // A report covering MORE than the slice (e.g. a whole-corpus file
  // dropped into the shard dir) must not pass as this slice.
  const auto slices = make_corpus(4, 2);
  const Slice& s = slices[0];  // job-0, job-2
  store::save(s.store_path, report_for(test_identity(), s.tag,
                                       {"job-0", "job-1", "job-2", "job-3"}));
  EXPECT_FALSE(slice_file_complete(s.store_path, test_identity(), s.tag,
                                   s.job_names));
}

TEST_F(SliceFileComplete, SubsetReportIsIncomplete) {
  const auto slices = make_corpus(4, 2);
  const Slice& s = slices[0];
  store::save(s.store_path, report_for(test_identity(), s.tag, {"job-0"}));
  EXPECT_FALSE(slice_file_complete(s.store_path, test_identity(), s.tag,
                                   s.job_names));
}

TEST_F(SliceFileComplete, ForeignIdentityIsIncomplete) {
  const auto slices = make_corpus(4, 2);
  const Slice& s = slices[0];
  store::CorpusIdentity other = test_identity();
  other.base_seed = 8;
  store::save(s.store_path, report_for(other, s.tag, s.job_names));
  EXPECT_FALSE(slice_file_complete(s.store_path, test_identity(), s.tag,
                                   s.job_names));
}

// --------------------------------------------------------- DirBackend

using DirBackendTest = FleetTest;

TEST_F(DirBackendTest, ClaimIsExclusiveAcrossRunners) {
  const auto slices = make_corpus(4, 2);
  DirBackend a(dir_, {.runner_id = "a", .lease_ttl_ms = 60000});
  DirBackend b(dir_, {.runner_id = "b", .lease_ttl_ms = 60000});

  EXPECT_EQ(a.status(slices[0]), LeaseState::kFree);
  EXPECT_TRUE(a.acquire(slices[0]).ok);
  const AcquireResult blocked = b.acquire(slices[0]);
  EXPECT_FALSE(blocked.ok);
  EXPECT_EQ(blocked.detail, "held by a");
  EXPECT_EQ(b.status(slices[0]), LeaseState::kHeld);
  EXPECT_TRUE(a.heartbeat(slices[0]));
  EXPECT_FALSE(b.heartbeat(slices[0]));  // not b's lease

  EXPECT_TRUE(a.complete(slices[0]));
  EXPECT_EQ(b.status(slices[0]), LeaseState::kDone);
  EXPECT_EQ(b.acquire(slices[0]).detail, "already complete");
}

TEST_F(DirBackendTest, ExpiredLeaseIsStolenAndTheLoserNotices) {
  const auto slices = make_corpus(4, 2);
  DirBackend ghost(dir_, {.runner_id = "ghost", .lease_ttl_ms = 25});
  DirBackend thief(dir_, {.runner_id = "thief", .lease_ttl_ms = 25});

  ASSERT_TRUE(ghost.acquire(slices[0]).ok);
  EXPECT_FALSE(thief.acquire(slices[0]).ok);  // still fresh
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(thief.status(slices[0]), LeaseState::kExpired);

  const AcquireResult steal = thief.acquire(slices[0]);
  EXPECT_TRUE(steal.ok);
  EXPECT_TRUE(steal.stolen);
  EXPECT_EQ(steal.detail, "re-leased from ghost");
  // The ghost's next heartbeat reports the loss; the thief's succeeds.
  EXPECT_FALSE(ghost.heartbeat(slices[0]));
  EXPECT_TRUE(thief.heartbeat(slices[0]));
}

TEST_F(DirBackendTest, HeartbeatKeepsALeaseAliveAcrossTheTtl) {
  const auto slices = make_corpus(4, 2);
  DirBackend owner(dir_, {.runner_id = "owner", .lease_ttl_ms = 50});
  DirBackend rival(dir_, {.runner_id = "rival", .lease_ttl_ms = 50});
  ASSERT_TRUE(owner.acquire(slices[0]).ok);
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(owner.heartbeat(slices[0]));
  }
  // 100ms elapsed, twice the TTL — the heartbeats are what held it.
  EXPECT_FALSE(rival.acquire(slices[0]).ok);
}

TEST_F(DirBackendTest, AbandonReleasesImmediately) {
  const auto slices = make_corpus(4, 2);
  DirBackend quitter(dir_, {.runner_id = "quitter", .lease_ttl_ms = 60000});
  DirBackend next(dir_, {.runner_id = "next", .lease_ttl_ms = 60000});
  ASSERT_TRUE(quitter.acquire(slices[0]).ok);
  quitter.abandon(slices[0]);
  // No TTL wait: the backdated lease is instantly stealable.
  const AcquireResult retry = next.acquire(slices[0]);
  EXPECT_TRUE(retry.ok);
  EXPECT_TRUE(retry.stolen);
}

TEST_F(DirBackendTest, AttemptBudgetRetiresASlice) {
  // max_attempts 3 is the fleet default; 1 is a local run, where one
  // abandon retires the slice at once (PR 5's contract: a crashed
  // worker's jobs are reported as crashed, never silently re-run).
  const auto slices = make_corpus(4, 2);
  for (const int budget : {3, 1}) {
    SCOPED_TRACE("max_attempts " + std::to_string(budget));
    const Slice& slice = slices[budget == 3 ? 0 : 1];
    DirBackend r(dir_, {.runner_id = "r", .lease_ttl_ms = 60000,
                        .max_attempts = budget});
    ASSERT_TRUE(r.acquire(slice).ok);  // attempt 1
    r.abandon(slice);
    for (int attempt = 2; attempt <= budget; ++attempt) {
      EXPECT_EQ(r.status(slice), LeaseState::kExpired);
      EXPECT_TRUE(r.acquire(slice).stolen) << "attempt " << attempt;
      r.abandon(slice);
    }
    EXPECT_EQ(r.status(slice), LeaseState::kDead);
    const AcquireResult spent = r.acquire(slice);
    EXPECT_FALSE(spent.ok);
    EXPECT_EQ(spent.detail, "attempts exhausted");
    EXPECT_FALSE(r.heartbeat(slice));
  }
}

TEST_F(DirBackendTest, BindRejectsAMismatchedFleet) {
  DirBackend first(dir_, {.runner_id = "first"});
  DirBackend second(dir_, {.runner_id = "second"});
  first.bind(test_identity(), 4);
  EXPECT_NO_THROW(second.bind(test_identity(), 4));  // same recipe: joins
  store::CorpusIdentity other = test_identity();
  other.base_seed = 99;
  EXPECT_THROW(second.bind(other, 4), std::runtime_error);       // recipe
  EXPECT_THROW(second.bind(test_identity(), 8), std::runtime_error);  // units
}

TEST_F(DirBackendTest, RunnerIdMustBeAPlainFileNameToken) {
  // The id is spliced into temp-file names: with a '/' every claim
  // would fail as a lost race and a joiner would spin forever.
  for (const std::string bad : {"", "a/b", "a\nb"}) {
    try {
      DirBackend backend(dir_, {.runner_id = bad});
      ADD_FAILURE() << "accepted runner id '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(DirBackend(dir_, {.runner_id = "host-1.lab_A"}));
  EXPECT_NO_THROW(DirBackend(dir_, {.runner_id = default_runner_id()}));
}

// --------------------------------------------------------- FleetRunner

/// Executor stub: "runs" a slice by writing its complete store file.
class StubExecutor : public SliceExecutor {
 public:
  explicit StubExecutor(store::CorpusIdentity id, bool succeed = true)
      : id_(std::move(id)), succeed_(succeed) {}

  std::unique_ptr<SliceRun> start(const Slice& slice) override {
    ++started_;
    if (succeed_) {
      store::save(slice.store_path, report_for(id_, slice.tag, slice.job_names));
    }
    return std::make_unique<Run>(succeed_);
  }

  int started() const { return started_; }

 private:
  class Run : public SliceRun {
   public:
    explicit Run(bool clean) : clean_(clean) {}
    bool poll(std::string* exit_detail) override {
      *exit_detail = clean_ ? "" : "killed by signal 11";
      return true;
    }
    void cancel() override {}

   private:
    bool clean_;
  };

  store::CorpusIdentity id_;
  bool succeed_;
  int started_ = 0;
};

FleetOptions runner_options(const std::string& id) {
  FleetOptions o;
  o.runner_id = id;
  o.max_concurrent = 2;
  o.heartbeat_ms = 5;
  o.poll_ms = 1;
  o.identity = test_identity();
  return o;
}

using FleetRunnerTest = FleetTest;

TEST_F(FleetRunnerTest, SingleRunnerResolvesEverythingAndMergesByteIdentically) {
  const auto slices = make_corpus(7, 3);
  DirBackend lease(dir_, {.runner_id = "solo"});
  StubExecutor exec(test_identity());
  FleetRunner runner(lease, exec, runner_options("solo"));
  const FleetReport fleet = runner.run(slices);

  EXPECT_TRUE(fleet.all_resolved());
  EXPECT_EQ(fleet.executed, 3);
  EXPECT_EQ(fleet.dead, 0);
  EXPECT_EQ(exec.started(), 3);

  const store::StoredReport merged =
      merge_units(test_identity(), slices, fleet, names_);
  const store::StoredReport whole =
      report_for(test_identity(), /*tag=*/"", names_);
  EXPECT_EQ(store::serialize(merged), store::serialize(whole));
}

TEST_F(FleetRunnerTest, ReuseCompleteSkipsFinishedSlices) {
  const auto slices = make_corpus(6, 3);
  // Slice 1's file is already complete from a previous run.
  store::save(slices[1].store_path,
              report_for(test_identity(), slices[1].tag, slices[1].job_names));
  DirBackend lease(dir_, {.runner_id = "resume"});
  StubExecutor exec(test_identity());
  FleetOptions opts = runner_options("resume");
  opts.reuse_complete = true;
  const FleetReport fleet = FleetRunner(lease, exec, opts).run(slices);

  EXPECT_TRUE(fleet.all_resolved());
  EXPECT_EQ(fleet.reused, 1);
  EXPECT_EQ(fleet.executed, 2);
  EXPECT_EQ(exec.started(), 2);
  const store::StoredReport merged =
      merge_units(test_identity(), slices, fleet, names_);
  EXPECT_EQ(store::serialize(merged),
            store::serialize(report_for(test_identity(), "", names_)));
}

TEST_F(FleetRunnerTest, FailedSlicesDieAndMergeAsCrashedRows) {
  const auto slices = make_corpus(4, 2);
  // One attempt, as in a local run: abandon -> kDead, no retry.
  DirBackend lease(dir_, {.runner_id = "doomed", .max_attempts = 1});
  StubExecutor exec(test_identity(), /*succeed=*/false);
  const FleetReport fleet =
      FleetRunner(lease, exec, runner_options("doomed")).run(slices);

  EXPECT_TRUE(fleet.all_resolved());
  EXPECT_EQ(fleet.dead, 2);
  EXPECT_EQ(fleet.executed, 0);
  EXPECT_EQ(exec.started(), 2);

  const store::StoredReport merged =
      merge_units(test_identity(), slices, fleet, names_);
  ASSERT_EQ(merged.report.jobs.size(), names_.size());
  for (const driver::JobResult& j : merged.report.jobs) {
    EXPECT_EQ(j.status, driver::JobStatus::kCrashed) << j.name;
    EXPECT_NE(j.detail.find("killed by signal 11"), std::string::npos)
        << j.detail;
  }
}

TEST_F(FleetRunnerTest, TwoRunnersOverOneDirSplitTheWork) {
  const auto slices = make_corpus(8, 4);
  DirBackend::Options backend{.runner_id = "m1", .lease_ttl_ms = 60000};
  DirBackend lease1(dir_, backend);
  backend.runner_id = "m2";
  DirBackend lease2(dir_, backend);
  lease1.bind(test_identity(), 4);
  lease2.bind(test_identity(), 4);

  StubExecutor exec1(test_identity());
  StubExecutor exec2(test_identity());
  // m1 is budget-capped to 2 units and does not wait for the fleet; m2
  // finishes the rest.
  FleetOptions o1 = runner_options("m1");
  o1.max_units = 2;
  o1.wait_for_fleet = false;
  const FleetReport r1 = FleetRunner(lease1, exec1, o1).run(slices);
  EXPECT_FALSE(r1.all_resolved());
  EXPECT_EQ(r1.executed, 2);

  const FleetReport r2 =
      FleetRunner(lease2, exec2, runner_options("m2")).run(slices);
  EXPECT_TRUE(r2.all_resolved());
  EXPECT_EQ(r2.executed, 2);
  EXPECT_EQ(r2.elsewhere, 2);

  const store::StoredReport merged =
      merge_units(test_identity(), slices, r2, names_);
  EXPECT_EQ(store::serialize(merged),
            store::serialize(report_for(test_identity(), "", names_)));
}

TEST_F(FleetRunnerTest, SurvivorReLeasesADeadRunnersSlice) {
  const auto slices = make_corpus(6, 3);
  // The "dead runner": holds a lease, never heartbeats, never finishes.
  DirBackend ghost(dir_, {.runner_id = "ghost", .lease_ttl_ms = 40});
  ASSERT_TRUE(ghost.acquire(slices[1]).ok);

  DirBackend lease(dir_, {.runner_id = "survivor", .lease_ttl_ms = 40});
  StubExecutor exec(test_identity());
  const FleetReport fleet =
      FleetRunner(lease, exec, runner_options("survivor")).run(slices);

  EXPECT_TRUE(fleet.all_resolved());
  EXPECT_EQ(fleet.executed, 3);  // including the re-leased unit
  EXPECT_EQ(fleet.stolen, 1);
  EXPECT_TRUE(fleet.units[1].stolen);
  const store::StoredReport merged =
      merge_units(test_identity(), slices, fleet, names_);
  EXPECT_EQ(store::serialize(merged),
            store::serialize(report_for(test_identity(), "", names_)));
}

}  // namespace
}  // namespace seance::fleet
