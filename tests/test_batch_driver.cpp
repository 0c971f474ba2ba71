// BatchRunner contract tests: determinism, thread-count invariance, and
// failure isolation — the properties CI and the bench harness rely on.

#include "driver/batch.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "flowtable/table.hpp"
#include "search/search.hpp"

namespace seance::driver {
namespace {

BatchRunner standard_corpus(int threads, int generated = 16) {
  BatchOptions options;
  options.threads = threads;
  BatchRunner runner(options);
  runner.add_table1_suite();
  bench_suite::GeneratorOptions gen;
  gen.seed = 42;
  runner.add_generated(generated, gen);
  return runner;
}

/// A table whose column-1 entries chase each other without a stable state:
/// normalize_to_normal_mode throws on the cycle, so synthesize must fail.
flowtable::FlowTable unsynthesizable_table() {
  flowtable::FlowTable t(1, 1, 2);
  t.set(0, 0, 0, "0");
  t.set(1, 0, 1, "1");
  t.set(0, 1, 1, "0");
  t.set(1, 1, 0, "1");
  return t;
}

TEST(DeriveSeed, DistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(derive_seed(1, i));
  }
  EXPECT_EQ(seen.size(), 1000u);
  // Pinned value: golden batch reports depend on this never changing.
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(BatchRunner, DeterministicAcrossRuns) {
  const BatchReport a = standard_corpus(4).run();
  const BatchReport b = standard_corpus(4).run();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(BatchRunner, ThreadCountInvariance) {
  const BatchReport serial = standard_corpus(1).run();
  const BatchReport parallel = standard_corpus(8).run();
  EXPECT_EQ(serial.threads_used, 1);
  EXPECT_GE(parallel.threads_used, 1);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  // Job order is submission order regardless of which worker ran what.
  ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].name, parallel.jobs[i].name);
  }
}

TEST(BatchRunner, FailureIsolation) {
  BatchOptions options;
  options.threads = 4;
  BatchRunner runner(options);
  runner.add("good-before", bench_suite::load(bench_suite::by_name("lion")));
  runner.add("bad", unsynthesizable_table());
  runner.add("good-after", bench_suite::load(bench_suite::by_name("traffic")));
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_TRUE(report.jobs[0].ok());
  EXPECT_EQ(report.jobs[1].status, JobStatus::kSynthesisError);
  EXPECT_FALSE(report.jobs[1].detail.empty());
  EXPECT_TRUE(report.jobs[2].ok());
  EXPECT_EQ(report.ok_count(), 2);
  EXPECT_EQ(report.failed_count(), 1);
  EXPECT_FALSE(report.all_ok());
}

TEST(BatchRunner, RunJobMatchesDirectSynthesis) {
  const auto table = bench_suite::load(bench_suite::by_name("lion"));
  const JobResult r = BatchRunner::run_job(JobSpec("lion", table), BatchOptions{});
  const auto machine = core::synthesize(table);
  EXPECT_EQ(r.status, JobStatus::kOk);
  EXPECT_EQ(r.input_states, table.num_states());
  EXPECT_EQ(r.synthesized_states, machine.table.num_states());
  EXPECT_EQ(r.state_vars, machine.layout.num_state_vars);
  EXPECT_EQ(r.fl_hazards, static_cast<int>(machine.hazards.fl.size()));
  EXPECT_EQ(r.gate_count, machine.gate_count());
  EXPECT_EQ(r.depth.total_depth, machine.depth_report().total_depth);
  EXPECT_TRUE(r.equations_verified);
}

TEST(BatchRunner, GeneratedJobsUseDerivedSeeds) {
  bench_suite::GeneratorOptions gen;
  gen.seed = 7;
  BatchRunner runner;
  runner.add_generated(4, gen);
  ASSERT_EQ(runner.job_count(), 4);
  for (int i = 0; i < 4; ++i) {
    bench_suite::GeneratorOptions expected = gen;
    expected.seed = derive_seed(7, static_cast<std::uint64_t>(i));
    EXPECT_EQ(runner.jobs()[static_cast<std::size_t>(i)].table.to_string(),
              bench_suite::generate(expected).to_string())
        << "job " << i;
  }
}

TEST(BatchRunner, BaselineTernaryFlagsAreMetricsNotFailures) {
  BatchOptions options;
  options.synthesis.add_fsv = false;
  options.synthesis.consensus_repair = false;
  options.ternary_strict = true;  // even strict mode exempts baselines
  BatchRunner runner(options);
  runner.add("naive", bench_suite::load(bench_suite::by_name("test_example")));
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].status, JobStatus::kOk);
  // The naive machine is the paper's hazard-ridden comparison point.
  EXPECT_GT(report.jobs[0].ternary_a_violations, 0);
}

TEST(BatchRunner, StrictTernaryPromotesFlagsOnProtectedMachines) {
  BatchOptions strict;
  strict.ternary_strict = true;
  BatchOptions lax;
  BatchRunner a(strict), b(lax);
  bench_suite::GeneratorOptions gen;
  gen.seed = 42;
  a.add_generated(12, gen);
  b.add_generated(12, gen);
  const BatchReport sr = a.run();
  const BatchReport lr = b.run();
  for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
    EXPECT_TRUE(lr.jobs[i].ok());  // lax mode records flags only
    const bool flagged = sr.jobs[i].ternary_a_violations +
                             sr.jobs[i].ternary_b_violations > 0;
    EXPECT_EQ(sr.jobs[i].status,
              flagged ? JobStatus::kHazardUnclean : JobStatus::kOk)
        << sr.jobs[i].name;
  }
}

TEST(BatchReport, CsvShapeAndSummaryTotals) {
  const BatchReport report = standard_corpus(2, /*generated=*/3).run();
  const std::string csv = report.to_csv();
  std::size_t lines = 0;
  for (char c : csv) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, report.jobs.size() + 1);  // header + one row per job
  EXPECT_NE(csv.find("name,status"), std::string::npos);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("8 jobs"), std::string::npos);
  const std::string totals_only = report.summary(/*per_job=*/false);
  EXPECT_EQ(totals_only.find("lion"), std::string::npos);
}

TEST(BatchReport, CsvQuotesAwkwardJobNames) {
  // KISS jobs are named by their file path, which can contain anything.
  BatchRunner runner;
  runner.add("runs/a,b \"v2\".kiss2",
             bench_suite::load(bench_suite::by_name("lion")));
  const BatchReport report = runner.run();
  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("\"runs/a,b \"\"v2\"\".kiss2\",ok,"), std::string::npos)
      << csv;
  // Still exactly header + one row: the comma did not split the record.
  std::size_t lines = 0;
  for (char c : csv) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, 2u);
}

TEST(BatchReport, SummaryRowsSurviveVeryLongJobNames) {
  // A long KISS2 path used to blow the row's fixed 256-byte snprintf
  // buffer, silently truncating the trailing columns.
  JobResult j;
  j.name = std::string(300, 'p') + ".kiss2";
  j.status = JobStatus::kOk;
  j.gate_count = 123;
  j.wall_ms = 4.5;
  BatchReport report;
  report.jobs.push_back(j);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find(j.name), std::string::npos);
  // The columns after the name survive: gate count, status, wall time.
  const std::size_t row = summary.find(j.name);
  const std::string tail = summary.substr(row, summary.find('\n', row) - row);
  EXPECT_NE(tail.find("123"), std::string::npos) << tail;
  EXPECT_NE(tail.find("ok"), std::string::npos) << tail;
  EXPECT_NE(tail.find("4.50"), std::string::npos) << tail;
}

TEST(BatchRunner, EmptyBatchIsTriviallyOk) {
  const BatchReport report = BatchRunner().run();
  EXPECT_TRUE(report.jobs.empty());
  EXPECT_TRUE(report.all_ok());
}

TEST(JobStatus, StringRoundTripCoversEveryStatus) {
  for (const JobStatus status :
       {JobStatus::kOk, JobStatus::kSynthesisError, JobStatus::kVerifyFailed,
        JobStatus::kHazardUnclean, JobStatus::kTimeout, JobStatus::kCrashed}) {
    const auto parsed = status_from_string(to_string(status));
    ASSERT_TRUE(parsed.has_value()) << to_string(status);
    EXPECT_EQ(*parsed, status);
  }
  EXPECT_FALSE(status_from_string("no-such-status").has_value());
  EXPECT_FALSE(status_from_string("").has_value());
}

TEST(FormatFixed, PinnedLocaleIndependentSpellings) {
  // Golden files embed these bytes; the formatting is integer math, so
  // no locale or C-library version can change them.
  EXPECT_EQ(format_fixed(0.5, 6), "0.500000");
  EXPECT_EQ(format_fixed(0.7, 6), "0.700000");
  EXPECT_EQ(format_fixed(1234.5678, 3), "1234.568");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.25, 2), "-1.25");
  EXPECT_EQ(format_fixed(0.0, 3), "0.000");
  EXPECT_EQ(format_fixed(-0.0004, 3), "0.000");  // no "-0.000"
  EXPECT_EQ(format_fixed(0.0005, 3), "0.001");   // half away from zero
}

TEST(BatchReport, CsvHeaderAndRowArePinnedByteForByte) {
  // The persisted-store schema (src/store) and the checked-in golden
  // corpus both depend on these exact bytes.
  JobResult j;
  j.name = "pinned";
  j.status = JobStatus::kOk;
  j.num_inputs = 3;
  j.num_outputs = 2;
  j.input_states = 6;
  j.synthesized_states = 5;
  j.state_vars = 3;
  j.fl_hazards = 10;
  j.var_hazards = 12;
  j.depth.fsv_depth = 3;
  j.depth.y_depth = 5;
  j.depth.total_depth = 9;
  j.gate_count = 80;
  j.equations_verified = true;
  j.ternary_transitions = 40;
  j.ternary_a_violations = 4;
  j.ternary_b_violations = 7;
  j.cover_cubes = 55;
  j.cover_gap = 2;
  j.gate_ternary_a_violations = 4;
  j.gate_ternary_b_violations = 7;
  j.wall_ms = 12.3456;
  BatchReport report;
  report.jobs.push_back(j);

  EXPECT_EQ(report.to_csv(),
            "name,status,inputs,outputs,input_states,synthesized_states,"
            "state_vars,fl_hazards,var_hazards,fsv_depth,y_depth,total_depth,"
            "gate_count,equations_verified,ternary_transitions,ternary_a,"
            "ternary_b,cover_cubes,cover_gap,gate_ternary_a,gate_ternary_b\n"
            "pinned,ok,3,2,6,5,3,10,12,3,5,9,80,1,40,4,7,55,2,4,7\n");
  // The streaming row serializer (shard workers append rows one at a
  // time) emits exactly the to_csv record for the job.
  EXPECT_EQ(to_csv_row(j),
            "pinned,ok,3,2,6,5,3,10,12,3,5,9,80,1,40,4,7,55,2,4,7");
}

TEST(BatchReport, ShardedRunsAddASummaryLineAndCrashedCountsAsFailure) {
  BatchReport report;
  JobResult lost;
  lost.name = "lost-job";
  lost.status = JobStatus::kCrashed;
  lost.detail = "shard 1/4 worker killed by signal 9";
  report.jobs.push_back(lost);
  report.shards_used = 4;
  report.max_shard_wall_ms = 123.4;
  EXPECT_EQ(report.failed_count(), 1);
  EXPECT_FALSE(report.all_ok());
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("shards: 4 workers, slowest 123.4 ms"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("crashed"), std::string::npos);
  EXPECT_NE(summary.find("killed by signal 9"), std::string::npos);
  // In-process reports keep their exact historical summary shape.
  BatchReport plain;
  EXPECT_EQ(plain.summary().find("shards:"), std::string::npos);
}

/// A body that never finishes on its own: it stops only when a
/// checkpoint throws search::DeadlineExceeded.
JobResult poll_forever() {
  for (;;) {
    search::poll_deadline();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

TEST(RunWithDeadline, SlowBodyTimesOutDeterministically) {
  // Regardless of scheduling, a body that only a checkpoint can stop
  // times out against a 20 ms budget.
  const JobResult r = run_with_deadline("sleepy", 20.0, poll_forever);
  EXPECT_EQ(r.status, JobStatus::kTimeout);
  EXPECT_EQ(r.name, "sleepy");
  EXPECT_EQ(r.detail, "exceeded 20 ms");
  EXPECT_FALSE(r.ok());
  // The recorded wall time is the measured call, not the nominal budget:
  // it can only be at or above the deadline (checkpoint overshoot
  // included), and a fabricated `wall_ms = timeout_ms` would hide that.
  EXPECT_GE(r.wall_ms, 20.0);
}

TEST(RunWithDeadline, BodyThatNeverPollsStillTimesOut) {
  // No checkpoint stops this body, but it returns past its budget, so
  // its row is a timeout, not the row it built.
  const JobResult r = run_with_deadline("sleepy", 20.0, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    JobResult late;
    late.name = "finished anyway";
    late.num_inputs = 3;
    late.gate_count = 7;
    return late;
  });
  EXPECT_EQ(r.status, JobStatus::kTimeout);
  EXPECT_EQ(r.name, "sleepy");
  EXPECT_EQ(r.detail, "exceeded 20 ms");
  EXPECT_EQ(r.num_inputs, 3);  // table shape survives, metrics do not
  EXPECT_EQ(r.gate_count, 0);
  EXPECT_GE(r.wall_ms, 50.0);
}

TEST(RunWithDeadline, HugeBudgetNeverFires) {
  // 1e15 ms lies past the steady clock's range; converting it to clock
  // ticks once overflowed and timed every job out at once.  Infinity and
  // NaN must not reach that conversion either.
  for (const double budget : {1e15, 1e300, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(budget);
    const JobResult r = run_with_deadline("patient", budget, [] {
      search::poll_deadline();
      JobResult inner;
      inner.name = "patient";
      inner.gate_count = 7;
      return inner;
    });
    EXPECT_EQ(r.status, JobStatus::kOk);
    EXPECT_EQ(r.gate_count, 7);
  }
}

#if defined(__linux__)
TEST(RunWithDeadline, TimeoutLeavesNoThreadBehind) {
  const auto task_count = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  const auto before = task_count();
  const JobResult r = run_with_deadline("sleepy", 20.0, poll_forever);
  EXPECT_EQ(r.status, JobStatus::kTimeout);
  EXPECT_EQ(task_count(), before);
}
#endif

TEST(RunWithDeadline, FastBodyPassesThroughUntouched) {
  const JobResult r = run_with_deadline("quick", 60'000.0, [] {
    JobResult inner;
    inner.name = "quick";
    inner.gate_count = 7;
    return inner;
  });
  EXPECT_EQ(r.status, JobStatus::kOk);
  EXPECT_EQ(r.gate_count, 7);
}

TEST(RunWithDeadline, ThrowingBodyIsASynthesisError) {
  const JobResult r = run_with_deadline("boom", 60'000.0, []() -> JobResult {
    throw std::runtime_error("kaput");
  });
  EXPECT_EQ(r.status, JobStatus::kSynthesisError);
  EXPECT_EQ(r.detail, "kaput");
  // Error results carry the caller's name: a nameless row would pair
  // against nothing in store::diff.
  EXPECT_EQ(r.name, "boom");
}

TEST(BatchRunner, TimeoutStatusCountsAsFailureAndKeepsTableShape) {
  BatchOptions options;
  options.job_timeout_ms = 60'000.0;  // generous: nothing should fire
  options.threads = 2;
  BatchRunner runner(options);
  runner.add("lion", bench_suite::load(bench_suite::by_name("lion")));
  const BatchReport report = runner.run();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].status, JobStatus::kOk);

  // A synthetic timeout result is a failure for the exit-code contract.
  BatchReport timed;
  JobResult t;
  t.status = JobStatus::kTimeout;
  timed.jobs.push_back(t);
  EXPECT_EQ(timed.failed_count(), 1);
  EXPECT_FALSE(timed.all_ok());
}

TEST(BatchRunner, TimeoutPathPreservesThreadCountInvariance) {
  // With a generous deadline on every job, reports must stay
  // byte-identical across thread counts — the timeout plumbing may not
  // perturb result slots or ordering.
  const auto run_with = [](int threads) {
    BatchOptions options;
    options.threads = threads;
    options.job_timeout_ms = 120'000.0;
    BatchRunner runner(options);
    runner.add_table1_suite();
    bench_suite::GeneratorOptions gen;
    gen.seed = 42;
    runner.add_generated(12, gen);
    return runner.run();
  };
  const BatchReport serial = run_with(1);
  const BatchReport parallel = run_with(8);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
}

TEST(BatchRunner, TimedOutJobLeavesTheWorkerTableUsable) {
  // One worker, so the Table-1 jobs run in the table the hardest job was
  // stopped in mid-search.  (hardest-20x6-0001 takes hundreds of ms.)
  BatchRunner hardest;
  hardest.add_hardest_generated(2, 1);
  const JobSpec& stopped = hardest.jobs()[1];
  ASSERT_EQ(stopped.name, "hardest-20x6-0001");
  const auto run_with = [&](double timeout_ms) {
    BatchOptions options;
    options.threads = 1;
    options.job_timeout_ms = timeout_ms;
    BatchRunner runner(options);
    runner.add(stopped);
    runner.add_table1_suite();
    return runner.run();
  };
  const BatchReport timed = run_with(5.0);
  const BatchReport untimed = run_with(0.0);
  ASSERT_EQ(timed.jobs.size(), untimed.jobs.size());
  EXPECT_EQ(timed.jobs[0].status, JobStatus::kTimeout);
  EXPECT_EQ(timed.jobs[0].input_states, stopped.table.num_states());
  for (std::size_t i = 0; i < timed.jobs.size(); ++i) {
    if (timed.jobs[i].status == JobStatus::kTimeout) continue;
    EXPECT_EQ(to_csv_row(timed.jobs[i]), to_csv_row(untimed.jobs[i]));
  }
  // The stopped job's table kept its counters; nothing replaced it.
  EXPECT_GT(timed.tt_stats.stores, 0u);
  EXPECT_GT(timed.tt_stats.hits + timed.tt_stats.misses, 0u);
}

TEST(BatchRunner, ProgressCallbackStreamsEveryJobOnce) {
  BatchOptions options;
  options.threads = 4;
  std::mutex m;
  std::vector<int> counters;
  std::multiset<std::string> names;
  options.on_result = [&](const JobResult& r, int completed, int total) {
    // The callback contract: serialized, completion-ordered counters.
    const std::lock_guard<std::mutex> lock(m);
    counters.push_back(completed);
    names.insert(r.name);
    EXPECT_EQ(total, 8);
  };
  BatchRunner runner(options);
  runner.add_table1_suite();
  bench_suite::GeneratorOptions gen;
  gen.seed = 42;
  runner.add_generated(3, gen);
  ASSERT_EQ(runner.job_count(), 8);
  const BatchReport report = runner.run();
  ASSERT_EQ(counters.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(counters[static_cast<std::size_t>(i)], i + 1);
  for (const auto& j : report.jobs) EXPECT_EQ(names.count(j.name), 1u);
}

}  // namespace
}  // namespace seance::driver
