// seance — command-line driver for the full synthesis flow.
//
//   seance <table.kiss2 | benchmark-name> [options]
//   seance batch [corpus options]
//   seance baseline [corpus options] --out FILE
//   seance diff BASELINE CURRENT [diff options]
//   seance serve [serve options]
//
// Every subcommand re-enters the pipeline through the request/response
// facade in src/api — this file owns flag parsing, process plumbing, and
// report formatting, never a synthesis call of its own.  Run any
// subcommand with --help for its generated option table.
//
// Batch mode runs a corpus (the Table-1 suite plus generated tables and
// any KISS2 files) through the pipeline on a thread pool and prints a
// per-job verify report.  Baseline mode runs the same corpus and persists
// the report (plus its corpus identity) in the regression-store format;
// diff mode compares two stored reports and exits nonzero on drift —
// together they are the golden-corpus gate CI runs on every push.
//
// Serve mode is the same pipeline as a long-lived service: a
// line-delimited request protocol (see src/api/serve.hpp) on stdin/stdout
// or a unix socket, answered from a content-addressed result cache —
// warm tier pre-built from a stored golden report (`--warm`), an
// in-memory LRU (`--cache-mem-mb`), and a disk store (`--cache-dir`) —
// falling through to the pipeline on miss with write-back.  Batch's
// `--emit-requests` writes a corpus as a protocol stream, so any stored
// recipe doubles as a client workload.
//
// Sharded runs (batch and baseline, `--shards K`): the corpus is cut
// into lease units (driver::ShardPlan round-robin; `--lease-units`) and
// driven through fleet::FleetRunner as a one-runner fleet over a private
// lease directory (fleet::DirBackend, one attempt per unit) — this file
// contains no process orchestration of its own.  Each acquired unit
// re-execs this binary as a worker (`--shard-worker u/U`, hidden) that
// rebuilds the corpus from the forwarded recipe flags, runs only its
// slice, and streams rows into a per-unit store file in `--shard-dir`,
// flushing after every job.  The runner loads each unit file (tolerating
// the torn tail a crashed worker leaves) and store::merge stitches the
// rows back into submission order — byte-identical to the
// single-process report.  A worker that dies loses only the unflushed
// jobs of its own slice (recorded as `crashed` with the exit detail),
// and `--resume` re-runs only units whose store file is missing or
// partial.
//
// Fleet mode (`--fleet-dir DIR`): the same run coordinated across any
// number of independent runner processes — one box or many, via a shared
// directory of lease files (the same fleet::DirBackend, 3 attempts per
// unit).  Runners self-balance by work stealing, heal dead runners by
// re-leasing their expired units, and every waiting runner merges the
// identical report once the fleet resolves.  See README "Fleet mode".
//
// Diff exit code: 0 clean, 1 drift or identity mismatch, 2 usage/IO error.
// Other exit codes: 0 on success (and, with --verify, zero failures), 1
// otherwise.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <cstdlib>
#include <memory>
#include <vector>

#include "api/api.hpp"
#include "api/cache.hpp"
#include "api/serve.hpp"
#include "bench_suite/benchmarks.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "driver/shard.hpp"
#include "fleet/dir.hpp"
#include "fleet/fleet.hpp"
#include "fleet/process.hpp"
#include "flowtable/kiss.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "option_table.hpp"
#include "sim/harness.hpp"
#include "sim/ternary_netsim.hpp"
#include "sim/ternary_verify.hpp"
#include "store/store.hpp"

namespace {

using seance::cli::OptionTable;
using seance::cli::ParseResult;

void usage() {
  std::printf(
      "usage: seance <table.kiss2 | benchmark-name> [options]\n"
      "       seance batch [corpus options]\n"
      "       seance baseline [corpus options] --out FILE\n"
      "       seance diff BASELINE CURRENT [diff options]\n"
      "       seance serve [serve options]\n"
      "run `seance <subcommand> --help` (or `seance --help <name>`) for the\n"
      "option table of each mode.\n"
      "built-in benchmarks:");
  for (const auto& b : seance::bench_suite::table1_suite()) {
    std::printf(" %s", b.name.c_str());
  }
  for (const auto& b : seance::bench_suite::extra_suite()) {
    std::printf(" %s", b.name.c_str());
  }
  std::printf("\n");
}

/// Everything `batch`, `baseline`, and `serve` share: the corpus recipe,
/// the run options, and the output knobs.
struct CorpusFlags {
  seance::driver::BatchOptions options;
  seance::bench_suite::GeneratorOptions gen;
  int random_count = 100;
  int hard_count = 0;
  int harder_count = 0;
  int hardest_count = 0;
  bool suite = true;
  bool extra = false;
  bool quiet = false;
  bool progress = false;
  bool wall = false;
  std::string csv_path;   ///< batch: raw CSV report
  std::string out_path;   ///< baseline: persisted regression store
  std::string emit_path;  ///< batch: serve-protocol request stream
  std::vector<std::string> kiss_files;

  // Sharded execution (batch and baseline).
  int shards = 0;  ///< worker-process count; 0 = in-process run
  std::string shard_dir = ".seance-shards";  ///< per-shard store files
  bool resume = false;  ///< reuse complete shard files, re-run the rest
  // Fleet mode: coordinate with other runner processes through lease
  // files in a shared directory (fleet::DirBackend).
  std::string fleet_dir;   ///< non-empty enables fleet mode
  std::string runner_id;   ///< default fleet::default_runner_id()
  double lease_ttl_ms = 10000;  ///< heartbeat TTL before a lease is stealable
  int lease_units = 0;  ///< corpus granularity; 0 = K locally, 16 in a fleet
  // Hidden fleet test hooks: a bounded helper runner, and a runner that
  // dies (leases left to expire) after its Nth acquire.
  int fleet_max_units = -1;
  int fleet_die_after = -1;
  // Worker-protocol flags, set by the orchestrator when it re-execs
  // itself (hidden from --help).
  int shard_worker = -1;  ///< this process runs slice shard_worker...
  int shard_total = 0;    ///< ...of a shard_total-way ShardPlan
  std::string shard_out;  ///< where the worker streams its store
  /// Hidden crash-test hook: abort() once more than this many slice jobs
  /// have been recorded (so exactly N rows reach the disk).  -1 = off.
  long die_after = -1;
};

seance::api::CorpusRequest corpus_request(const CorpusFlags& flags) {
  seance::api::CorpusRequest request;
  request.options = flags.options;
  request.gen = flags.gen;
  request.random_count = flags.random_count;
  request.hard_count = flags.hard_count;
  request.harder_count = flags.harder_count;
  request.hardest_count = flags.hardest_count;
  request.suite = flags.suite;
  request.extra = flags.extra;
  request.kiss_files = flags.kiss_files;
  return request;
}

void add_recipe_options(OptionTable& table, CorpusFlags& flags) {
  table.number("--random", "N", "generated tables (default 100)",
               &flags.random_count);
  table.number("--hard", "N",
               "extra generated tables at the hard canonical shape "
               "(8 states / 4 inputs; default 0)",
               &flags.hard_count);
  table.number("--harder", "N",
               "extra generated tables at the harder canonical shape "
               "(12 states / 5 inputs; default 0)",
               &flags.harder_count);
  table.number("--hardest", "N",
               "extra generated tables at the hardest canonical shape "
               "(20 states / 6 inputs; default 0)",
               &flags.hardest_count);
  table.number("--states", "N", "generator states (default 6)",
               &flags.gen.num_states);
  table.number("--inputs", "N", "generator inputs (default 3)",
               &flags.gen.num_inputs);
  table.number("--outputs", "N", "generator outputs (default 2)",
               &flags.gen.num_outputs);
  table.number("--density", "D", "generator transition density (default 0.5)",
               &flags.gen.transition_density);
  table.number("--mic-bias", "B", "generator MIC bias (default 0.7)",
               &flags.gen.mic_bias);
  table.number("--seed", "S",
               "base seed for deterministic per-job seeds (default 1)",
               &flags.gen.seed);
  table.flag("--no-suite", "skip the built-in Table-1 suite", &flags.suite,
             false);
  table.flag("--extra", "also run the extra regression suite", &flags.extra);
  table.each("--kiss-file", "FILE", "add a KISS2 file as a job (repeatable)",
             &flags.kiss_files);
}

void add_check_options(OptionTable& table, CorpusFlags& flags) {
  table.flag("--no-ternary", "skip the Eichelberger ternary pass",
             &flags.options.ternary, false);
  table.flag("--strict-ternary",
             "fail jobs whose ternary pass flags (conservative!)",
             &flags.options.ternary_strict);
  table.flag("--gate-ternary",
             "also verify the gate netlist re-imported from its own "
             "Verilog (closes the export/parse/verify loop per job)",
             &flags.options.gate_ternary);
  table.flag("--no-verify", "skip the equation cross-check",
             &flags.options.verify, false);
  table.number("--timeout", "MS",
               "per-job wall-clock budget; overruns record kTimeout",
               &flags.options.job_timeout_ms);
}

void add_synthesis_options(OptionTable& table,
                           seance::core::SynthesisOptions& options) {
  table.flag("--baseline", "synthesize without fsv (classic machine)",
             &options.add_fsv, false);
  table.flag("--no-minimize", "skip step 2 (state minimization)",
             &options.minimize_states, false);
  table.flag("--flat", "skip step 7 factoring (two-level SOP)",
             &options.factor, false);
  table.flag("--tt-off",
             "disable search memoization (searches run cold; completed "
             "searches give identical results, budget-truncated ones may "
             "differ)",
             &options.tt, false);
}

void add_run_options(OptionTable& table, CorpusFlags& flags) {
  // Everything marked orchestrator_only() is per-run plumbing the fleet
  // layer owns; forwarded_args() strips exactly these from worker argv.
  table
      .number("--jobs", "N", "worker threads (default: hardware concurrency)",
              &flags.options.threads)
      .orchestrator_only();
  table.flag("--progress", "stream per-job completion lines to stderr",
             &flags.progress);
  table
      .number("--shards", "K", "run the corpus across K worker processes",
              &flags.shards)
      .orchestrator_only();
  table
      .text("--shard-dir", "DIR",
            "per-shard store files live here (default .seance-shards); "
            "stable across runs so --resume works",
            &flags.shard_dir)
      .orchestrator_only();
  table
      .flag("--resume", "reuse complete shard files, re-run missing/partial",
            &flags.resume)
      .orchestrator_only();
  table
      .text("--fleet-dir", "DIR",
            "fleet mode: coordinate with other runners through lease files "
            "in DIR (shared filesystem); implies per-unit stores in DIR",
            &flags.fleet_dir)
      .orchestrator_only();
  table
      .text("--runner-id", "ID",
            "this runner's fleet name (default: host-pid)", &flags.runner_id)
      .orchestrator_only();
  table
      .number("--lease-ttl", "MS",
              "a lease not heartbeaten for MS ms may be re-leased "
              "(default 10000)",
              &flags.lease_ttl_ms)
      .orchestrator_only();
  table
      .number("--lease-units", "U",
              "cut the corpus into U lease units (default: --shards "
              "locally, 16 in fleet mode)",
              &flags.lease_units)
      .orchestrator_only();
  table.number("--fleet-max-units", "N", "", &flags.fleet_max_units)
      .hidden()
      .orchestrator_only();
  table.number("--fleet-die-after-acquire", "N", "", &flags.fleet_die_after)
      .hidden()
      .orchestrator_only();
  table
      .custom("--shard-worker", "i/K", "",
              [&flags](const std::string& v) {
                int index = 0;
                int total = 0;
                if (!seance::driver::ShardPlan::parse_slice_tag(v, &index,
                                                                &total)) {
                  std::printf("option --shard-worker needs i/K, got '%s'\n",
                              v.c_str());
                  return false;
                }
                flags.shard_worker = index;
                flags.shard_total = total;
                return true;
              })
      .hidden()
      .orchestrator_only();
  table.text("--shard-out", "FILE", "", &flags.shard_out)
      .hidden()
      .orchestrator_only();
  table.number("--shard-worker-die-after", "N", "", &flags.die_after)
      .hidden()
      .orchestrator_only();
  table.flag("--quiet", "totals line only", &flags.quiet);
}

/// Post-parse validation and the --progress hook, shared by batch and
/// baseline.  Returns false (after printing why) on an inconsistent line.
bool finish_corpus_flags(CorpusFlags& flags) {
  if (flags.shards < 0) {
    std::printf("option --shards needs a non-negative count\n");
    return false;
  }
  if (flags.resume && flags.shards <= 0 && flags.fleet_dir.empty() &&
      flags.shard_worker < 0) {
    // A forgotten --shards must not silently downgrade a resume into a
    // full in-process re-run that ignores the healthy shard files.
    std::printf("--resume requires --shards K (or --fleet-dir)\n");
    return false;
  }
  if (flags.lease_ttl_ms <= 0) {
    std::printf("option --lease-ttl needs a positive duration\n");
    return false;
  }
  if (flags.lease_units < 0) {
    std::printf("option --lease-units needs a non-negative count\n");
    return false;
  }
  if (flags.progress) {
    flags.options.on_result = [](const seance::driver::JobResult& r,
                                 int completed, int total) {
      std::fprintf(stderr, "[%4d/%4d] %-28s %s (%.1f ms)\n", completed, total,
                   r.name.c_str(), seance::driver::to_string(r.status),
                   r.wall_ms);
    };
  }
  return true;
}

/// corpus_jobs through the facade with CLI-shaped error reporting.
bool load_corpus_jobs(const CorpusFlags& flags,
                      std::vector<seance::driver::JobSpec>& jobs) {
  try {
    jobs = seance::api::corpus_jobs(corpus_request(flags));
  } catch (const std::exception& e) {
    std::printf("corpus error: %s\n", e.what());
    return false;
  }
  return true;
}

/// Worker half of the shard protocol: rebuild the full corpus from the
/// forwarded recipe flags, take slice i of the round-robin plan, and run
/// it with every finished row streamed (and flushed) into the shard store
/// — so a crash mid-slice loses only the jobs after the last flush.  The
/// orchestrator owns all reporting; workers print nothing but --progress.
int run_shard_worker(const CorpusFlags& flags) {
  if (flags.shard_out.empty()) {
    std::printf("shard-worker: --shard-out FILE is required\n");
    return 2;
  }
  std::vector<seance::driver::JobSpec> corpus;
  if (!load_corpus_jobs(flags, corpus)) return 2;
  const auto plan = seance::driver::ShardPlan::round_robin(
      static_cast<int>(corpus.size()), flags.shard_total);
  const auto& slice = plan.slices[static_cast<std::size_t>(flags.shard_worker)];

  std::ofstream out(flags.shard_out, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::printf("shard-worker: cannot write %s\n", flags.shard_out.c_str());
    return 2;
  }
  seance::store::StoredReport header;
  header.identity = seance::api::corpus_identity(corpus_request(flags));
  header.identity.shard = seance::driver::ShardPlan::slice_tag(
      flags.shard_worker, flags.shard_total);
  out << seance::store::serialize(header);  // metadata + CSV header
  out.flush();

  seance::driver::BatchOptions options = flags.options;
  const auto user_progress = options.on_result;
  const long die_after = flags.die_after;
  // BatchRunner serializes on_result calls, so the stream needs no lock.
  options.on_result = [&out, user_progress, die_after](
                          const seance::driver::JobResult& r, int completed,
                          int total) {
    // The crash hook fires *between* jobs N and N+1: exactly N rows are
    // on disk, which is the boundary the crash-isolation tests pin.
    if (die_after >= 0 && completed > die_after) std::abort();
    out << seance::driver::to_csv_row(r) << '\n';
    out.flush();
    if (user_progress) user_progress(r, completed, total);
  };
  std::vector<seance::driver::JobSpec> jobs;
  jobs.reserve(slice.size());
  for (const int job : slice) {
    jobs.push_back(corpus[static_cast<std::size_t>(job)]);
  }
  // Job failures live in the store; the exit code says "ran".
  (void)seance::api::run_jobs(std::move(jobs), options);
  out.flush();
  return out ? 0 : 2;
}

/// A fresh mkdtemp directory under the system temp dir (TMPDIR), removed
/// with its contents when the guard goes out of scope.
struct PrivateDir {
  std::string path =
      (std::filesystem::temp_directory_path() / "seance-leases-XXXXXX")
          .string();
  PrivateDir() {
#if defined(__unix__) || defined(__APPLE__)
    if (mkdtemp(path.data()) != nullptr) return;
#endif
    throw std::runtime_error("cannot create private lease dir " + path +
                             ": " + std::strerror(errno));
  }
  ~PrivateDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  PrivateDir(const PrivateDir&) = delete;
  PrivateDir& operator=(const PrivateDir&) = delete;
};

/// Orchestrator half, now one fleet::FleetRunner invocation: cut the
/// corpus into lease units, acquire and execute them through
/// fleet::DirBackend (a private lease directory locally, the shared one
/// in fleet mode — the CLI owns no process machinery of its own), and
/// merge the unit stores back into one report in submission order.
/// Fills `merged` and sets `report_ready` when the fleet resolved and a
/// merged report exists (a bounded --fleet-max-units helper exits clean
/// without one); returns 0, or nonzero after printing why.
int run_leased(const char* argv0, const char* subcommand,
               const std::vector<std::string>& recipe, const CorpusFlags& flags,
               seance::store::StoredReport& merged, bool& report_ready) {
  report_ready = false;
  if (!seance::fleet::kHasProcessExec) {
    std::printf(
        "--shards needs worker processes, unavailable on this platform\n");
    return 1;
  }
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  const auto run_start = Clock::now();

  std::vector<seance::driver::JobSpec> corpus;
  if (!load_corpus_jobs(flags, corpus)) return 1;
  std::vector<std::string> names;
  std::vector<double> costs;
  names.reserve(corpus.size());
  costs.reserve(corpus.size());
  std::unordered_set<std::string> seen;
  for (const auto& spec : corpus) {
    if (!seen.insert(spec.name).second) {
      std::printf("sharding requires unique job names (duplicate '%s')\n",
                  spec.name.c_str());
      return 1;
    }
    names.push_back(spec.name);
    costs.push_back(seance::driver::estimate_cost(spec));
  }

  const bool fleet_mode = !flags.fleet_dir.empty();
  const int K = std::max(1, flags.shards);
  const int units = seance::driver::ShardPlan::lease_units(
      static_cast<int>(corpus.size()), flags.lease_units,
      fleet_mode ? seance::fleet::kDefaultFleetUnits : K);
  const auto plan = seance::driver::ShardPlan::round_robin(
      static_cast<int>(corpus.size()), units);
  const auto identity = seance::api::corpus_identity(corpus_request(flags));
  const std::string dir = fleet_mode ? flags.fleet_dir : flags.shard_dir;

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::printf("cannot create shard dir %s: %s\n", dir.c_str(),
                ec.message().c_str());
    return 1;
  }
  const auto slices = seance::fleet::make_slices(plan, names, costs, dir);

  int total_threads = flags.options.threads;
  if (total_threads <= 0) {
    total_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (total_threads <= 0) total_threads = 1;
  const int worker_threads = std::max(1, total_threads / K);
  const std::string runner_id = flags.runner_id.empty()
                                    ? seance::fleet::default_runner_id()
                                    : flags.runner_id;

  // A fleet shares --fleet-dir.  A local run is a one-runner fleet over a
  // private lease dir, never --shard-dir (stale done markers or
  // fleet-config there would change a later run), and one attempt per
  // unit: a crashed worker's slice is never re-run.
  std::optional<PrivateDir> private_leases;
  std::optional<seance::fleet::DirBackend> lease;
  try {
    seance::fleet::DirBackend::Options lease_options;
    lease_options.runner_id = runner_id;
    lease_options.lease_ttl_ms = flags.lease_ttl_ms;
    if (!fleet_mode) {
      private_leases.emplace();
      lease_options.max_attempts = 1;
    }
    lease.emplace(fleet_mode ? dir : private_leases->path, lease_options);
    lease->bind(identity, units);
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }

  const std::string exe = seance::fleet::self_exe_path(argv0);
  const std::string sub = subcommand;
  seance::fleet::ProcessExecutor executor(
      [&](const seance::fleet::Slice& slice) {
        std::vector<std::string> args{exe, sub};
        args.insert(args.end(), recipe.begin(), recipe.end());
        args.insert(args.end(),
                    {"--shard-worker", slice.tag, "--shard-out",
                     slice.store_path, "--jobs",
                     std::to_string(worker_threads)});
        // The crash hook targets unit 0 only — one rogue slice, the rest
        // healthy.
        if (slice.index == 0 && flags.die_after >= 0) {
          args.insert(args.end(), {"--shard-worker-die-after",
                                   std::to_string(flags.die_after)});
        }
        return args;
      });

  seance::fleet::FleetOptions fleet_options;
  fleet_options.runner_id = runner_id;
  fleet_options.max_concurrent = K;
  fleet_options.heartbeat_ms = std::max(50.0, flags.lease_ttl_ms / 3.0);
  fleet_options.reuse_complete = fleet_mode || flags.resume;
  fleet_options.wait_for_fleet = flags.fleet_max_units < 0;
  fleet_options.max_units = flags.fleet_max_units;
  fleet_options.die_after_acquires = flags.fleet_die_after;
  fleet_options.identity = identity;

  seance::fleet::FleetRunner runner(*lease, executor, fleet_options);
  const seance::fleet::FleetReport fleet = runner.run(slices);

  if (!fleet.all_resolved()) {
    // A bounded helper ran its share; another runner (or a later
    // invocation) observes fleet completion and merges.
    if (!flags.quiet) {
      std::printf(
          "fleet: %d unit(s) executed, %d reused, %d stolen — fleet "
          "incomplete, no merged report\n",
          fleet.executed, fleet.reused, fleet.stolen);
    }
    return 0;
  }

  try {
    merged = seance::fleet::merge_units(identity, slices, fleet, names);
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }

  std::unordered_map<std::string, std::size_t> row_of;
  row_of.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) row_of[names[i]] = i;
  double max_wall = 0.0;
  for (std::size_t u = 0; u < slices.size(); ++u) {
    const auto& slice = slices[u];
    const auto& unit = fleet.units[u];
    max_wall = std::max(max_wall, unit.wall_ms);
    int persisted = 0;
    for (const auto& name : slice.job_names) {
      if (merged.report.jobs[row_of.at(name)].status !=
          seance::driver::JobStatus::kCrashed) {
        ++persisted;
      }
    }
    if (flags.quiet) continue;
    switch (unit.outcome) {
      case seance::fleet::UnitOutcome::kCompleted:
        std::printf("shard %s: %d jobs reported (%.1f ms)%s\n",
                    slice.tag.c_str(), persisted, unit.wall_ms,
                    unit.stolen ? " (re-leased)" : "");
        break;
      case seance::fleet::UnitOutcome::kReused:
        std::printf("shard %s: reused %s (%d jobs)\n", slice.tag.c_str(),
                    slice.store_path.c_str(), persisted);
        break;
      case seance::fleet::UnitOutcome::kElsewhere:
        std::printf("shard %s: completed by another runner (%d jobs)\n",
                    slice.tag.c_str(), persisted);
        break;
      case seance::fleet::UnitOutcome::kDead:
        std::printf("shard %s: worker %s — %d of %zu jobs persisted\n",
                    slice.tag.c_str(),
                    unit.exit_detail.empty() ? "attempts exhausted"
                                             : unit.exit_detail.c_str(),
                    persisted, slice.job_names.size());
        break;
      case seance::fleet::UnitOutcome::kPending:
        break;  // unreachable: all_resolved() held above
    }
  }
  merged.report.threads_used = worker_threads;
  merged.report.shards_used = units;
  merged.report.max_shard_wall_ms = max_wall;
  merged.report.wall_ms = ms_since(run_start);
  report_ready = true;
  return 0;
}

/// batch --emit-requests: the corpus as a serve-protocol request stream
/// — any stored recipe becomes a replayable client workload (the CI
/// serve-smoke step drives the server with exactly this output).
int emit_requests(const CorpusFlags& flags, const std::string& path) {
  std::vector<seance::driver::JobSpec> jobs;
  if (!load_corpus_jobs(flags, jobs)) return 1;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::printf("error: cannot write %s\n", path.c_str());
    return 1;
  }
  for (const auto& spec : jobs) {
    // Canonical to_kiss2 bytes, so these requests hit the same cache
    // entries as any other client sending canonical serializations.
    const std::string kiss = seance::flowtable::to_kiss2(spec.table);
    const auto lines = std::count(kiss.begin(), kiss.end(), '\n');
    out << "REQ " << spec.name << "\n"
        << "OPT " << seance::core::options_to_string(spec.options) << "\n"
        << "TABLE " << lines << "\n"
        << kiss << "END\n";
  }
  out.flush();
  if (!out) {
    std::printf("error: cannot write %s\n", path.c_str());
    return 1;
  }
  if (!flags.quiet) {
    std::printf("wrote %zu requests to %s\n", jobs.size(), path.c_str());
  }
  return 0;
}

int run_batch(int argc, char** argv) {
  CorpusFlags flags;
  OptionTable table("batch");
  table.synopsis("usage: seance batch [corpus options]");
  add_run_options(table, flags);
  add_recipe_options(table, flags);
  add_check_options(table, flags);
  add_synthesis_options(table, flags.options.synthesis);
  table.text("--csv", "FILE", "write the per-job report as CSV",
             &flags.csv_path)
      .orchestrator_only();
  table.flag("--wall", "include wall_ms in --csv (not byte-stable!)",
             &flags.wall)
      .orchestrator_only();
  table.text("--emit-requests", "FILE",
             "write the corpus as a serve-protocol request stream and exit",
             &flags.emit_path)
      .orchestrator_only();
  switch (table.parse(argc, argv, 2)) {
    case ParseResult::kHelp: return 0;
    case ParseResult::kError: usage(); return 1;
    case ParseResult::kOk: break;
  }
  if (!finish_corpus_flags(flags)) {
    usage();
    return 1;
  }
  if (flags.shard_worker >= 0) return run_shard_worker(flags);
  if (!flags.emit_path.empty()) return emit_requests(flags, flags.emit_path);

  seance::driver::BatchReport report;
  if (flags.shards > 0 || !flags.fleet_dir.empty()) {
    if (flags.wall) {
      // Shard stores never persist per-job wall times (they are not a
      // pure function of the spec), so a merged --wall column would be
      // all fabricated zeros.
      std::printf("--wall cannot be combined with --shards\n");
      return 1;
    }
    seance::store::StoredReport merged;
    bool report_ready = false;
    const int rc = run_leased(argv[0], argv[1],
                              table.forwarded_args(argc, argv, 2), flags,
                              merged, report_ready);
    if (rc != 0) return rc;
    if (!report_ready) return 0;  // bounded helper runner: nothing to print
    report = std::move(merged.report);
  } else {
    try {
      report = seance::api::run_corpus(corpus_request(flags));
    } catch (const std::exception& e) {
      std::printf("corpus error: %s\n", e.what());
      return 1;
    }
  }
  std::printf("%s", report.summary(/*per_job=*/!flags.quiet).c_str());
  if (!flags.csv_path.empty()) {
    std::ofstream out(flags.csv_path);
    if (!out) {
      std::printf("error: cannot write %s\n", flags.csv_path.c_str());
      return 1;
    }
    out << report.to_csv(flags.wall);
    if (!flags.quiet) std::printf("wrote %s\n", flags.csv_path.c_str());
  }
  return report.all_ok() ? 0 : 1;
}

int run_baseline(int argc, char** argv) {
  CorpusFlags flags;
  OptionTable table("baseline");
  table.synopsis("usage: seance baseline [corpus options] --out FILE");
  add_run_options(table, flags);
  add_recipe_options(table, flags);
  add_check_options(table, flags);
  add_synthesis_options(table, flags.options.synthesis);
  table.text("--out", "FILE", "write the persisted regression store (required)",
             &flags.out_path)
      .orchestrator_only();
  switch (table.parse(argc, argv, 2)) {
    case ParseResult::kHelp: return 0;
    case ParseResult::kError: usage(); return 1;
    case ParseResult::kOk: break;
  }
  if (!finish_corpus_flags(flags)) {
    usage();
    return 1;
  }
  if (flags.shard_worker >= 0) return run_shard_worker(flags);
  if (flags.out_path.empty()) {
    std::printf("baseline: --out FILE is required\n");
    usage();
    return 1;
  }

  seance::store::StoredReport stored;
  if (flags.shards > 0 || !flags.fleet_dir.empty()) {
    bool report_ready = false;
    const int rc = run_leased(argv[0], argv[1],
                              table.forwarded_args(argc, argv, 2), flags,
                              stored, report_ready);
    if (rc != 0) return rc;
    if (!report_ready) return 0;  // bounded helper runner: nothing to save
  } else {
    try {
      stored.identity = seance::api::corpus_identity(corpus_request(flags));
      stored.report = seance::api::run_corpus(corpus_request(flags));
    } catch (const std::exception& e) {
      std::printf("corpus error: %s\n", e.what());
      return 1;
    }
  }
  std::printf("%s", stored.report.summary(/*per_job=*/!flags.quiet).c_str());
  try {
    seance::store::save(flags.out_path, stored);
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
  if (!flags.quiet) std::printf("wrote %s\n", flags.out_path.c_str());
  // Job failures are part of the stored truth (the diff gate judges
  // drift, not absolute health), so saving succeeds regardless — but a
  // baseline with failing jobs is almost always a mistake, so say so.
  if (!stored.report.all_ok()) {
    std::printf("note: %d job(s) not ok in this baseline\n",
                stored.report.failed_count());
  }
  return 0;
}

int run_diff(int argc, char** argv) {
  std::string csv_path;
  bool quiet = false;
  std::vector<std::string> paths;

  OptionTable table("diff");
  table.synopsis("usage: seance diff BASELINE CURRENT [diff options]");
  table.text("--csv", "FILE", "write the machine-readable delta table",
             &csv_path);
  table.flag("--quiet", "verdict line only", &quiet);
  switch (table.parse(argc, argv, 2, &paths)) {
    case ParseResult::kHelp: return 0;
    case ParseResult::kError: usage(); return 2;
    case ParseResult::kOk: break;
  }
  if (paths.size() != 2) {
    std::printf("diff: expected BASELINE and CURRENT paths\n");
    usage();
    return 2;
  }

  seance::store::DiffReport report;
  try {
    const auto baseline = seance::store::load(paths[0]);
    const auto current = seance::store::load(paths[1]);
    report = seance::store::diff(baseline, current);
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 2;
  }

  if (quiet) {
    // Last line of summary() is the verdict.
    const std::string full = report.summary();
    const std::size_t cut = full.rfind('\n', full.size() - 2);
    std::printf("%s", full.substr(cut == std::string::npos ? 0 : cut + 1).c_str());
  } else {
    std::printf("%s", report.summary().c_str());
  }
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::printf("error: cannot write %s\n", csv_path.c_str());
      return 2;
    }
    out << report.to_csv();
    if (!quiet) std::printf("wrote %s\n", csv_path.c_str());
  }
  return report.clean() ? 0 : 1;
}

/// Loads a stored report into the cache's warm tier.  The store's
/// identity must match the corpus recipe flags exactly — the rows are
/// keyed by rebuilding the recipe's job specs, so a mismatched store
/// would warm-cache wrong answers.  Serve-mode notes go to stderr:
/// stdout is the protocol stream.
int load_warm_tier(seance::api::ResultCache& cache, const CorpusFlags& flags,
                   const std::string& path, bool quiet) {
  seance::store::StoredReport stored;
  try {
    stored = seance::store::load(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const auto request = corpus_request(flags);
  const auto mismatches = seance::store::identity_mismatches(
      seance::api::corpus_identity(request), stored.identity,
      /*ignore_shard=*/true);
  if (!mismatches.empty()) {
    std::fprintf(stderr,
                 "warm store %s does not match the corpus recipe flags:\n",
                 path.c_str());
    for (const auto& m : mismatches) std::fprintf(stderr, "  %s\n", m.c_str());
    return 1;
  }
  std::vector<seance::driver::JobSpec> jobs;
  try {
    jobs = seance::api::corpus_jobs(request);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "corpus error: %s\n", e.what());
    return 1;
  }
  std::unordered_map<std::string, const seance::driver::JobSpec*> by_name;
  for (const auto& spec : jobs) by_name[spec.name] = &spec;
  int warmed = 0;
  int skipped = 0;
  for (const auto& row : stored.report.jobs) {
    const auto it = by_name.find(row.name);
    if (it == by_name.end() ||
        row.status == seance::driver::JobStatus::kTimeout ||
        row.status == seance::driver::JobStatus::kCrashed) {
      ++skipped;  // unknown job, or a machine-dependent verdict
      continue;
    }
    seance::api::SynthesisRequest req;
    req.name = row.name;
    req.table = it->second->table;
    req.options = it->second->options;
    req.verify = flags.options.verify;
    req.ternary = flags.options.ternary;
    req.ternary_strict = flags.options.ternary_strict;
    req.gate_ternary = flags.options.gate_ternary;
    req.timeout_ms = flags.options.job_timeout_ms;
    cache.warm_insert(seance::api::cache_key(req), row);
    ++warmed;
  }
  if (!quiet) {
    std::fprintf(stderr, "serve: warm tier %d entries from %s (%d skipped)\n",
                 warmed, path.c_str(), skipped);
  }
  return 0;
}

int run_serve(int argc, char** argv) {
  CorpusFlags flags;
  std::string cache_dir = ".seance-cache";
  bool no_disk = false;
  double cache_mem_mb = 64.0;
  std::string warm_path;
  std::string socket_path;
  bool quiet = false;

  OptionTable table("serve");
  table.synopsis(
      "usage: seance serve [serve options]\n"
      "line-delimited request protocol on stdin/stdout (or --socket); see\n"
      "README \"Serve mode & result cache\" for the grammar");
  table.text("--cache-dir", "DIR",
             "on-disk result cache directory (default .seance-cache)",
             &cache_dir);
  table.flag("--no-disk-cache", "disable the on-disk cache tier", &no_disk);
  table.number("--cache-mem-mb", "N",
               "in-memory LRU budget in MiB; 0 disables (default 64)",
               &cache_mem_mb);
  table.text("--warm", "FILE",
             "pre-warm from a stored report; pass the corpus recipe flags "
             "that produced it",
             &warm_path);
  table.text("--socket", "PATH",
             "serve a unix-domain socket instead of stdin/stdout",
             &socket_path);
  table.flag("--quiet", "suppress startup/shutdown notes on stderr", &quiet);
  add_check_options(table, flags);
  add_synthesis_options(table, flags.options.synthesis);
  add_recipe_options(table, flags);
  switch (table.parse(argc, argv, 2)) {
    case ParseResult::kHelp: return 0;
    case ParseResult::kError: usage(); return 1;
    case ParseResult::kOk: break;
  }
  // The parser guarantees a finite value; the byte count must also fit
  // in size_t, or the cast below is undefined.
  const double cache_mem_bytes = cache_mem_mb * 1024.0 * 1024.0;
  if (cache_mem_mb < 0 || cache_mem_bytes >= static_cast<double>(SIZE_MAX)) {
    std::printf("option --cache-mem-mb needs a non-negative MiB count whose "
                "bytes fit in size_t\n");
    return 1;
  }

  seance::api::CacheConfig cache_config;
  cache_config.dir = no_disk ? std::string() : cache_dir;
  cache_config.mem_limit_bytes = static_cast<std::size_t>(cache_mem_bytes);
  seance::api::ResultCache cache(cache_config);
  if (!warm_path.empty()) {
    const int rc = load_warm_tier(cache, flags, warm_path, quiet);
    if (rc != 0) return rc;
  }
  cache.warm_seal();

  seance::api::ServeConfig config;
  config.options = flags.options.synthesis;
  config.verify = flags.options.verify;
  config.ternary = flags.options.ternary;
  config.ternary_strict = flags.options.ternary_strict;
  config.gate_ternary = flags.options.gate_ternary;
  config.timeout_ms = flags.options.job_timeout_ms;

  if (!quiet) {
    std::fprintf(stderr, "serve: disk %s, mem budget %zu bytes, warm %zu\n",
                 cache_config.dir.empty() ? "(off)" : cache_config.dir.c_str(),
                 cache_config.mem_limit_bytes, cache.stats().warm_entries);
  }
  seance::api::ServeStats stats;
  if (!socket_path.empty()) {
#if defined(__unix__) || defined(__APPLE__)
    try {
      stats = seance::api::serve_unix_socket(socket_path, config, &cache);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
#else
    std::printf("--socket needs unix sockets, unavailable on this platform\n");
    return 1;
#endif
  } else {
    stats = seance::api::serve(std::cin, std::cout, config, &cache);
  }
  if (!quiet) {
    const auto& c = cache.stats();
    std::fprintf(stderr,
                 "serve: %llu requests (%llu errors), %llu hits "
                 "(%llu warm), %llu misses, %llu stale\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.errors),
                 static_cast<unsigned long long>(c.hits),
                 static_cast<unsigned long long>(c.warm_hits),
                 static_cast<unsigned long long>(c.misses),
                 static_cast<unsigned long long>(c.stale));
  }
  return 0;
}

int run_single(int argc, char** argv) {
  std::string verilog_path;
  std::string kiss_path;
  bool verify = false;
  bool gate_ternary = false;
  bool quiet = false;
  int walk_steps = 500;
  seance::core::SynthesisOptions options;
  std::vector<std::string> positionals;

  OptionTable table("");
  table.synopsis("usage: seance <table.kiss2 | benchmark-name> [options]");
  table.text("--verilog", "FILE",
             "write structural Verilog of the FANTOM network", &verilog_path);
  table.text("--kiss", "FILE", "write the (reduced) flow table back as KISS2",
             &kiss_path);
  table.flag("--verify",
             "run the static ternary verification and the gate-level "
             "random-walk simulation",
             &verify);
  table.number("--walk", "N",
               "simulated handshakes for --verify (default 500)", &walk_steps);
  table.flag("--gate-ternary",
             "with --verify: re-import the exported Verilog and repeat the "
             "ternary verification on the gate network",
             &gate_ternary);
  add_synthesis_options(table, options);
  table.flag("--quiet", "suppress the report", &quiet);
  switch (table.parse(argc, argv, 1, &positionals)) {
    case ParseResult::kHelp: return 0;
    case ParseResult::kError: usage(); return 1;
    case ParseResult::kOk: break;
  }
  if (positionals.empty()) {
    usage();
    return 1;
  }
  const std::string target = positionals.back();

  seance::flowtable::FlowTable flow(1, 0, 1);
  try {
    if (target.find(".kiss") != std::string::npos ||
        target.find('/') != std::string::npos) {
      flow = seance::flowtable::load_kiss2_file(target);
    } else {
      flow = seance::bench_suite::load(seance::bench_suite::by_name(target));
    }
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }

  // The CLI runs its own verification reporting below, so the facade is
  // asked only for the machine (checks off, no cache: machine requests
  // always take the cold path).
  seance::api::SynthesisRequest request;
  request.name = target;
  request.table = std::move(flow);
  request.options = options;
  request.verify = false;
  request.ternary = false;
  request.want_machine = true;
  const seance::api::SynthesisResponse response = seance::api::synthesize(request);
  if (!response.machine) {
    std::printf("synthesis error: %s\n", response.row.detail.c_str());
    return 1;
  }
  const seance::core::FantomMachine& machine = *response.machine;

  if (!quiet) {
    std::printf("%s", machine.report().c_str());
    std::printf("%s",
                seance::hazard::to_string(machine.hazards, machine.table).c_str());
  }

  if (!verilog_path.empty()) {
    seance::netlist::Netlist netlist;
    (void)seance::netlist::build_fantom(machine, netlist);
    std::ofstream out(verilog_path);
    if (!out) {
      std::printf("error: cannot write %s\n", verilog_path.c_str());
      return 1;
    }
    out << seance::netlist::to_verilog(netlist, "fantom");
    if (!quiet) std::printf("wrote %s\n", verilog_path.c_str());
  }
  if (!kiss_path.empty()) {
    std::ofstream out(kiss_path);
    if (!out) {
      std::printf("error: cannot write %s\n", kiss_path.c_str());
      return 1;
    }
    out << seance::flowtable::to_kiss2(machine.table);
    if (!quiet) std::printf("wrote %s\n", kiss_path.c_str());
  }

  if (verify) {
    std::string why;
    if (!seance::core::verify_equations(machine, &why)) {
      std::printf("equation verification: FAIL (%s)\n", why.c_str());
      return 1;
    }
    std::printf("equation verification: PASS\n");
    const auto ternary = seance::sim::ternary_verify(machine);
    std::printf("ternary analysis: %d transitions, %d/%d conservative flags "
                "(procedure A/B)\n",
                ternary.transitions_checked, ternary.procedure_a_violations,
                ternary.procedure_b_violations);
    if (gate_ternary) {
      seance::netlist::Netlist built;
      (void)seance::netlist::build_fantom(machine, built);
      const std::string verilog = seance::netlist::to_verilog(built, "fantom");
      seance::netlist::Netlist reimported;
      try {
        reimported = seance::netlist::parse_verilog(verilog);
      } catch (const std::exception& e) {
        std::printf("verilog round trip: FAIL (%s)\n", e.what());
        return 1;
      }
      if (seance::netlist::to_verilog(reimported, "fantom") != verilog) {
        std::printf("verilog round trip: FAIL (re-export not byte-stable)\n");
        return 1;
      }
      const auto gate = seance::sim::gate_ternary_verify(reimported, machine);
      std::printf("gate ternary: %d transitions, %d/%d conservative flags "
                  "(procedure A/B)\n",
                  gate.transitions_checked, gate.procedure_a_violations,
                  gate.procedure_b_violations);
      // The whole report must agree: transitions, overruns and the
      // first failure as well as the A/B counts.
      if (gate != ternary) {
        std::printf("gate ternary: FAIL (disagrees with the cover-level "
                    "report: %d/%d overruns, first failure \"%s\" vs "
                    "\"%s\")\n",
                    gate.fixpoint_overruns, ternary.fixpoint_overruns,
                    gate.first_failure.c_str(), ternary.first_failure.c_str());
        return 1;
      }
    }
    seance::sim::HarnessOptions harness_options;
    harness_options.max_skew = 2;
    seance::sim::FantomHarness harness(machine, harness_options);
    const auto cols = machine.table.stable_columns(0);
    if (cols.empty() || !harness.reset(0, cols.front())) {
      std::printf("simulation: could not initialize\n");
      return 1;
    }
    const auto summary = harness.random_walk(walk_steps, 1);
    std::printf("simulation: %d handshakes (%d MIC), %d failures\n",
                summary.applied, summary.mic_steps, summary.failures);
    return summary.failures == 0 ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  if (std::strcmp(argv[1], "--help") == 0) {
    usage();
    return 0;
  }
  if (std::strcmp(argv[1], "batch") == 0) {
    return run_batch(argc, argv);
  }
  if (std::strcmp(argv[1], "baseline") == 0) {
    return run_baseline(argc, argv);
  }
  if (std::strcmp(argv[1], "diff") == 0) {
    return run_diff(argc, argv);
  }
  if (std::strcmp(argv[1], "serve") == 0) {
    return run_serve(argc, argv);
  }
  return run_single(argc, argv);
}
