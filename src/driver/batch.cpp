#include "driver/batch.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "bench_suite/benchmarks.hpp"
#include "flowtable/kiss.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "sim/ternary_netsim.hpp"
#include "sim/ternary_verify.hpp"

namespace seance::driver {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// RFC-4180 quoting: job names can be arbitrary file paths, so commas,
// quotes and newlines must not shift the metric columns.
std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

int resolve_threads(int requested, int jobs) {
  int n = requested;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;
  if (n > jobs) n = jobs;
  return n > 0 ? n : 1;
}

}  // namespace

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kSynthesisError: return "synthesis-error";
    case JobStatus::kVerifyFailed: return "verify-failed";
    case JobStatus::kHazardUnclean: return "hazard-unclean";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kCrashed: return "crashed";
  }
  return "unknown";
}

std::optional<JobStatus> status_from_string(std::string_view s) {
  for (const JobStatus status :
       {JobStatus::kOk, JobStatus::kSynthesisError, JobStatus::kVerifyFailed,
        JobStatus::kHazardUnclean, JobStatus::kTimeout, JobStatus::kCrashed}) {
    if (s == to_string(status)) return status;
  }
  return std::nullopt;
}

std::string format_fixed(double value, int decimals) {
  if (decimals < 0) decimals = 0;
  if (decimals > 9) decimals = 9;
  std::uint64_t scale = 1;
  for (int i = 0; i < decimals; ++i) scale *= 10;
  const bool negative = std::signbit(value) && value != 0.0;
  double magnitude = negative ? -value : value;
  if (!std::isfinite(magnitude)) magnitude = 0.0;
  // Round half away from zero, saturating instead of overflowing the
  // integer domain (a saturated wall time is already meaningless).
  const double scaled = magnitude * static_cast<double>(scale) + 0.5;
  const std::uint64_t units =
      scaled >= 9.2e18 ? std::uint64_t{9'200'000'000'000'000'000ull}
                       : static_cast<std::uint64_t>(scaled);
  std::string out;
  if (negative && units != 0) out += '-';
  out += std::to_string(units / scale);
  if (decimals > 0) {
    const std::string frac = std::to_string(units % scale);
    out += '.';
    out.append(static_cast<std::size_t>(decimals) - frac.size(), '0');
    out += frac;
  }
  return out;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  // splitmix64 (Steele et al.) over the combined word: a single step is a
  // bijection, so distinct (base, index) pairs land far apart.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int BatchReport::ok_count() const {
  int n = 0;
  for (const auto& j : jobs) n += j.ok() ? 1 : 0;
  return n;
}

int BatchReport::failed_count() const {
  return static_cast<int>(jobs.size()) - ok_count();
}

std::string BatchReport::summary(bool per_job) const {
  std::string out;
  char line[256];
  if (per_job) {
    std::snprintf(line, sizeof(line), "%-24s %5s %5s %4s %4s %6s %7s %6s %9s\n",
                  "job", "in/out", "st", "vars", "|FL|", "depth", "gates",
                  "check", "ms");
    out += line;
    for (const auto& j : jobs) {
      // The name goes through std::string so arbitrarily long KISS2
      // paths never truncate the row's trailing columns (mirrors
      // to_csv); only the bounded numeric tail uses the stack buffer.
      std::string row = j.name;
      if (row.size() < 24) row.append(24 - row.size(), ' ');
      std::snprintf(line, sizeof(line),
                    " %3d/%-2d %2d>%-2d %4d %4d %2d/%d/%d %7d %6s %9.2f\n",
                    j.num_inputs, j.num_outputs, j.input_states,
                    j.synthesized_states, j.state_vars, j.fl_hazards,
                    j.depth.fsv_depth, j.depth.y_depth, j.depth.total_depth,
                    j.gate_count, to_string(j.status), j.wall_ms);
      row += line;
      out += row;
      if (!j.ok() && !j.detail.empty()) {
        out += "    ^ " + j.detail + "\n";
      }
    }
  }
  std::snprintf(line, sizeof(line),
                "batch: %d jobs, %d ok, %d failed (%d threads, %.1f ms)\n",
                static_cast<int>(jobs.size()), ok_count(), failed_count(),
                threads_used, wall_ms);
  out += line;
  if (tt_stats.hits + tt_stats.misses + tt_stats.stores != 0) {
    std::snprintf(line, sizeof(line),
                  "tt: %llu hits, %llu misses, %llu stores, %llu evictions\n",
                  static_cast<unsigned long long>(tt_stats.hits),
                  static_cast<unsigned long long>(tt_stats.misses),
                  static_cast<unsigned long long>(tt_stats.stores),
                  static_cast<unsigned long long>(tt_stats.evictions));
    out += line;
  }
  if (shards_used > 0) {
    std::snprintf(line, sizeof(line),
                  "shards: %d workers, slowest %.1f ms\n", shards_used,
                  max_shard_wall_ms);
    out += line;
  }
  return out;
}

std::string to_csv_row(const JobResult& j) {
  // The name goes through std::string so arbitrarily long paths never
  // truncate the row; only the bounded numeric tail uses the buffer.
  char metrics[256];
  std::snprintf(metrics, sizeof(metrics),
                ",%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
                to_string(j.status), j.num_inputs, j.num_outputs,
                j.input_states, j.synthesized_states, j.state_vars,
                j.fl_hazards, j.var_hazards, j.depth.fsv_depth,
                j.depth.y_depth, j.depth.total_depth, j.gate_count,
                j.equations_verified ? 1 : 0, j.ternary_transitions,
                j.ternary_a_violations, j.ternary_b_violations,
                j.cover_cubes, j.cover_gap, j.gate_ternary_a_violations,
                j.gate_ternary_b_violations);
  std::string out = csv_escape(j.name);
  out += metrics;
  return out;
}

std::string BatchReport::to_csv() const {
  std::string out{kCsvHeader};
  out += '\n';
  for (const auto& j : jobs) {
    out += to_csv_row(j);
    out += '\n';
  }
  return out;
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

int BatchRunner::add(JobSpec spec) {
  jobs_.push_back(std::move(spec));
  return static_cast<int>(jobs_.size()) - 1;
}

int BatchRunner::add(std::string name, flowtable::FlowTable table) {
  return add(JobSpec(std::move(name), std::move(table), options_.synthesis));
}

void BatchRunner::add_table1_suite() {
  for (const auto& b : bench_suite::table1_suite()) {
    add(b.name, bench_suite::load(b));
  }
}

void BatchRunner::add_extra_suite() {
  for (const auto& b : bench_suite::extra_suite()) {
    add(b.name, bench_suite::load(b));
  }
}

void BatchRunner::add_kiss_file(const std::string& path) {
  add(path, flowtable::load_kiss2_file(path));
}

void BatchRunner::add_generated(int count,
                                const bench_suite::GeneratorOptions& base,
                                const char* name_prefix) {
  for (int i = 0; i < count; ++i) {
    bench_suite::GeneratorOptions gen = base;
    gen.seed = derive_seed(base.seed, static_cast<std::uint64_t>(i));
    char name[64];
    std::snprintf(name, sizeof(name), "%s-%dx%d-%04d", name_prefix,
                  gen.num_states, gen.num_inputs, i);
    add(JobSpec(name, bench_suite::generate(gen), options_.synthesis));
  }
}

void BatchRunner::add_hard_generated(int count, std::uint64_t base_seed) {
  bench_suite::GeneratorOptions gen = kHardShape;
  gen.seed = base_seed;
  // Distinct prefix: a corpus mixing an add_generated stream at the
  // 8x4 shape with `--hard M` must not produce colliding job names
  // (store::diff pairs rows by name and occurrence order).
  add_generated(count, gen, "hard");
}

void BatchRunner::add_harder_generated(int count, std::uint64_t base_seed) {
  bench_suite::GeneratorOptions gen = kHarderShape;
  gen.seed = base_seed;
  add_generated(count, gen, "harder");
}

void BatchRunner::add_hardest_generated(int count, std::uint64_t base_seed) {
  bench_suite::GeneratorOptions gen = kHardestShape;
  gen.seed = base_seed;
  add_generated(count, gen, "hardest");
}

JobResult run_with_deadline(std::string name, double timeout_ms,
                            std::function<JobResult()> body) {
  const auto start = Clock::now();
  const search::DeadlineScope deadline(timeout_ms);
  JobResult r;
  r.name = name;
  try {
    r = body();
  } catch (const std::exception& e) {
    r.status = JobStatus::kSynthesisError;
    r.detail = e.what();
  } catch (...) {
    r.status = JobStatus::kSynthesisError;
    r.detail = "unknown exception";
  }
  if (!deadline.expired()) return r;
  // Over budget, whether the body stopped at a checkpoint or finished
  // late: only the job's identity and table shape survive.  wall_ms is
  // measured, not the nominal budget, so checkpoint overshoot shows.
  JobResult timed_out;
  timed_out.name = std::move(name);
  timed_out.status = JobStatus::kTimeout;
  timed_out.detail = "exceeded " + format_fixed(timeout_ms, 0) + " ms";
  timed_out.num_inputs = r.num_inputs;
  timed_out.num_outputs = r.num_outputs;
  timed_out.input_states = r.input_states;
  timed_out.wall_ms = ms_since(start);
  return timed_out;
}

JobResult BatchRunner::run_job(const JobSpec& spec, const BatchOptions& options,
                               core::FantomMachine* machine_out,
                               search::TranspositionTable* tt) {
  // `tt` is the worker's reusable allocation, nothing more:
  // core::synthesize clears it on entry, so entries never outlive one
  // job (a timed-out one included) and every row is a pure function of
  // (spec.table, spec.options), whatever this worker ran first.
  JobResult r;
  r.name = spec.name;
  r.num_inputs = spec.table.num_inputs();
  r.num_outputs = spec.table.num_outputs();
  r.input_states = spec.table.num_states();
  const auto start = Clock::now();
  try {
    const core::FantomMachine machine =
        core::synthesize(spec.table, spec.options, tt);
    r.synthesized_states = machine.table.num_states();
    r.state_vars = machine.layout.num_state_vars;
    r.fl_hazards = static_cast<int>(machine.hazards.fl.size());
    for (const auto& hl : machine.hazards.per_var) {
      r.var_hazards += static_cast<int>(hl.size());
    }
    r.depth = machine.depth_report();
    r.gate_count = machine.gate_count();
    r.cover_cubes = static_cast<int>(machine.cover_bounds.cubes);
    r.cover_gap = static_cast<int>(machine.cover_bounds.gap());

    if (options.verify) {
      std::string why;
      r.equations_verified = core::verify_equations(machine, &why);
      if (!r.equations_verified) {
        r.status = JobStatus::kVerifyFailed;
        r.detail = why;
      }
    }
    std::optional<sim::TernaryReport> cover;
    if (options.ternary && r.status == JobStatus::kOk) {
      cover = sim::ternary_verify(machine);
      r.ternary_transitions = cover->transitions_checked;
      r.ternary_a_violations = cover->procedure_a_violations;
      r.ternary_b_violations = cover->procedure_b_violations;
      // Baseline (fsv-less) machines are *expected* to flag here — that is
      // the paper's comparison point — so at most protected machines fail,
      // and only when the caller asked for the strict interpretation.
      if (options.ternary_strict && !cover->clean() && spec.options.add_fsv) {
        r.status = JobStatus::kHazardUnclean;
        r.detail = cover->first_failure;
      }
    }
    if (options.gate_ternary && r.status == JobStatus::kOk) {
      // The gate-level pass deliberately runs on the *re-imported*
      // netlist, so every gated job exercises the whole loop: build ->
      // to_verilog -> parse_verilog -> gate_ternary_verify.  Export or
      // parse errors surface as kSynthesisError like any other throw.
      netlist::Netlist built;
      (void)netlist::build_fantom(machine, built);
      const std::string verilog = netlist::to_verilog(built, "fantom");
      const netlist::Netlist reimported = netlist::parse_verilog(verilog);
      if (netlist::to_verilog(reimported, "fantom") != verilog) {
        r.status = JobStatus::kVerifyFailed;
        r.detail = "verilog round trip is not byte-stable";
      } else {
        const sim::TernaryReport gate =
            sim::gate_ternary_verify(reimported, machine);
        r.gate_ternary_a_violations = gate.procedure_a_violations;
        r.gate_ternary_b_violations = gate.procedure_b_violations;
        // The two verifiers agree by theorem, so the whole report must
        // match: transitions, overruns and the first failure as well as
        // the A/B counts.
        if (cover && gate != *cover) {
          r.status = JobStatus::kVerifyFailed;
          r.detail = "gate-level ternary report disagrees with the "
                     "cover-level one: " +
                     std::to_string(gate.fixpoint_overruns) + "/" +
                     std::to_string(cover->fixpoint_overruns) +
                     " overruns, first failure \"" + gate.first_failure +
                     "\" vs \"" + cover->first_failure + "\"";
        } else if (options.ternary_strict && !gate.clean() &&
                   spec.options.add_fsv) {
          r.status = JobStatus::kHazardUnclean;
          r.detail = gate.first_failure;
        }
      }
    }
    if (machine_out) *machine_out = machine;
  } catch (const std::exception& e) {
    r.status = JobStatus::kSynthesisError;
    r.detail = e.what();
  } catch (...) {
    r.status = JobStatus::kSynthesisError;
    r.detail = "unknown exception";
  }
  r.wall_ms = ms_since(start);
  return r;
}

BatchReport BatchRunner::run() const {
  BatchReport report;
  report.jobs.resize(jobs_.size());
  const int threads = resolve_threads(options_.threads, job_count());
  report.threads_used = threads;
  const auto start = Clock::now();

  // Work-stealing by atomic index: workers write disjoint slots of
  // report.jobs; the counter, the progress channel, and the tt-stats
  // accumulator are the only shared state.
  std::atomic<std::size_t> next{0};
  std::mutex progress_m;
  int completed = 0;
  auto worker = [&] {
    // One transposition table per worker, reused across its jobs: the
    // allocation and the stats counters persist, but core::synthesize
    // clears the entries on entry (an O(1) epoch bump), so jobs never
    // warm each other and the work-stealing schedule stays invisible in
    // the report.  Worker-local ownership keeps probes lock-free.
    const auto tt = options_.synthesis.tt
                        ? std::make_unique<search::TranspositionTable>(
                              core::SynthesisOptions::tt_mb << 20)
                        : nullptr;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs_.size()) break;
      const JobSpec& spec = jobs_[i];
      const auto job = [&] { return run_job(spec, options_, nullptr, tt.get()); };
      report.jobs[i] =
          options_.job_timeout_ms > 0
              ? run_with_deadline(spec.name, options_.job_timeout_ms, job)
              : job();
      if (options_.on_result) {
        const std::lock_guard<std::mutex> lock(progress_m);
        options_.on_result(report.jobs[i], ++completed,
                           static_cast<int>(jobs_.size()));
      }
    }
    if (tt != nullptr) {
      const std::lock_guard<std::mutex> lock(progress_m);
      report.tt_stats += tt->stats();
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  report.wall_ms = ms_since(start);
  return report;
}

}  // namespace seance::driver
