// Parallel batch-synthesis driver.
//
// Production workloads (corpus regression, parameter sweeps, CI gating)
// run thousands of flow tables through the SEANCE pipeline; doing that
// one table at a time in a shell loop re-pays process startup per job and
// loses the per-job metrics.  BatchRunner owns a corpus of JobSpecs —
// built-in Table-1 benchmarks, KISS2 files, and generator tables with
// deterministic per-job seeds — and executes core::synthesize plus the
// requested verification passes across a thread pool, collecting one
// JobResult per job in submission order.
//
// Determinism contract: result i is a pure function of job i's spec, so
// reports are byte-identical across runs and thread counts.  Failure
// isolation: a job that throws is recorded as kSynthesisError and the
// rest of the batch proceeds.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "flowtable/table.hpp"
#include "search/search.hpp"

namespace seance::driver {

enum class JobStatus : std::uint8_t {
  kOk = 0,          ///< synthesized; every requested check passed
  kSynthesisError,  ///< core::synthesize (or table prep) threw
  kVerifyFailed,    ///< core::verify_equations rejected the machine, or
                    ///< the gate loop failed (re-export not byte-stable,
                    ///< gate-level report differs from the cover-level one)
  kHazardUnclean,   ///< ternary flags, promoted to failure only under
                    ///< BatchOptions::ternary_strict (Eichelberger is
                    ///< conservative for MIC transitions, so flags are
                    ///< recorded as metrics by default)
  kTimeout,         ///< exceeded BatchOptions::job_timeout_ms; stopped
                    ///< at a deadline checkpoint, the batch proceeds
  kCrashed,         ///< the job's shard worker process died before
                    ///< reporting it (sharded runs only — recorded by the
                    ///< orchestrator, never by an in-process BatchRunner)
};

[[nodiscard]] const char* to_string(JobStatus status);
/// Inverse of to_string; nullopt for unknown spellings.  Persisted
/// reports (src/store) round-trip statuses through these two.
[[nodiscard]] std::optional<JobStatus> status_from_string(std::string_view s);

/// Fixed-point decimal formatting via integer math: the emitted bytes are
/// independent of the process locale (snprintf honours LC_NUMERIC) and of
/// the C library, so golden CSV files stay byte-stable everywhere.
/// `decimals` is clamped to [0, 9]; non-finite values format as 0.
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Exact BatchReport::to_csv() header (no trailing newline).  Persisted
/// reports validate against this.
inline constexpr std::string_view kCsvHeader =
    "name,status,inputs,outputs,input_states,synthesized_states,state_vars,"
    "fl_hazards,var_hazards,fsv_depth,y_depth,total_depth,gate_count,"
    "equations_verified,ternary_transitions,ternary_a,ternary_b,"
    "cover_cubes,cover_gap,gate_ternary_a,gate_ternary_b";

/// The harder canonical generator shape (ROADMAP: 8 states / 4 inputs).
/// `seance_cli --hard N` and the golden corpus batch exactly this shape —
/// only the base seed varies — so hard-shape rows stay comparable across
/// reports.
inline constexpr bench_suite::GeneratorOptions kHardShape{
    .num_states = 8,
    .num_inputs = 4,
    .num_outputs = 2,
    .transition_density = 0.5,
    .mic_bias = 0.7,
    .seed = 1};

/// The harder canonical shape (ROADMAP: 10-12 states / 5 inputs) opened
/// by the word-parallel prime engine.  `seance_cli --harder N` and the
/// golden corpus batch exactly this shape — only the base seed varies.
/// Its equations land at 12-14 variables (5 inputs + state variables +
/// fsv), the range the retuned kExactCellLimit / exact node budget were
/// swept on.
inline constexpr bench_suite::GeneratorOptions kHarderShape{
    .num_states = 12,
    .num_inputs = 5,
    .num_outputs = 2,
    .transition_density = 0.5,
    .mic_bias = 0.7,
    .seed = 1};

/// The hardest canonical shape (ROADMAP: >= 20 states / 6 inputs) opened
/// by the bitset minimize + USTT engines: at this size the seed
/// front-of-pipeline (pair-chart sweeps, level-wise prime generation)
/// dominated job wall time, not the covering engine.  `seance_cli
/// --hardest N` and the golden corpus batch exactly this shape — only the
/// base seed varies.
inline constexpr bench_suite::GeneratorOptions kHardestShape{
    .num_states = 20,
    .num_inputs = 6,
    .num_outputs = 2,
    .transition_density = 0.5,
    .mic_bias = 0.7,
    .seed = 1};

/// One unit of work: a named table plus its synthesis options.
struct JobSpec {
  std::string name;
  flowtable::FlowTable table;
  core::SynthesisOptions options;

  JobSpec() : table(1, 0, 1) {}
  JobSpec(std::string n, flowtable::FlowTable t, core::SynthesisOptions o = {})
      : name(std::move(n)), table(std::move(t)), options(o) {}
};

struct JobResult {
  std::string name;
  JobStatus status = JobStatus::kOk;
  std::string detail;  ///< error / failure reason, empty on success

  // Table shape (input side and after reduction).
  int num_inputs = 0;
  int num_outputs = 0;
  int input_states = 0;
  int synthesized_states = 0;
  int state_vars = 0;

  // Table-1 style metrics.
  int fl_hazards = 0;   ///< |FL| — fsv ON-set size
  int var_hazards = 0;  ///< sum over HL_n
  core::DepthReport depth;
  int gate_count = 0;

  // Verification outcomes (only meaningful for the passes that ran).
  bool equations_verified = false;
  int ternary_transitions = 0;
  int ternary_a_violations = 0;
  int ternary_b_violations = 0;
  /// Gate-level Eichelberger counts (BatchOptions::gate_ternary): the
  /// machine's netlist is exported to Verilog, re-imported, and verified
  /// at the gate level, so these columns witness the full round trip.
  /// They must equal the cover-level columns on every corpus job — the
  /// CI drift gate diffs both pairs.  Zero when the pass did not run.
  int gate_ternary_a_violations = 0;
  int gate_ternary_b_violations = 0;

  // Certified cover-optimality accounting (core::CoverBounds): summed
  // cover sizes over the minimized Z/SSD/Y charts and the summed
  // certified gap (cubes minus certified lower bound — zero means every
  // chart of the job is a proven minimum).  Both lower-is-better and
  // derived from memoization-independent bounds, so they are a pure
  // function of the spec like every other persisted metric.
  int cover_cubes = 0;
  int cover_gap = 0;

  double wall_ms = 0.0;

  [[nodiscard]] bool ok() const { return status == JobStatus::kOk; }
};

/// One kCsvHeader-shaped CSV record for `result` (RFC-4180 name quoting,
/// no wall_ms column, no trailing newline) — the exact bytes
/// BatchReport::to_csv emits for that job.  Exposed so shard workers can
/// stream rows to their store file as jobs finish: a worker killed
/// mid-slice then loses only the unflushed jobs, not the whole slice.
[[nodiscard]] std::string to_csv_row(const JobResult& result);

struct BatchReport {
  std::vector<JobResult> jobs;  ///< submission order, one per job
  int threads_used = 0;
  double wall_ms = 0.0;  ///< end-to-end batch wall time
  /// Sharded runs only (filled by the orchestrator after store::merge):
  /// worker-process count and the slowest worker's wall clock.  Zero for
  /// in-process runs; summary() adds a shard line when set.  Like
  /// threads_used, never persisted — wall clocks are not a pure function
  /// of the corpus.
  int shards_used = 0;
  double max_shard_wall_ms = 0.0;
  /// Transposition-table activity summed over the run's workers (zero
  /// when memoization is off).  Like wall clocks, never persisted: hit
  /// patterns depend on the thread schedule, not just the corpus.
  search::TtStats tt_stats;

  [[nodiscard]] int ok_count() const;
  [[nodiscard]] int failed_count() const;
  [[nodiscard]] bool all_ok() const { return failed_count() == 0; }

  /// Human-readable per-job table plus a totals line.
  [[nodiscard]] std::string summary(bool per_job = true) const;
  /// Machine-readable CSV (header + one row per job).  Deterministic: no
  /// wall times, which are not a pure function of the spec.
  [[nodiscard]] std::string to_csv() const;
};

struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int threads = 0;
  /// Run core::verify_equations on every synthesized machine.
  bool verify = true;
  /// Run sim::ternary_verify (Eichelberger procedures A/B) as well.
  bool ternary = true;
  /// Promote ternary flags on protected machines to kHazardUnclean.
  /// Off by default: procedure A/B are conservative over MIC intermediates
  /// (see test_ternary_verify), so flags are metrics, not verdicts.
  bool ternary_strict = false;
  /// Also run the gate-level ternary pass (sim::gate_ternary_verify) on
  /// the netlist re-imported from its own Verilog export, closing the
  /// export -> parse -> verify loop per job.  The re-export must be
  /// byte-identical, and when the cover-level pass ran too the two
  /// reports must agree in full (kVerifyFailed otherwise); under
  /// ternary_strict gate-level flags gate exactly like cover-level ones.
  bool gate_ternary = false;
  /// Per-job wall-clock budget in milliseconds (run_with_deadline); 0
  /// means none.  Timeout verdicts depend on machine speed — pick budgets
  /// far above normal job times when reports must be reproducible.
  double job_timeout_ms = 0;
  /// Streaming progress: called once per finished job, serialized, in
  /// completion (not submission) order.  `completed` counts calls so far,
  /// `total` is the corpus size.  Leave empty for silent runs.
  std::function<void(const JobResult& result, int completed, int total)>
      on_result;
  /// Synthesis options used by the corpus-building helpers below.
  core::SynthesisOptions synthesis;
};

/// Runs `body` on the calling thread inside a search::DeadlineScope of
/// `timeout_ms`.  Within budget: body's result, or kSynthesisError if it
/// threw.  Over budget, whether body returned or unwound: kTimeout with
/// body's table-shape fields, the measured wall_ms and the detail
/// "exceeded N ms".  Timeout and error results carry `name`.
[[nodiscard]] JobResult run_with_deadline(std::string name, double timeout_ms,
                                          std::function<JobResult()> body);

/// Deterministic per-job seed: splitmix64 of (base, index).  Stable across
/// platforms and releases — golden batch reports depend on it.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Enqueues one job; returns its index in the final report.
  int add(JobSpec spec);
  int add(std::string name, flowtable::FlowTable table);

  /// The paper's five Table-1 benchmarks, in paper order.
  void add_table1_suite();
  /// The regression extras (train4 and friends).
  void add_extra_suite();
  /// Parses a KISS2 file and enqueues it (throws on parse errors — a file
  /// that cannot be read is a corpus bug, not a job failure).
  void add_kiss_file(const std::string& path);
  /// `count` generator tables derived from `base`; job i uses seed
  /// derive_seed(base.seed, i), so the corpus is reproducible and
  /// independent of thread schedule.  Jobs are named
  /// `<prefix>-<states>x<inputs>-NNNN`.
  void add_generated(int count, const bench_suite::GeneratorOptions& base,
                     const char* name_prefix = "gen");
  /// `count` tables at the harder canonical shape (kHardShape) seeded
  /// from `base_seed`; jobs are named hard-8x4-NNNN so they can never
  /// collide with an add_generated stream at the same shape.
  void add_hard_generated(int count, std::uint64_t base_seed);
  /// `count` tables at the harder canonical shape (kHarderShape) seeded
  /// from `base_seed`; jobs are named harder-12x5-NNNN.
  void add_harder_generated(int count, std::uint64_t base_seed);
  /// `count` tables at the hardest canonical shape (kHardestShape) seeded
  /// from `base_seed`; jobs are named hardest-20x6-NNNN.
  void add_hardest_generated(int count, std::uint64_t base_seed);

  [[nodiscard]] int job_count() const { return static_cast<int>(jobs_.size()); }
  [[nodiscard]] const std::vector<JobSpec>& jobs() const { return jobs_; }

  /// Runs the whole corpus across the pool and returns the report.
  [[nodiscard]] BatchReport run() const;

  /// Executes a single spec inline (the pool's worker body; exposed for
  /// tests and for callers that want their own scheduling).  When
  /// `machine_out` is non-null and synthesis succeeds, the machine is
  /// copied out — the api facade's single-table path needs the equations
  /// and netlist alongside the metrics row without running twice.
  /// `tt` (optional) is the worker's transposition table, passed through
  /// to core::synthesize, which clears it on entry: entries are scoped
  /// to this one job (cross-job warmth would leak a truncated search's
  /// warmth-dependent incumbent into the row, making reports depend on
  /// worker scheduling), so every row is a pure function of the spec no
  /// matter whose table is handed in.  Only the allocation and the
  /// cumulative TtStats outlive the call.
  [[nodiscard]] static JobResult run_job(const JobSpec& spec,
                                         const BatchOptions& options,
                                         core::FantomMachine* machine_out =
                                             nullptr,
                                         search::TranspositionTable* tt =
                                             nullptr);

 private:
  BatchOptions options_;
  std::vector<JobSpec> jobs_;
};

}  // namespace seance::driver
