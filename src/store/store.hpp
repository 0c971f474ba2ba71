// Persisted regression store.
//
// A BatchReport evaporates when the process exits; regression gating needs
// yesterday's report on disk and a differ that says what moved.  This
// module owns both halves:
//
//   * a versioned, byte-stable on-disk format — `#`-prefixed metadata
//     lines (schema version + corpus identity) followed by the driver's
//     CSV (header byte-validated against driver::kCsvHeader).  The same
//     corpus always serializes to the same bytes, so golden files can be
//     checked into the repo and diffed textually too;
//   * diff(baseline, current): per-job classification into added/removed
//     jobs, status transitions, and metric drift (|FL|, HL sums, depths,
//     gate count, state variables), with a deterministic human summary
//     and a machine CSV.  The comparison is exact: every row is a pure
//     function of (table, options), so there is no noise to tolerate.
//
// Corpus identity (base seed, generator shape, synthesis options, corpus
// composition) rides along so a diff between incomparable runs fails
// loudly instead of reporting coincidental agreement.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"

namespace seance::store {

/// Bumped whenever the serialized layout changes shape; load() rejects
/// files written by a different version (golden files are regenerated,
/// never migrated).  v2: cover_cubes + cover_gap columns (certified
/// cover-optimality accounting).  v3: gate_ternary_a + gate_ternary_b
/// columns (gate-level Eichelberger over the Verilog round trip) and a
/// `gate=` key in the checks identity line; the CSV header is matched by
/// prefix from v3 on, so this reader also accepts same-version files
/// whose writer appended further columns (extras are ignored per row).
inline constexpr int kSchemaVersion = 3;

/// Canonical one-line spellings used in the metadata header.  Two runs
/// with equal strings ran the same pipeline configuration.  The
/// BatchOptions overload covers only the result-affecting knobs (checks,
/// strictness, timeout budget) — thread count and progress plumbing
/// cannot change a report by the determinism contract.
[[nodiscard]] std::string describe(const core::SynthesisOptions& options);
[[nodiscard]] std::string describe(const bench_suite::GeneratorOptions& options);
[[nodiscard]] std::string describe(const driver::BatchOptions& options);

/// What produced a report — enough to tell whether two stored reports are
/// comparable at all.  Free-form strings compare byte-wise in diff().
struct CorpusIdentity {
  int schema_version = kSchemaVersion;
  std::uint64_t base_seed = 1;
  std::string corpus;     ///< composition, e.g. "table1+extra+gen200"
  std::string checks;     ///< describe(BatchOptions)
  std::string synthesis;  ///< describe(SynthesisOptions)
  std::string generator;  ///< describe(GeneratorOptions)
  /// "i/K" when this report covers slice i of a K-way sharded run
  /// (driver::ShardPlan::round_robin order); empty for a whole-corpus
  /// report.  Serialized only when non-empty, so unsharded files —
  /// including every existing golden — keep their exact bytes.
  std::string shard;
};

struct StoredReport {
  CorpusIdentity identity;
  driver::BatchReport report;  ///< threads_used/wall_ms/detail not persisted
};

/// Identity + report in the versioned byte-stable format.
[[nodiscard]] std::string serialize(const StoredReport& stored);
/// Inverse of serialize; throws std::runtime_error naming the offending
/// line on malformed input or a schema-version mismatch.  Unrecognized
/// '#' header lines (future keys, comments) are skipped, not errors —
/// same-major forward compatibility for readers of older builds (the
/// serve result cache reads entries across build generations).
/// `tolerate_partial_tail` accepts the torn file a crashed shard worker
/// leaves behind (rows are appended and flushed per job): a final row
/// that is malformed or not newline-terminated is dropped instead of
/// failing the parse.  Interior corruption still throws either way.
[[nodiscard]] StoredReport parse(const std::string& text,
                                 bool tolerate_partial_tail = false);

/// File wrappers; throw std::runtime_error on I/O failure.
void save(const std::string& path, const StoredReport& stored);
[[nodiscard]] StoredReport load(const std::string& path,
                                bool tolerate_partial_tail = false);

/// Field-by-field identity comparison, one "<field> 'a' vs 'b'" line per
/// mismatch (schema, corpus, seed, checks, synthesis, generator, and —
/// unless `ignore_shard` — the shard tag).  The single source of truth
/// for "same pipeline configuration": diff() warnings, merge()
/// rejection, and the CLI's --resume validation all route through it, so
/// a future identity field cannot be missed in one of the three.
[[nodiscard]] std::vector<std::string> identity_mismatches(
    const CorpusIdentity& baseline, const CorpusIdentity& current,
    bool ignore_shard = false);

/// Stitches per-shard reports (possibly partial, possibly fewer than the
/// plan's K) back into one whole-corpus report.  `identity` is the
/// expected whole-corpus identity: every shard must match it on corpus,
/// seed, checks, synthesis, and generator (the shard tag itself is
/// ignored), and every shard job must be named in `job_order` — the
/// corpus submission order, which must be duplicate-free.  Violations
/// throw std::runtime_error naming the offender.  Output jobs follow
/// `job_order` exactly, so a merge of a complete shard set serializes
/// byte-identically to the single-process run; jobs no shard reported
/// (their worker died first) come back as kCrashed placeholder rows.
[[nodiscard]] StoredReport merge(const CorpusIdentity& identity,
                                 const std::vector<StoredReport>& shards,
                                 const std::vector<std::string>& job_order);

enum class DeltaKind : std::uint8_t {
  kAdded,          ///< job in current only
  kRemoved,        ///< job in baseline only
  kStatusChanged,  ///< verdict transition (metrics not compared)
  kMetricDrift,    ///< same status, >= 1 metric differs
};

[[nodiscard]] const char* to_string(DeltaKind kind);

struct MetricDelta {
  const char* metric;  ///< CSV column name
  int baseline = 0;
  int current = 0;
};

struct JobDelta {
  std::string name;
  DeltaKind kind;
  driver::JobStatus baseline_status = driver::JobStatus::kOk;
  driver::JobStatus current_status = driver::JobStatus::kOk;
  std::vector<MetricDelta> metrics;  ///< kMetricDrift: the drifted columns
  /// True when every change moved the good way (status now kOk, or all
  /// drifted metrics decreased — lower is better for every tracked one).
  /// Summary wording only; an improvement is still drift and still fails
  /// the gate, because the golden file is stale either way.
  bool improvement = false;
};

struct DiffReport {
  /// Baseline order first (removed / changed jobs), then current-only
  /// jobs in current order — deterministic for equal inputs.
  std::vector<JobDelta> deltas;
  /// Identity mismatches (seed, corpus, options, ...).  Non-empty means
  /// the runs are not comparable; clean() is then false regardless of
  /// per-job agreement.
  std::vector<std::string> warnings;
  int jobs_compared = 0;  ///< jobs present on both sides

  [[nodiscard]] bool clean() const { return deltas.empty() && warnings.empty(); }
  /// Human-readable classification, one line per delta plus a verdict.
  [[nodiscard]] std::string summary() const;
  /// Machine CSV: name,kind,metric,baseline,current,delta.
  [[nodiscard]] std::string to_csv() const;
};

[[nodiscard]] DiffReport diff(const StoredReport& baseline,
                              const StoredReport& current);

}  // namespace seance::store
