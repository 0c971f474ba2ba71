// Unified request/response facade over the SEANCE pipeline.
//
// Four CLI subcommands (single-table, batch, baseline, serve) grew three
// divergent hand-rolled paths into core::synthesize / driver::BatchRunner;
// this module is the one doorway they all use instead.  Two services:
//
//   * synthesize(SynthesisRequest) -> SynthesisResponse — one table, one
//     metrics row, optionally the full machine (equations/netlist), and —
//     when a ResultCache is attached — a content-addressed answer: the
//     pipeline is deterministic (PR 5/6 proved byte-identical reports
//     across processes and shard counts), so a result is a pure function
//     of (table bytes, SynthesisOptions, check set) and cache_key() spells
//     exactly that triple;
//
//   * the corpus service — corpus_jobs / corpus_identity / run_jobs —
//     which owns the corpus recipe (suites, generator streams, KISS2
//     files with content fingerprints) that batch, baseline, and the
//     shard worker protocol all rebuild from the same flags.
//
// The cache value encoding is the regression store's byte-stable row
// format (src/store), so cached answers are bit-equal to cold runs by
// construction and on-disk entries double as one-row store files.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "flowtable/table.hpp"
#include "store/store.hpp"

namespace seance::api {

class ResultCache;  // cache.hpp

/// search::fnv64 (FNV-1a 64, the repo's content-fingerprint primitive)
/// spelled as 16 lowercase hex digits.
[[nodiscard]] std::string fnv64_hex(std::string_view bytes);
/// fnv64_hex of a file's contents; "unreadable" when it cannot be opened.
/// Corpus `kiss:<path>@<hex>` identities use it.
[[nodiscard]] std::string fnv64_file_hex(const std::string& path);

/// Where a response came from.
enum class CacheDisposition : std::uint8_t {
  kUncached,  ///< no cache attached (or bypassed for a machine request)
  kHit,       ///< answered from the cache, pipeline not run
  kMiss,      ///< no entry; pipeline ran, result written back
  kStale,     ///< entry existed but was corrupt/torn/mismatched; pipeline
              ///< ran and the entry was overwritten
};
[[nodiscard]] const char* to_string(CacheDisposition disposition);

/// One synthesis job, fully self-describing: the table (as KISS2 bytes or
/// pre-parsed), the synthesis options, and the check set that decides
/// which verification columns of the row are meaningful.
struct SynthesisRequest {
  std::string name;        ///< row label; not part of the cache key
  std::string table_text;  ///< KISS2 bytes; used iff `table` is empty
  std::optional<flowtable::FlowTable> table;  ///< pre-parsed alternative
  core::SynthesisOptions options;

  // Check set (the result-affecting half of driver::BatchOptions).
  bool verify = true;
  bool ternary = true;
  bool ternary_strict = false;
  /// Gate-level ternary over the Verilog round trip (BatchOptions::
  /// gate_ternary); fills the gate_ternary_a/b columns of the row.
  bool gate_ternary = false;
  double timeout_ms = 0;  ///< per-job deadline; 0 = none

  /// Keep the synthesized FantomMachine in the response (report text,
  /// Verilog export, harness simulation need it).  Machine requests
  /// bypass the cache — only metrics rows are cached, equations are not.
  bool want_machine = false;
};

struct SynthesisResponse {
  driver::JobResult row;  ///< status + metrics, to_csv_row-stable
  CacheDisposition cache = CacheDisposition::kUncached;
  std::optional<core::FantomMachine> machine;  ///< want_machine, cold path
};

/// Check-set half of a BatchOptions in the canonical identity spelling
/// (store::describe order: verify/ternary/gate/strict/timeout-ms).
[[nodiscard]] driver::BatchOptions checks_of(const SynthesisRequest& request);

/// The content address of a request:
///   "<table-fnv64-hex>|<options_to_string>|<describe(checks)>"
/// Two requests with equal keys produce byte-identical rows; the name is
/// deliberately absent (the same controller under two names is one
/// result).  The table half fingerprints the KISS2 *bytes* — table_text
/// verbatim when given, the canonical to_kiss2 serialization otherwise —
/// so clients that want hits across sources should send canonical bytes.
[[nodiscard]] std::string cache_key(const SynthesisRequest& request);

/// Runs (or answers) one request.  With a cache: probe first, run the
/// pipeline on miss/stale, write deterministic results back (timeouts and
/// crashes are machine-dependent and are never cached).  The response row
/// always carries the request's name.  Never throws on a job failure —
/// that is a row status; throws only on caller errors (e.g. an empty
/// request with neither table nor text).
///
/// `tt` (optional) is a caller-owned transposition table (the serve
/// loop keeps one per process).  Entries are request-scoped —
/// core::synthesize clears it on entry and substitutes a fresh local
/// table when it is absent or not core::SynthesisOptions::tt_mb in size —
/// so the response is byte-identical with or without one; the
/// allocation and stats counters are what persist across requests,
/// timed-out ones included.
[[nodiscard]] SynthesisResponse synthesize(
    const SynthesisRequest& request, ResultCache* cache = nullptr,
    search::TranspositionTable* tt = nullptr);

// ---- Corpus service ------------------------------------------------------

/// A corpus recipe: everything needed to rebuild the same job list (and
/// its identity) in any process — the batch/baseline/serve-warm contract.
struct CorpusRequest {
  driver::BatchOptions options;  ///< checks + threads + per-job synthesis
  bench_suite::GeneratorOptions gen;
  int random_count = 100;
  int hard_count = 0;
  int harder_count = 0;
  int hardest_count = 0;
  bool suite = true;
  bool extra = false;
  std::vector<std::string> kiss_files;
};

/// Materializes the recipe's job list in submission order.  Throws
/// std::runtime_error naming the reason when the corpus cannot be built
/// (unreadable KISS2 file) or is empty.
[[nodiscard]] std::vector<driver::JobSpec> corpus_jobs(
    const CorpusRequest& request);

/// The recipe's persisted identity (seed, composition, option spellings;
/// KISS2 entries fingerprint file *contents*, so an edited input can
/// never alias a stale stored report).
[[nodiscard]] store::CorpusIdentity corpus_identity(
    const CorpusRequest& request);

/// Runs `jobs` across the thread pool configured by `options` (threads,
/// checks, deadline, on_result streaming) and returns the report.
[[nodiscard]] driver::BatchReport run_jobs(std::vector<driver::JobSpec> jobs,
                                           const driver::BatchOptions& options);

/// corpus_jobs + run_jobs in one call — the whole-corpus batch path.
[[nodiscard]] driver::BatchReport run_corpus(const CorpusRequest& request);

}  // namespace seance::api
