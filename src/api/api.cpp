#include "api/api.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "api/cache.hpp"
#include "flowtable/kiss.hpp"

namespace seance::api {

namespace {

/// Statuses that are a pure function of the request — the only ones a
/// content-addressed cache may remember.  Timeouts depend on machine
/// speed and crashes on process fate; caching either would replay a
/// transient verdict forever.
bool cacheable_status(driver::JobStatus status) {
  switch (status) {
    case driver::JobStatus::kOk:
    case driver::JobStatus::kSynthesisError:
    case driver::JobStatus::kVerifyFailed:
    case driver::JobStatus::kHazardUnclean:
      return true;
    case driver::JobStatus::kTimeout:
    case driver::JobStatus::kCrashed:
      return false;
  }
  return false;
}

}  // namespace

std::string fnv64_hex(std::string_view bytes) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(search::fnv64(bytes)));
  return hex;
}

std::string fnv64_file_hex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "unreadable";
  const std::string contents{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  return fnv64_hex(contents);
}

const char* to_string(CacheDisposition disposition) {
  switch (disposition) {
    case CacheDisposition::kUncached: return "uncached";
    case CacheDisposition::kHit: return "hit";
    case CacheDisposition::kMiss: return "miss";
    case CacheDisposition::kStale: return "stale";
  }
  return "unknown";
}

driver::BatchOptions checks_of(const SynthesisRequest& request) {
  driver::BatchOptions checks;
  checks.verify = request.verify;
  checks.ternary = request.ternary;
  checks.ternary_strict = request.ternary_strict;
  checks.gate_ternary = request.gate_ternary;
  checks.job_timeout_ms = request.timeout_ms;
  checks.synthesis = request.options;
  return checks;
}

std::string cache_key(const SynthesisRequest& request) {
  const std::string table_hash =
      request.table ? fnv64_hex(flowtable::to_kiss2(*request.table))
                    : fnv64_hex(request.table_text);
  return table_hash + "|" + core::options_to_string(request.options) + "|" +
         store::describe(checks_of(request));
}

SynthesisResponse synthesize(const SynthesisRequest& request,
                             ResultCache* cache,
                             search::TranspositionTable* tt) {
  if (!request.table && request.table_text.empty()) {
    throw std::runtime_error(
        "api: request carries neither a table nor KISS2 text");
  }
  SynthesisResponse response;
  // Only metrics rows are cached, so a caller that needs the machine
  // takes the cold path unconditionally.
  const bool cacheable = cache != nullptr && !request.want_machine;
  std::string key;
  if (cacheable) {
    key = cache_key(request);
    CacheDisposition disposition = CacheDisposition::kMiss;
    if (std::optional<driver::JobResult> row = cache->lookup(key, &disposition)) {
      response.row = std::move(*row);
      // Names and details are not part of the content address: the row
      // answers for whatever label this request carries, and failure
      // details are not persisted in the row format.
      response.row.name = request.name;
      response.row.detail.clear();
      response.row.wall_ms = 0.0;
      response.cache = CacheDisposition::kHit;
      return response;
    }
    response.cache = disposition;  // kMiss or kStale
  }

  driver::JobSpec spec;
  spec.name = request.name;
  spec.options = request.options;
  const driver::BatchOptions checks = checks_of(request);
  bool parsed = true;
  if (request.table) {
    spec.table = *request.table;
  } else {
    try {
      spec.table = flowtable::parse_kiss2(request.table_text);
    } catch (const std::exception& e) {
      // A table that does not parse is a deterministic job failure (the
      // batch driver treats corpus files the same way at build time), not
      // a facade error: servers must answer, not die, on hostile input.
      parsed = false;
      response.row.name = request.name;
      response.row.status = driver::JobStatus::kSynthesisError;
      response.row.detail = e.what();
    }
  }
  if (parsed) {
    core::FantomMachine machine;
    const auto job = [&] {
      return driver::BatchRunner::run_job(
          spec, checks, request.want_machine ? &machine : nullptr, tt);
    };
    response.row =
        request.timeout_ms > 0
            ? driver::run_with_deadline(request.name, request.timeout_ms, job)
            : job();
    if (request.want_machine &&
        response.row.status != driver::JobStatus::kSynthesisError &&
        response.row.status != driver::JobStatus::kTimeout) {
      response.machine = std::move(machine);
    }
  }
  if (cacheable && cacheable_status(response.row.status)) {
    cache->insert(key, response.row);
  }
  return response;
}

std::vector<driver::JobSpec> corpus_jobs(const CorpusRequest& request) {
  driver::BatchRunner runner(request.options);
  if (request.suite) runner.add_table1_suite();
  if (request.extra) runner.add_extra_suite();
  for (const std::string& path : request.kiss_files) runner.add_kiss_file(path);
  if (request.random_count > 0) {
    runner.add_generated(request.random_count, request.gen);
  }
  if (request.hard_count > 0) {
    runner.add_hard_generated(request.hard_count, request.gen.seed);
  }
  if (request.harder_count > 0) {
    runner.add_harder_generated(request.harder_count, request.gen.seed);
  }
  if (request.hardest_count > 0) {
    runner.add_hardest_generated(request.hardest_count, request.gen.seed);
  }
  if (runner.job_count() == 0) throw std::runtime_error("empty corpus");
  return runner.jobs();
}

store::CorpusIdentity corpus_identity(const CorpusRequest& request) {
  store::CorpusIdentity identity;
  identity.base_seed = request.gen.seed;
  identity.checks = store::describe(request.options);
  identity.synthesis = store::describe(request.options.synthesis);
  identity.generator = store::describe(request.gen);
  std::string corpus;
  const auto append = [&](const std::string& part) {
    if (!corpus.empty()) corpus += '+';
    corpus += part;
  };
  if (request.suite) append("table1");
  if (request.extra) append("extra");
  for (const std::string& path : request.kiss_files) {
    // Content fingerprint, not just the path: --resume and warm tiers
    // must never reuse results produced from an edited input file.
    append("kiss:" + path + "@" + fnv64_file_hex(path));
  }
  if (request.random_count > 0) {
    append("gen" + std::to_string(request.random_count));
  }
  if (request.hard_count > 0) {
    append("hard" + std::to_string(request.hard_count));
  }
  if (request.harder_count > 0) {
    append("harder" + std::to_string(request.harder_count));
  }
  if (request.hardest_count > 0) {
    append("hardest" + std::to_string(request.hardest_count));
  }
  identity.corpus = corpus;
  return identity;
}

driver::BatchReport run_jobs(std::vector<driver::JobSpec> jobs,
                             const driver::BatchOptions& options) {
  driver::BatchRunner runner(options);
  for (driver::JobSpec& spec : jobs) runner.add(std::move(spec));
  return runner.run();
}

driver::BatchReport run_corpus(const CorpusRequest& request) {
  return run_jobs(corpus_jobs(request), request.options);
}

}  // namespace seance::api
