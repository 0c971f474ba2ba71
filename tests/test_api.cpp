// The request/response facade and its content-addressed result cache:
// canonical options codec pins, cache-key semantics, hit/miss/stale
// dispositions, tier behavior (warm, LRU, disk), and the coherence
// contract — a cached answer is byte-identical to a cold run of the
// same request.

#include "api/api.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/cache.hpp"
#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "flowtable/kiss.hpp"

namespace seance::api {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              (tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

flowtable::FlowTable example_table() {
  return bench_suite::load(bench_suite::by_name("test_example"));
}

SynthesisRequest example_request(const std::string& name = "job") {
  SynthesisRequest request;
  request.name = name;
  request.table = example_table();
  return request;
}

// ---- options codec -------------------------------------------------------

TEST(OptionsCodec, RoundTripsDefaults) {
  const core::SynthesisOptions options;
  const core::SynthesisOptions back =
      core::options_from_string(core::options_to_string(options));
  EXPECT_EQ(core::options_to_string(back), core::options_to_string(options));
}

TEST(OptionsCodec, RoundTripsEveryField) {
  core::SynthesisOptions options;
  options.add_fsv = false;
  options.minimize_states = false;
  options.factor = false;
  options.consensus_repair = false;
  options.cover_mode = logic::CoverMode::kGreedy;
  options.assign.ensure_unique = false;
  options.assign.node_budget = 456;
  options.reduce.node_budget = 789;
  options.tt = false;
  options.tt_mb = 64;
  const std::string encoded = core::options_to_string(options);
  const core::SynthesisOptions back = core::options_from_string(encoded);
  EXPECT_EQ(core::options_to_string(back), encoded);
  EXPECT_FALSE(back.add_fsv);
  EXPECT_EQ(back.cover_mode, logic::CoverMode::kGreedy);
  EXPECT_FALSE(back.assign.ensure_unique);
  EXPECT_EQ(back.assign.node_budget, 456);
  EXPECT_EQ(back.reduce.node_budget, 789);
  EXPECT_FALSE(back.tt);
  EXPECT_EQ(back.tt_mb, 64);
}

TEST(OptionsCodec, PinnedDefaultBytes) {
  // The exact spelling is a persisted cache-key component; changing it
  // invalidates every cache entry and golden identity, so it must be a
  // deliberate version bump, never drift.
  EXPECT_EQ(core::options_to_string(core::SynthesisOptions{}),
            "v4 fsv=1 minimize=1 factor=1 consensus=1 cover=essential-sop "
            "unique=1 assign-budget=500000 reduce-budget=1000000 tt=1 tt-mb=16");
}

TEST(OptionsCodec, AbsentKeysKeepDefaults) {
  const core::SynthesisOptions back = core::options_from_string("v4 fsv=0");
  EXPECT_FALSE(back.add_fsv);
  EXPECT_TRUE(back.minimize_states);
  EXPECT_EQ(back.cover_mode, logic::CoverMode::kEssentialSop);
  EXPECT_TRUE(back.tt);
  EXPECT_EQ(back.tt_mb, 16);
}

TEST(OptionsCodec, RejectsBadInput) {
  // Unknown keys are rejected, not skipped: a key this build does not
  // understand could alias two configurations under one cache key.
  EXPECT_THROW((void)core::options_from_string("v4 warp=1"),
               std::runtime_error);
  EXPECT_THROW((void)core::options_from_string("v3 fsv=1"),
               std::runtime_error);
  EXPECT_THROW((void)core::options_from_string(""), std::runtime_error);
  EXPECT_THROW((void)core::options_from_string("v4 fsv=2"),
               std::runtime_error);
  EXPECT_THROW((void)core::options_from_string("v4 fsv=1 fsv=1"),
               std::runtime_error);
  EXPECT_THROW((void)core::options_from_string("v4 cover=psychic"),
               std::runtime_error);
  EXPECT_THROW((void)core::options_from_string("v4 tt=maybe"),
               std::runtime_error);
  // v3's cover-budget / cover-cells keys are gone, not silently ignored.
  EXPECT_THROW((void)core::options_from_string("v4 cover-budget=2000000"),
               std::runtime_error);
}

// ---- cache keys ----------------------------------------------------------

TEST(Fingerprint, HexSpellingsArePinnedAndFileMatchesBytes) {
  // Cache entry names and `kiss:<path>@<hex>` corpus identities are
  // spelled with these; a change here orphans every stored artifact.
  EXPECT_EQ(fnv64_hex(""), "14650fb0739d0383");
  EXPECT_EQ(fnv64_hex("a"), "44bd8ad473cd9906");

  // Larger than one read buffer, with bytes above 0x7f.
  std::string contents;
  for (int i = 0; i < 10000; ++i) contents.push_back(static_cast<char>(i * 37));
  const TempDir dir("seance_api_fingerprint");
  const std::string path = dir.str() + "/blob.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }
  EXPECT_EQ(fnv64_file_hex(path), fnv64_hex(contents));
  EXPECT_EQ(fnv64_file_hex(dir.str() + "/missing.bin"), "unreadable");
}

TEST(CacheKey, NameIsNotPartOfTheKey) {
  EXPECT_EQ(cache_key(example_request("a")), cache_key(example_request("b")));
}

TEST(CacheKey, OptionsChangeTheKey) {
  SynthesisRequest a = example_request();
  SynthesisRequest b = example_request();
  b.options.add_fsv = false;
  EXPECT_NE(cache_key(a), cache_key(b));
  SynthesisRequest c = example_request();
  c.ternary = false;  // check set is keyed too
  EXPECT_NE(cache_key(a), cache_key(c));
}

TEST(CacheKey, TableTextAndParsedTableAgree) {
  // A request carrying canonical KISS2 bytes and one carrying the parsed
  // table must land on the same entry — that is what lets batch-computed
  // rows answer protocol clients.
  SynthesisRequest parsed = example_request();
  SynthesisRequest text;
  text.name = "text";
  text.table_text = flowtable::to_kiss2(example_table());
  EXPECT_EQ(cache_key(parsed), cache_key(text));
}

TEST(CacheKey, KissRoundTripIsExact) {
  // The coherence premise: parsing canonical bytes reproduces the exact
  // table, so cold runs of either request shape are byte-identical.
  bench_suite::GeneratorOptions gen;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen.seed = driver::derive_seed(seed, 0);
    const auto table = bench_suite::generate(gen);
    const std::string kiss = flowtable::to_kiss2(table);
    EXPECT_EQ(flowtable::to_kiss2(flowtable::parse_kiss2(kiss)), kiss)
        << "seed " << seed;
  }
}

// ---- synthesize + cache behavior ----------------------------------------

TEST(ApiSynthesize, HitIsByteIdenticalToColdRun) {
  ResultCache cache(CacheConfig{"", 1 << 20});
  const SynthesisRequest request = example_request();
  const SynthesisResponse cold = synthesize(request, &cache);
  EXPECT_EQ(cold.cache, CacheDisposition::kMiss);
  const SynthesisResponse warm = synthesize(request, &cache);
  EXPECT_EQ(warm.cache, CacheDisposition::kHit);
  EXPECT_EQ(driver::to_csv_row(warm.row), driver::to_csv_row(cold.row));
}

TEST(ApiSynthesize, DistinctOptionsDoNotShareEntries) {
  ResultCache cache(CacheConfig{"", 1 << 20});
  SynthesisRequest fsv = example_request();
  (void)synthesize(fsv, &cache);
  SynthesisRequest classic = example_request();
  classic.options.add_fsv = false;
  const SynthesisResponse response = synthesize(classic, &cache);
  EXPECT_EQ(response.cache, CacheDisposition::kMiss);  // not a wrong hit
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ApiSynthesize, UncachedWithoutCacheAndForMachineRequests) {
  const SynthesisResponse plain = synthesize(example_request());
  EXPECT_EQ(plain.cache, CacheDisposition::kUncached);
  EXPECT_FALSE(plain.machine.has_value());

  ResultCache cache(CacheConfig{"", 1 << 20});
  SynthesisRequest machine = example_request();
  machine.want_machine = true;
  const SynthesisResponse response = synthesize(machine, &cache);
  EXPECT_EQ(response.cache, CacheDisposition::kUncached);
  ASSERT_TRUE(response.machine.has_value());
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(ApiSynthesize, MachineRequestUnderAWatchdogCarriesTheSynthesizedMachine) {
  // The watchdog path runs the job on a worker thread; the machine it
  // synthesizes must still reach the response, not a default-constructed
  // one-state placeholder.
  SynthesisRequest request;
  request.name = "lion";
  request.table = bench_suite::load(bench_suite::by_name("lion"));
  request.want_machine = true;
  request.timeout_ms = 120000;
  const SynthesisResponse watched = synthesize(request);
  ASSERT_EQ(watched.row.status, driver::JobStatus::kOk);
  ASSERT_TRUE(watched.machine.has_value());
  EXPECT_EQ(watched.machine->gate_count(), watched.row.gate_count);
  EXPECT_EQ(watched.machine->table.num_states(), watched.row.synthesized_states);

  request.timeout_ms = 0;
  const SynthesisResponse inline_run = synthesize(request);
  ASSERT_TRUE(inline_run.machine.has_value());
  EXPECT_EQ(watched.machine->report(), inline_run.machine->report());
}

TEST(ApiSynthesize, UnparsableTableIsAJobFailureNotAThrow) {
  SynthesisRequest request;
  request.name = "hostile";
  request.table_text = "this is not kiss2\n";
  const SynthesisResponse response = synthesize(request);
  EXPECT_EQ(response.row.status, driver::JobStatus::kSynthesisError);
  EXPECT_FALSE(response.row.detail.empty());
}

TEST(ApiSynthesize, EmptyRequestThrows) {
  EXPECT_THROW((void)synthesize(SynthesisRequest{}), std::runtime_error);
}

// ---- disk tier -----------------------------------------------------------

TEST(ResultCacheDisk, EntriesSurviveAProcessRestart) {
  TempDir dir("seance_api_disk");
  const SynthesisRequest request = example_request();
  std::string cold_row;
  {
    ResultCache cache(CacheConfig{dir.str(), 1 << 20});
    cold_row = driver::to_csv_row(synthesize(request, &cache).row);
  }
  ResultCache fresh(CacheConfig{dir.str(), 1 << 20});  // same dir, empty LRU
  const SynthesisResponse warm = synthesize(request, &fresh);
  EXPECT_EQ(warm.cache, CacheDisposition::kHit);
  EXPECT_EQ(driver::to_csv_row(warm.row), cold_row);
}

TEST(ResultCacheDisk, CorruptEntryIsStaleThenOverwritten) {
  TempDir dir("seance_api_stale");
  ResultCache cache(CacheConfig{dir.str(), 0});  // LRU off: disk only
  const SynthesisRequest request = example_request();
  (void)synthesize(request, &cache);
  const std::string path = cache.entry_path(cache_key(request));
  ASSERT_TRUE(fs::exists(path));

  // Truncate mid-file — the torn write a crashed server leaves behind.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }
  ResultCache reopened(CacheConfig{dir.str(), 0});
  const SynthesisResponse response = synthesize(request, &reopened);
  EXPECT_EQ(response.cache, CacheDisposition::kStale);
  EXPECT_EQ(reopened.stats().stale, 1u);

  // The stale entry was overwritten by write-back: next lookup hits.
  EXPECT_EQ(synthesize(request, &reopened).cache, CacheDisposition::kHit);
}

TEST(ResultCacheDisk, WrongKeyInFileIsStaleNotAWrongAnswer) {
  // An fnv64 filename collision puts another request's entry where ours
  // would live; the in-file key check must refuse it.
  TempDir dir("seance_api_collide");
  ResultCache cache(CacheConfig{dir.str(), 0});
  const SynthesisRequest request = example_request();
  driver::JobResult row;
  row.name = "impostor";
  {
    std::ofstream out(cache.entry_path(cache_key(request)), std::ios::binary);
    out << ResultCache::encode_entry("some-other-key", row);
  }
  CacheDisposition disposition = CacheDisposition::kUncached;
  EXPECT_FALSE(cache.lookup(cache_key(request), &disposition).has_value());
  EXPECT_EQ(disposition, CacheDisposition::kStale);
}

TEST(ResultCacheDisk, EncodeDecodeRoundTrip) {
  driver::JobResult row;
  row.name = "roundtrip";
  row.status = driver::JobStatus::kOk;
  row.gate_count = 42;
  const std::string key = "abc|v2 fsv=1|verify=1";
  const auto back = ResultCache::decode_entry(
      ResultCache::encode_entry(key, row), key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(driver::to_csv_row(*back), driver::to_csv_row(row));
  EXPECT_FALSE(
      ResultCache::decode_entry(ResultCache::encode_entry(key, row), "other")
          .has_value());
}

// ---- LRU tier ------------------------------------------------------------

TEST(ResultCacheLru, EvictsLeastRecentlyUsedUnderTheByteBudget) {
  ResultCache cache(CacheConfig{"", 2048});  // a handful of entries
  driver::JobResult row;
  for (int i = 0; i < 64; ++i) {
    row.name = "job-" + std::to_string(i);
    cache.insert("key-" + std::to_string(i), row);
    EXPECT_LE(cache.stats().bytes, 2048u);
  }
  EXPECT_LT(cache.stats().entries, 64u);
  // The most recent entries survived; the oldest were evicted.
  EXPECT_TRUE(cache.lookup("key-63").has_value());
  EXPECT_FALSE(cache.lookup("key-0").has_value());
}

TEST(ResultCacheLru, LookupRefreshesRecency) {
  ResultCache cache(CacheConfig{"", 1200});
  driver::JobResult row;
  cache.insert("keep", row);
  for (int i = 0; i < 64; ++i) {
    (void)cache.lookup("keep");  // touch: "keep" stays most-recent
    row.name = "filler-" + std::to_string(i);
    cache.insert("filler-" + std::to_string(i), row);
  }
  EXPECT_TRUE(cache.lookup("keep").has_value());
}

TEST(ResultCacheLru, ZeroBudgetDisablesTheTier) {
  ResultCache cache(CacheConfig{"", 0});
  cache.insert("key", driver::JobResult{});
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.lookup("key").has_value());
}

// ---- warm tier -----------------------------------------------------------

TEST(ResultCacheWarm, AnswersOnlyAfterSealAndCountsWarmHits) {
  ResultCache cache(CacheConfig{"", 0});
  driver::JobResult row;
  row.name = "golden";
  row.gate_count = 7;
  cache.warm_insert("the-key", row);
  EXPECT_FALSE(cache.lookup("the-key").has_value());  // not sealed yet
  cache.warm_seal();
  const auto hit = cache.lookup("the-key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->gate_count, 7);
  EXPECT_EQ(cache.stats().warm_hits, 1u);
  EXPECT_FALSE(cache.lookup("absent").has_value());
  EXPECT_THROW(cache.warm_insert("late", row), std::logic_error);
}

TEST(ResultCacheWarm, ProbesManyKeysWithoutCollisionMixups) {
  ResultCache cache(CacheConfig{"", 0});
  driver::JobResult row;
  for (int i = 0; i < 500; ++i) {
    row.gate_count = i;
    cache.warm_insert("warm-key-" + std::to_string(i), row);
  }
  cache.warm_seal();
  EXPECT_EQ(cache.stats().warm_entries, 500u);
  for (int i = 0; i < 500; ++i) {
    const auto hit = cache.lookup("warm-key-" + std::to_string(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->gate_count, i);
  }
}

// ---- corpus service ------------------------------------------------------

TEST(ApiCorpus, JobsAndIdentityMatchTheRecipe) {
  CorpusRequest request;
  request.random_count = 3;
  request.suite = true;
  const auto jobs = corpus_jobs(request);
  EXPECT_GT(jobs.size(), 3u);
  const auto identity = corpus_identity(request);
  EXPECT_EQ(identity.corpus, "table1+gen3");
  EXPECT_EQ(identity.synthesis,
            core::options_to_string(core::SynthesisOptions{}));
}

TEST(ApiCorpus, EmptyRecipeThrows) {
  CorpusRequest request;
  request.suite = false;
  request.random_count = 0;
  EXPECT_THROW((void)corpus_jobs(request), std::runtime_error);
}

TEST(ApiCorpus, RunJobsMatchesRunCorpus) {
  CorpusRequest request;
  request.suite = false;
  request.random_count = 2;
  request.options.threads = 1;
  const auto via_jobs = run_jobs(corpus_jobs(request), request.options);
  const auto direct = run_corpus(request);
  ASSERT_EQ(via_jobs.jobs.size(), direct.jobs.size());
  for (std::size_t i = 0; i < direct.jobs.size(); ++i) {
    EXPECT_EQ(driver::to_csv_row(via_jobs.jobs[i]),
              driver::to_csv_row(direct.jobs[i]));
  }
}

}  // namespace
}  // namespace seance::api
