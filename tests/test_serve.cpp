// The serve-mode line protocol, driven in-process through stringstreams:
// request/response framing, cache dispositions over repeat traffic,
// control verbs, and the malformed-input contract (ERR, never a crash).

#include "api/serve.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/cache.hpp"
#include "bench_suite/benchmarks.hpp"
#include "driver/batch.hpp"
#include "flowtable/kiss.hpp"

namespace seance::api {
namespace {

std::string example_kiss() {
  return flowtable::to_kiss2(
      bench_suite::load(bench_suite::by_name("test_example")));
}

// Frames `kiss` as one protocol exchange.
std::string request_of(const std::string& name, const std::string& kiss,
                       const std::string& opt = "") {
  std::size_t lines = 0;
  for (char c : kiss) lines += (c == '\n');
  std::string out = "REQ " + name + "\n";
  if (!opt.empty()) out += "OPT " + opt + "\n";
  out += "TABLE " + std::to_string(lines) + "\n" + kiss + "END\n";
  return out;
}

std::vector<std::string> run_session(const std::string& script,
                                     ResultCache* cache = nullptr,
                                     ServeStats* stats = nullptr,
                                     const SynthesisRequest& defaults = {}) {
  std::istringstream in(script);
  std::ostringstream out;
  const ServeStats got = serve(in, out, defaults, cache);
  if (stats != nullptr) *stats = got;
  std::vector<std::string> lines;
  std::istringstream reply(out.str());
  std::string line;
  while (std::getline(reply, line)) lines.push_back(line);
  return lines;
}

TEST(Serve, AnswersARequestWithResRowEnd) {
  ServeStats stats;
  const auto lines =
      run_session(request_of("demo", example_kiss()), nullptr, &stats);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "RES uncached demo");
  EXPECT_EQ(lines[1].substr(0, 4), "ROW ");
  EXPECT_EQ(lines[2], "END");
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.errors, 0u);

  // The ROW payload is the exact batch-path CSV record.
  SynthesisRequest request;
  request.name = "demo";
  request.table_text = example_kiss();
  EXPECT_EQ(lines[1].substr(4),
            driver::to_csv_row(synthesize(request).row));
}

TEST(Serve, RepeatRequestHitsTheCache) {
  ResultCache cache(CacheConfig{"", 1 << 20});
  const std::string exchange = request_of("twice", example_kiss());
  const auto lines = run_session(exchange + exchange, &cache);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "RES miss twice");
  EXPECT_EQ(lines[3], "RES hit twice");
  EXPECT_EQ(lines[4], lines[1]);  // hit is byte-identical to the cold row
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Serve, OptLineSelectsDistinctCacheEntries) {
  ResultCache cache(CacheConfig{"", 1 << 20});
  const std::string baseline =
      "v12 fsv=0 minimize=1 factor=1 consensus=1 tt=1";
  const auto lines = run_session(request_of("a", example_kiss()) +
                                     request_of("b", example_kiss(), baseline),
                                 &cache);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "RES miss a");
  EXPECT_EQ(lines[3], "RES miss b");  // different options, different entry
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Serve, WarmTierAnswersWithoutRunningThePipeline) {
  ResultCache cache(CacheConfig{"", 0});
  SynthesisRequest request;
  request.name = "golden";
  request.table_text = example_kiss();
  driver::JobResult row = synthesize(request).row;
  cache.warm_insert(cache_key(request), row);
  cache.warm_seal();
  const auto lines = run_session(request_of("golden", example_kiss()), &cache);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "RES hit golden");
  EXPECT_EQ(lines[1].substr(4), driver::to_csv_row(row));
  EXPECT_EQ(cache.stats().warm_hits, 1u);
}

TEST(Serve, ControlVerbs) {
  const auto lines = run_session("PING\nSTATS\nQUIT\nPING\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "PONG");
  EXPECT_EQ(lines[1].substr(0, 6), "STATS ");
  EXPECT_NE(lines[1].find("requests=0"), std::string::npos);
  EXPECT_EQ(lines[1].find("gate-ternary="), std::string::npos) << lines[1];
  EXPECT_EQ(lines[2], "BYE");  // QUIT ends the session; later PING unseen
}

TEST(Serve, ShutdownIsAnUnknownVerb) {
  // stdin/stdout is the only transport; EOF or QUIT ends it.
  const auto lines = run_session("SHUTDOWN\nPING\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "ERR unknown verb: SHUTDOWN");
  EXPECT_EQ(lines[1], "END");
  EXPECT_EQ(lines[2], "PONG");
}

TEST(Serve, MalformedInputGetsErrAndTheLoopSurvives) {
  ServeStats stats;
  const auto lines = run_session(
      "BOGUS\n"                            // unknown verb
      "REQ\n"                              // missing name: unknown verb too
      "REQ x\nOPT v12 nope\n"               // bad options encoding
      "REQ y\nTABLE zero\n"                // bad table count
      + request_of("ok", example_kiss())   // still serving after the ERRs
      + "REQ z\nTABLE 2\n.i 1\n",          // truncated: EOF inside TABLE
      nullptr, &stats);
  int errs = 0;
  for (const auto& line : lines) errs += (line.substr(0, 4) == "ERR ");
  EXPECT_EQ(errs, 5);
  EXPECT_EQ(stats.errors, 5u);
  EXPECT_EQ(stats.requests, 1u);
  ASSERT_GE(lines.size(), 5u);
  EXPECT_EQ(lines[lines.size() - 5], "RES uncached ok");
}

TEST(Serve, HostileTableIsAJobFailureRow) {
  // A table that parses as protocol but not as KISS2 must come back as a
  // synthesis-error row, not an ERR and not a crash.
  const auto lines =
      run_session("REQ bad\nTABLE 1\nthis is not kiss2\nEND\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "RES uncached bad");
  EXPECT_NE(lines[1].find("synthesis-error"), std::string::npos);
}

TEST(Serve, TimeoutRequestsUseTheServerTable) {
  const std::string lion = flowtable::to_kiss2(
      bench_suite::load(bench_suite::by_name("lion")));
  const std::string script = request_of("example", example_kiss()) +
                             request_of("lion", lion) + "STATS\n";
  SynthesisRequest watched;
  watched.timeout_ms = 600000;  // generous: the deadline must never fire
  const auto timed = run_session(script, nullptr, nullptr, watched);
  const auto plain = run_session(script);
  ASSERT_EQ(timed.size(), 7u);
  ASSERT_EQ(plain.size(), 7u);
  // The rows served under a deadline are the rows served without one...
  EXPECT_EQ(timed[1], plain[1]);
  EXPECT_EQ(timed[4], plain[4]);
  EXPECT_EQ(timed[1].find("timeout"), std::string::npos);
  // ...and they were computed in the server's table, not a local one.
  const std::string& stats = timed[6];
  const std::size_t at = stats.find(" tt-stores=");
  ASSERT_NE(at, std::string::npos) << stats;
  EXPECT_GT(std::stoull(stats.substr(at + 11)), 0u) << stats;

  // A request stopped by its deadline keeps the server's table and its
  // STATS tt-* counters; nothing replaces them.  The deadline is already
  // past when each request starts (1 ps is no tick of the steady clock),
  // so every request of this session stops at its first checkpoint,
  // however fast the engines get, after a fixed amount of table work.
  driver::BatchRunner hardest;
  hardest.add_hardest_generated(9, 1);
  const std::string stopped =
      request_of("stopped", flowtable::to_kiss2(hardest.jobs()[8].table));
  SynthesisRequest expired;
  expired.timeout_ms = 1e-9;
  const auto lines = run_session(request_of("lion", lion) + "STATS\n" +
                                     stopped + "STATS\n",
                                 nullptr, nullptr, expired);
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_EQ(lines[1].rfind("ROW lion,timeout,", 0), 0u) << lines[1];
  EXPECT_EQ(lines[5].rfind("ROW stopped,timeout,", 0), 0u) << lines[5];
  const auto counters = [](const std::string& line) {
    std::vector<unsigned long long> out;
    for (const std::string key :
         {" tt-hits=", " tt-misses=", " tt-stores=", " tt-evictions="}) {
      const std::size_t pos = line.find(key);
      if (pos == std::string::npos) return std::vector<unsigned long long>{};
      out.push_back(std::stoull(line.substr(pos + key.size())));
    }
    return out;
  };
  const auto before = counters(lines[3]);
  const auto after = counters(lines[7]);
  ASSERT_EQ(before.size(), 4u) << lines[3];
  ASSERT_EQ(after.size(), 4u) << lines[7];
  EXPECT_GT(before[2], 0u) << lines[3];
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_GE(after[k], before[k]) << lines[3] << "\n" << lines[7];
  }
  // The second request added exactly its own work, which a session
  // serving it alone counts.
  const auto alone = run_session(stopped + "STATS\n", nullptr, nullptr, expired);
  ASSERT_EQ(alone.size(), 4u);
  const auto own = counters(alone[3]);
  ASSERT_EQ(own.size(), 4u) << alone[3];
  EXPECT_GT(own[2], 0u) << alone[3];
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(after[k], before[k] + own[k]) << lines[7] << "\n" << alone[3];
  }
}

TEST(Serve, CrLineEndingsAreAccepted) {
  std::string script = request_of("crlf", example_kiss());
  std::string crlf;
  for (char c : script) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const auto lines = run_session(crlf);
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(lines[0], "RES uncached crlf");
}

}  // namespace
}  // namespace seance::api
