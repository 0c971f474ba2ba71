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
                                     ServeStats* stats = nullptr) {
  std::istringstream in(script);
  std::ostringstream out;
  const ServeStats got = serve(in, out, ServeConfig{}, cache);
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
      "v4 fsv=0 minimize=1 factor=1 consensus=1 cover=essential-sop "
      "unique=1 assign-budget=500000 reduce-budget=1000000 tt=1 tt-mb=16";
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
  EXPECT_EQ(lines[2], "BYE");  // QUIT ends the session; later PING unseen
}

TEST(Serve, MalformedInputGetsErrAndTheLoopSurvives) {
  ServeStats stats;
  const auto lines = run_session(
      "BOGUS\n"                            // unknown verb
      "REQ\n"                              // missing name: unknown verb too
      "REQ x\nOPT v9 nope\n"               // bad options encoding
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
