#include "api/serve.hpp"

#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>

#include "api/api.hpp"
#include "api/cache.hpp"
#include "driver/batch.hpp"
#include "search/search.hpp"

namespace seance::api {

namespace {

/// Upper bound on a TABLE line count — generous for any real controller,
/// small enough that a hostile count cannot balloon the server.
constexpr long kMaxTableLines = 100000;

void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

void send_error(std::ostream& out, const std::string& why, ServeStats& stats) {
  out << "ERR " << why << "\nEND\n" << std::flush;
  ++stats.errors;
}

/// One transposition table per server process, handed to every request.
/// Entries are request-scoped (see api::synthesize); the allocation is
/// reused and the STATS counters accumulate over every request,
/// timed-out ones included.  Null when the server's default options
/// disable it; per-request OPT lines with tt=0 run cold.
std::unique_ptr<search::TranspositionTable> make_tt(
    const SynthesisRequest& defaults) {
  if (!defaults.options.tt) return nullptr;
  return std::make_unique<search::TranspositionTable>(
      core::SynthesisOptions::tt_mb << 20);
}

/// One REQ exchange: the REQ line has been consumed, `name` is its
/// payload.  Reads OPT/TABLE/END, answers RES/ROW/END or ERR/END.
void handle_request(std::istream& in, std::ostream& out,
                    const std::string& name, const SynthesisRequest& defaults,
                    ResultCache* cache, search::TranspositionTable* tt,
                    ServeStats& stats) {
  SynthesisRequest request = defaults;
  request.name = name;

  std::string line;
  if (!std::getline(in, line)) {
    send_error(out, "unexpected end of stream after REQ", stats);
    return;
  }
  strip_cr(line);
  if (line.rfind("OPT ", 0) == 0) {
    try {
      request.options = core::options_from_string(line.substr(4));
    } catch (const std::exception& e) {
      send_error(out, e.what(), stats);
      return;
    }
    if (!std::getline(in, line)) {
      send_error(out, "unexpected end of stream after OPT", stats);
      return;
    }
    strip_cr(line);
  }
  if (line.rfind("TABLE ", 0) != 0) {
    send_error(out, "expected TABLE <n>, got: " + line, stats);
    return;
  }
  long count = -1;
  try {
    std::size_t used = 0;
    count = std::stol(line.substr(6), &used);
    if (used != line.size() - 6) count = -1;
  } catch (const std::exception&) {
    count = -1;
  }
  if (count < 0 || count > kMaxTableLines) {
    send_error(out, "bad TABLE line count: " + line.substr(6), stats);
    return;
  }
  for (long i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      send_error(out, "unexpected end of stream inside TABLE", stats);
      return;
    }
    strip_cr(line);
    request.table_text += line;
    request.table_text += '\n';
  }
  if (!std::getline(in, line)) {
    send_error(out, "unexpected end of stream before END", stats);
    return;
  }
  strip_cr(line);
  if (line != "END") {
    send_error(out, "expected END, got: " + line, stats);
    return;
  }
  if (request.table_text.empty()) {
    send_error(out, "empty table", stats);
    return;
  }

  const SynthesisResponse response = synthesize(request, cache, tt);
  out << "RES " << to_string(response.cache) << " " << response.row.name
      << "\nROW " << driver::to_csv_row(response.row) << "\nEND\n"
      << std::flush;
  ++stats.requests;
}

void send_stats(std::ostream& out, const ServeStats& stats,
                const ResultCache* cache,
                const search::TranspositionTable* tt) {
  out << "STATS requests=" << stats.requests << " errors=" << stats.errors;
  if (cache != nullptr) {
    const CacheStats& c = cache->stats();
    out << " hits=" << c.hits << " warm-hits=" << c.warm_hits
        << " misses=" << c.misses << " stale=" << c.stale
        << " entries=" << c.entries << " bytes=" << c.bytes
        << " warm-entries=" << c.warm_entries;
  }
  if (tt != nullptr) {
    const search::TtStats& t = tt->stats();
    out << " tt-hits=" << t.hits << " tt-misses=" << t.misses
        << " tt-stores=" << t.stores << " tt-evictions=" << t.evictions;
  }
  out << "\n" << std::flush;
}

}  // namespace

ServeStats serve(std::istream& in, std::ostream& out,
                 const SynthesisRequest& defaults, ResultCache* cache) {
  const std::unique_ptr<search::TranspositionTable> tt = make_tt(defaults);
  ServeStats stats;
  std::string line;
  while (std::getline(in, line)) {
    strip_cr(line);
    if (line.empty()) continue;
    if (line.rfind("REQ ", 0) == 0 && line.size() > 4) {
      handle_request(in, out, line.substr(4), defaults, cache, tt.get(),
                     stats);
    } else if (line == "PING") {
      out << "PONG\n" << std::flush;
    } else if (line == "STATS") {
      send_stats(out, stats, cache, tt.get());
    } else if (line == "QUIT") {
      out << "BYE\n" << std::flush;
      break;
    } else {
      send_error(out, "unknown verb: " + line, stats);
    }
  }
  return stats;
}

}  // namespace seance::api
