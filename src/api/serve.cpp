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

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <streambuf>
#endif

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

/// One transposition table per server process, handed to every request
/// (and, for the socket listener, every connection).  Entries are
/// request-scoped (see api::synthesize); the allocation is reused and the
/// STATS counters accumulate over every request, timed-out ones
/// included.  Null when the server's default options disable it;
/// per-request OPT lines with tt=0 run cold.
std::unique_ptr<search::TranspositionTable> make_tt(const ServeConfig& config) {
  if (!config.options.tt) return nullptr;
  return std::make_unique<search::TranspositionTable>(
      core::SynthesisOptions::tt_mb << 20);
}

/// One REQ exchange: the REQ line has been consumed, `name` is its
/// payload.  Reads OPT/TABLE/END, answers RES/ROW/END or ERR/END.
void handle_request(std::istream& in, std::ostream& out,
                    const std::string& name, const ServeConfig& config,
                    ResultCache* cache, search::TranspositionTable* tt,
                    ServeStats& stats) {
  SynthesisRequest request;
  request.name = name;
  request.options = config.options;
  request.verify = config.verify;
  request.ternary = config.ternary;
  request.ternary_strict = config.ternary_strict;
  request.gate_ternary = config.gate_ternary;
  request.timeout_ms = config.timeout_ms;

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
  if (config.gate_ternary) ++stats.gate_ternary;
}

void send_stats(std::ostream& out, const ServeStats& stats,
                const ResultCache* cache,
                const search::TranspositionTable* tt) {
  out << "STATS requests=" << stats.requests << " errors=" << stats.errors
      << " gate-ternary=" << stats.gate_ternary;
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

ServeStats serve_impl(std::istream& in, std::ostream& out,
                      const ServeConfig& config, ResultCache* cache,
                      search::TranspositionTable* tt, bool* shutdown) {
  ServeStats stats;
  std::string line;
  while (std::getline(in, line)) {
    strip_cr(line);
    if (line.empty()) continue;
    if (line.rfind("REQ ", 0) == 0 && line.size() > 4) {
      handle_request(in, out, line.substr(4), config, cache, tt, stats);
    } else if (line == "PING") {
      out << "PONG\n" << std::flush;
    } else if (line == "STATS") {
      send_stats(out, stats, cache, tt);
    } else if (line == "QUIT") {
      out << "BYE\n" << std::flush;
      break;
    } else if (line == "SHUTDOWN") {
      out << "BYE\n" << std::flush;
      if (shutdown != nullptr) *shutdown = true;
      break;
    } else {
      send_error(out, "unknown verb: " + line, stats);
    }
  }
  return stats;
}

}  // namespace

ServeStats serve(std::istream& in, std::ostream& out,
                 const ServeConfig& config, ResultCache* cache) {
  const std::unique_ptr<search::TranspositionTable> tt = make_tt(config);
  return serve_impl(in, out, config, cache, tt.get(), nullptr);
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

/// Minimal buffered streambuf over a connected socket fd, so one serve
/// loop works unchanged for stdin pipes and socket connections.
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }
  FdStreambuf(const FdStreambuf&) = delete;
  FdStreambuf& operator=(const FdStreambuf&) = delete;
  ~FdStreambuf() override { sync(); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t n;
    do {
      n = ::read(fd_, in_, sizeof(in_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type ch) override {
    if (sync() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override {
    const char* p = pbase();
    while (p < pptr()) {
      ssize_t n;
      do {
        n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return -1;
      p += n;
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

 private:
  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace

ServeStats serve_unix_socket(const std::string& path,
                             const ServeConfig& config, ResultCache* cache) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    throw std::runtime_error("serve: socket(): " + std::string(strerror(errno)));
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 8) != 0) {
    const std::string why = strerror(errno);
    ::close(listener);
    throw std::runtime_error("serve: bind/listen " + path + ": " + why);
  }

  ServeStats total;
  const std::unique_ptr<search::TranspositionTable> tt = make_tt(config);
  bool shutdown = false;
  while (!shutdown) {
    int conn;
    do {
      conn = ::accept(listener, nullptr, nullptr);
    } while (conn < 0 && errno == EINTR);
    if (conn < 0) {
      const std::string why = strerror(errno);
      ::close(listener);
      ::unlink(path.c_str());
      throw std::runtime_error("serve: accept(): " + why);
    }
    {
      FdStreambuf buffer(conn);
      std::istream in(&buffer);
      std::ostream out(&buffer);
      const ServeStats stats =
          serve_impl(in, out, config, cache, tt.get(), &shutdown);
      total.requests += stats.requests;
      total.errors += stats.errors;
      total.gate_ternary += stats.gate_ternary;
    }  // flushes the tail before close
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return total;
}

#endif  // unix

}  // namespace seance::api
