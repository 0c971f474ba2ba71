// Synthesis-as-a-service: the line protocol behind `seance_cli serve`.
//
// One request/response exchange (line-delimited, newline-terminated):
//
//   client:  REQ <name>
//            OPT <canonical options string>        (optional; server
//                                                   defaults otherwise)
//            TABLE <n>
//            <n lines of KISS2 text>
//            END
//   server:  RES <hit|miss|stale|uncached> <name>
//            ROW <kCsvHeader-shaped CSV record>
//            END
//
// Control verbs: `PING` -> `PONG`; `STATS` -> one `STATS key=value...`
// line; `QUIT` -> `BYE` and the connection ends.  Anything malformed
// gets `ERR <why>` + `END` and the server keeps listening — hostile
// input is a job failure or a protocol error, never a crash.  Every
// response is flushed before the next read, so a pipe client may drive
// the exchange synchronously.
//
// The same loop serves stdin/stdout (`seance_cli serve`) and, on unix,
// each connection of a socket listener (`--socket PATH`).

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/synthesize.hpp"

namespace seance::api {

class ResultCache;

struct ServeConfig {
  /// Synthesis options for requests that carry no OPT line.
  core::SynthesisOptions options;
  // Check set applied to every request (the protocol deliberately does
  // not let clients vary checks per request: one server, one contract).
  bool verify = true;
  bool ternary = true;
  bool ternary_strict = false;
  /// Gate-level ternary over the Verilog round trip for every request.
  bool gate_ternary = false;
  double timeout_ms = 0;  ///< per-job deadline; 0 = none
};

struct ServeStats {
  std::uint64_t requests = 0;  ///< REQ exchanges answered with a RES
  std::uint64_t errors = 0;    ///< exchanges answered with an ERR
  /// RES-answered exchanges that ran the gate-level ternary pass (the
  /// round-trip loop is per-request work worth watching in production).
  std::uint64_t gate_ternary = 0;
};

/// Serves `in`/`out` until EOF or QUIT.  `cache` may be null (every
/// response is then `uncached`).
ServeStats serve(std::istream& in, std::ostream& out,
                 const ServeConfig& config, ResultCache* cache);

#if defined(__unix__) || defined(__APPLE__)
/// Binds a unix-domain socket at `path` (unlinking any previous one) and
/// serves connections sequentially, each with the same protocol, until a
/// client sends the extra `SHUTDOWN` verb.  Returns aggregate stats;
/// throws std::runtime_error on socket errors.
ServeStats serve_unix_socket(const std::string& path,
                             const ServeConfig& config, ResultCache* cache);
#endif

}  // namespace seance::api
