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
// the exchange synchronously.  `seance_cli serve` runs this loop on
// stdin/stdout.

#pragma once

#include <cstdint>
#include <iosfwd>

namespace seance::api {

class ResultCache;
struct SynthesisRequest;

struct ServeStats {
  std::uint64_t requests = 0;  ///< REQ exchanges answered with a RES
  std::uint64_t errors = 0;    ///< exchanges answered with an ERR
};

/// Serves `in`/`out` until EOF or QUIT.  Each REQ is a copy of
/// `defaults` (which carries no table) with the request's name and
/// table text, so it keeps the template's check set (the protocol
/// deliberately does not let clients vary checks per request: one
/// server, one contract) and, unless an OPT line replaces them, its
/// synthesis options.  `cache` may be null (every response is then
/// `uncached`).
ServeStats serve(std::istream& in, std::ostream& out,
                 const SynthesisRequest& defaults, ResultCache* cache);

}  // namespace seance::api
