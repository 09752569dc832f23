#ifndef MOVD_SERVE_CLIENT_H_
#define MOVD_SERVE_CLIENT_H_

#include <cstdint>
#include <string>

#include "serve/engine_api.h"
#include "serve/protocol.h"
#include "util/status.h"

namespace movd {

/// Typed client for the movd_serve line protocol: the request side of the
/// typed engine API (serve/engine_api.h) over a Unix-domain socket. A
/// caller builds an EngineRequest exactly as it would for an in-process
/// QueryEngine, Call() puts it on the wire (FormatRequestLine) and parses the
/// response line back into a structured ClientResponse, so tools like
/// movd_loadgen and the CI serve-smoke driver never hand-roll protocol
/// strings. One ServeClient is one connection; it is not thread-safe (the
/// protocol is strictly one response per request per connection) — use one
/// client per thread.

/// One parsed response line. `status` is the SERVER's verdict: kOk for an
/// "OK <id> <body>" line, or the wire code + detail of an "ERR <id> <CODE>
/// <detail>" line (e.g. kDeadlineExceeded, kOverloaded). Transport and
/// parse failures are reported by the Call/ParseResponseLine return value
/// instead, so the two failure planes cannot be confused.
struct ClientResponse {
  Status status;
  std::string id;    ///< the echoed request id ("-" for control verbs)
  std::string body;  ///< raw body of an OK line (JSON, or "pong")
  /// The deterministic answer slice of `body` — the "answers"/"sweeps"
  /// array without the cache_hit/version/seconds tail (which legitimately
  /// varies per request). Two OK responses for the same request shape and
  /// the same `version` must have identical slices; that is the serving
  /// determinism contract movd_loadgen --check enforces. Falls back to the
  /// whole body when the markers are absent (control and mutation bodies).
  std::string answers;
  uint64_t version = 0;  ///< the body's "version" field; 0 when absent
};

/// Parses one response line ("OK ..."/"ERR ...") into `out`. Returns
/// non-OK only when the line fits neither form — a malformed CODE in an
/// ERR line maps to kInternal (the server never emits one).
Status ParseResponseLine(const std::string& line, ClientResponse* out);

/// One connection to a movd_serve Unix-domain socket.
class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  Status Connect(const std::string& socket_path);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends one typed request and parses the reply. The return value is
  /// the transport/parse status; the server's verdict (including ERR
  /// responses, which are a normal part of the protocol) is
  /// out->status.
  Status Call(const EngineRequest& request, ClientResponse* out);

  /// Sends one raw protocol line (newline appended if missing) and reads
  /// one response line (without its newline). The escape hatch for
  /// malformed-input tests; typed callers use Call().
  Status CallLine(const std::string& request_line,
                  std::string* response_line);

  /// Control verbs. Stats/Help fill `body` with the JSON body.
  Status Ping();
  Status Stats(std::string* body);
  Status Help(std::string* body);
  /// Asks the server to stop, draining its farewell line.
  Status Shutdown();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last parsed line
};

}  // namespace movd

#endif  // MOVD_SERVE_CLIENT_H_
