#ifndef FOCUS_NET_HTTP_TYPES_H_
#define FOCUS_NET_HTTP_TYPES_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace focus::net {

// One parsed HTTP/1.x request. Header names are lower-cased at parse time
// (field names are case-insensitive per RFC 9110); values keep their bytes
// with surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;              // e.g. "GET" (kept upper-case as sent)
  std::string target;              // raw request target, e.g. "/a/b?x=1"
  std::string path;                // target up to '?', percent-decoded
  std::map<std::string, std::string> query;  // decoded key -> value
  int version_minor = 1;           // HTTP/1.<minor>
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;          // after Connection/version defaulting

  // First header with this lower-case name, or nullptr.
  const std::string* FindHeader(std::string_view lower_name) const;
};

class PendingResponse;

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  // Extra headers (e.g. {"retry-after","1"}); Content-Length, Connection
  // and Content-Type are emitted by the serializer.
  std::vector<std::pair<std::string, std::string>> headers;
  // Set by Later(): the real response comes through `pending`, and the
  // fields above are unused.
  std::shared_ptr<PendingResponse> pending;

  // What a handler returns when it answers later, from any thread,
  // through `pending`.
  static HttpResponse Later(std::shared_ptr<PendingResponse> pending);
};

// A response its handler sends after returning: the handler returns
// HttpResponse::Later(p) and calls p->Send once, on any thread. Until then
// the connection reads and answers nothing more, so replies keep request
// order. One that is never sent answers 500 when the last owner lets go.
class PendingResponse {
 public:
  PendingResponse() = default;
  PendingResponse(const PendingResponse&) = delete;
  PendingResponse& operator=(const PendingResponse&) = delete;
  ~PendingResponse();

  void Send(HttpResponse response) EXCLUDES(mutex_);

  // The server's side: `sink` gets the response on the thread that sends
  // it. If it was sent already, it is returned instead and `sink` is
  // dropped.
  std::optional<HttpResponse> OnSend(std::function<void(HttpResponse)> sink)
      EXCLUDES(mutex_);

 private:
  common::Mutex mutex_;
  std::optional<HttpResponse> early_ GUARDED_BY(mutex_);  // sent before OnSend
  // Set by OnSend until Send takes it.
  std::function<void(HttpResponse)> sink_ GUARDED_BY(mutex_);
};

// Canonical reason phrase ("Not Found"); "Unknown" for unlisted codes.
std::string_view StatusText(int status);

// Serializes a response as HTTP/1.1 bytes with Content-Length framing and
// an explicit Connection header.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

// Only the status line + headers, through the terminating blank line,
// with Content-Length framing for `response.body` (which is NOT
// appended). The server queues this block and the body as separate
// buffers and hands both to one sendmsg iovec batch, so a response goes
// out in a single syscall without concatenating the body into the header
// string first.
std::string SerializeResponseHeader(const HttpResponse& response,
                                    bool keep_alive);

// Decodes %XX escapes and '+' (as space). Invalid escapes pass through
// verbatim — the parser never rejects on decoding alone.
std::string PercentDecode(std::string_view text);

// Parses "a=1&b=two" into a decoded key/value map (last key wins).
std::map<std::string, std::string> ParseQueryString(std::string_view text);

}  // namespace focus::net

#endif  // FOCUS_NET_HTTP_TYPES_H_
