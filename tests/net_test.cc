// Tests for the src/net/ layer in isolation: the incremental HTTP/1.1
// parser (framing, limits, malformed input), request/response types, the
// router, the poller (both engines), and the event-loop server driven over
// real loopback sockets by the blocking test client, deferred replies
// included.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "back_pressure.h"
#include "common/mutex.h"
#include "net/http_client.h"
#include "net/http_parser.h"
#include "net/http_server.h"
#include "net/http_types.h"
#include "net/poller.h"
#include "net/router.h"
#include "net/socket_util.h"

namespace focus::net {
namespace {

// ---------------------------------------------------------------- types

TEST(HttpTypesTest, PercentDecode) {
  EXPECT_EQ(PercentDecode("abc"), "abc");
  EXPECT_EQ(PercentDecode("a%20b"), "a b");
  EXPECT_EQ(PercentDecode("a+b"), "a b");
  EXPECT_EQ(PercentDecode("%41%62%63"), "Abc");
  // Invalid escapes pass through verbatim.
  EXPECT_EQ(PercentDecode("%zz"), "%zz");
  EXPECT_EQ(PercentDecode("%4"), "%4");
  EXPECT_EQ(PercentDecode("100%"), "100%");
}

TEST(HttpTypesTest, ParseQueryString) {
  const auto q = ParseQueryString("f=abs&g=sum&name=a%20b&flag");
  EXPECT_EQ(q.at("f"), "abs");
  EXPECT_EQ(q.at("g"), "sum");
  EXPECT_EQ(q.at("name"), "a b");
  EXPECT_EQ(q.at("flag"), "");
  EXPECT_TRUE(ParseQueryString("").empty());
}

TEST(HttpTypesTest, SerializeResponseFramesWithContentLength) {
  HttpResponse response;
  response.status = 404;
  response.body = "{\"error\":\"x\"}";
  const std::string wire = SerializeResponse(response, /*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 13\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"error\":\"x\"}"), std::string::npos);

  const std::string closing = SerializeResponse(response, /*keep_alive=*/false);
  EXPECT_NE(closing.find("Connection: close\r\n"), std::string::npos);
}

// --------------------------------------------------------------- parser

HttpParser::Status Feed(HttpParser* parser, std::string_view bytes) {
  return parser->Consume(bytes);
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser parser;
  const auto status =
      Feed(&parser, "GET /v1/streams/s1/deviation?f=abs&g=max HTTP/1.1\r\n"
                    "Host: localhost\r\nAccept: */*\r\n\r\n");
  ASSERT_EQ(status, HttpParser::Status::kComplete);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/v1/streams/s1/deviation");
  EXPECT_EQ(request.query.at("f"), "abs");
  EXPECT_EQ(request.query.at("g"), "max");
  EXPECT_EQ(*request.FindHeader("host"), "localhost");
  EXPECT_TRUE(request.keep_alive);
  EXPECT_TRUE(request.body.empty());
}

TEST(HttpParserTest, ParsesPostBodyByContentLength) {
  HttpParser parser;
  const auto status = Feed(&parser,
                           "POST /v1/compare HTTP/1.1\r\nHost: x\r\n"
                           "Content-Length: 11\r\n\r\nhello world");
  ASSERT_EQ(status, HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().body, "hello world");
}

TEST(HttpParserTest, DecodesChunkedBody) {
  HttpParser parser;
  const auto status = Feed(&parser,
                           "POST /v1/compare HTTP/1.1\r\nHost: x\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n"
                           "5\r\nhello\r\n"
                           "6;ext=ignored\r\n world\r\n"
                           "0\r\n\r\n");
  ASSERT_EQ(status, HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().body, "hello world");
  EXPECT_TRUE(parser.request().keep_alive);
}

TEST(HttpParserTest, ChunkedByteAtATimeMatchesOneShot) {
  const std::string wire =
      "POST /x HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: CHUNKED\r\n\r\n"
      "4\r\nbody\r\nA\r\n0123456789\r\n0\r\n"
      "X-Trailer: discarded\r\n\r\n";
  HttpParser one_shot;
  ASSERT_EQ(one_shot.Consume(wire), HttpParser::Status::kComplete);
  EXPECT_EQ(one_shot.request().body, "body0123456789");

  HttpParser dribble;
  HttpParser::Status status = HttpParser::Status::kNeedMore;
  for (char c : wire) {
    status = dribble.Consume(std::string_view(&c, 1));
    if (status != HttpParser::Status::kNeedMore) break;
  }
  ASSERT_EQ(status, HttpParser::Status::kComplete);
  EXPECT_EQ(dribble.request().body, one_shot.request().body);
  // Trailer fields are consumed but never surfaced as headers.
  EXPECT_EQ(dribble.request().FindHeader("x-trailer"), nullptr);
}

TEST(HttpParserTest, ChunkedPipelinesWithFollowingRequest) {
  HttpParser parser;
  const auto first = Feed(&parser,
                          "POST /a HTTP/1.1\r\nHost: x\r\n"
                          "Transfer-Encoding: chunked\r\n\r\n"
                          "2\r\nab\r\n0\r\n\r\n"
                          "GET /b HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(first, HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().path, "/a");
  EXPECT_EQ(parser.request().body, "ab");
  ASSERT_EQ(parser.Reset(), HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().path, "/b");
}

TEST(HttpParserTest, ChunkedBodyHonorsBodyLimit) {
  HttpParserLimits limits;
  limits.max_body_bytes = 16;
  {  // single over-limit chunk, rejected from the size line alone
    HttpParser parser(limits);
    EXPECT_EQ(parser.Consume("POST / HTTP/1.1\r\n"
                             "Transfer-Encoding: chunked\r\n\r\n"
                             "FFFFFFFFFFFFFFFFFF\r\n"),
              HttpParser::Status::kError);
    EXPECT_EQ(parser.error_status(), 413);
  }
  {  // many small chunks whose total crosses the cap
    HttpParser parser(limits);
    std::string wire =
        "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    for (int i = 0; i < 5; ++i) wire += "4\r\nabcd\r\n";
    EXPECT_EQ(parser.Consume(wire), HttpParser::Status::kError);
    EXPECT_EQ(parser.error_status(), 413);
  }
  {  // unbounded trailers -> 431
    HttpParserLimits tight;
    tight.max_headers = 4;
    HttpParser parser(tight);
    std::string wire =
        "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n";
    for (int i = 0; i < 6; ++i) wire += "t" + std::to_string(i) + ": v\r\n";
    wire += "\r\n";
    EXPECT_EQ(parser.Consume(wire), HttpParser::Status::kError);
    EXPECT_EQ(parser.error_status(), 431);
  }
}

TEST(HttpParserTest, ByteAtATimeMatchesOneShot) {
  const std::string wire =
      "POST /x?a=1 HTTP/1.1\r\nHost: h\r\ncontent-length: 4\r\n"
      "X-Extra:  padded value \r\n\r\nbody";
  HttpParser one_shot;
  ASSERT_EQ(one_shot.Consume(wire), HttpParser::Status::kComplete);

  HttpParser dribble;
  HttpParser::Status status = HttpParser::Status::kNeedMore;
  for (char c : wire) {
    status = dribble.Consume(std::string_view(&c, 1));
    if (status != HttpParser::Status::kNeedMore) break;
  }
  ASSERT_EQ(status, HttpParser::Status::kComplete);
  EXPECT_EQ(dribble.request().method, one_shot.request().method);
  EXPECT_EQ(dribble.request().path, one_shot.request().path);
  EXPECT_EQ(dribble.request().body, one_shot.request().body);
  EXPECT_EQ(*dribble.request().FindHeader("x-extra"), "padded value");
}

TEST(HttpParserTest, PipelinedRequestsSurviveReset) {
  HttpParser parser;
  const auto first = Feed(&parser,
                          "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
                          "GET /b HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(first, HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().path, "/a");
  // Reset must immediately produce the buffered second request.
  ASSERT_EQ(parser.Reset(), HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().path, "/b");
  EXPECT_EQ(parser.Reset(), HttpParser::Status::kNeedMore);
  EXPECT_TRUE(parser.idle());
}

TEST(HttpParserTest, BareLfLineEndingsAccepted) {
  HttpParser parser;
  const auto status =
      Feed(&parser, "GET /lf HTTP/1.1\nHost: x\n\n");
  ASSERT_EQ(status, HttpParser::Status::kComplete);
  EXPECT_EQ(parser.request().path, "/lf");
}

TEST(HttpParserTest, ConnectionHeaderAndVersionDefaults) {
  HttpParser p10;
  ASSERT_EQ(Feed(&p10, "GET / HTTP/1.0\r\n\r\n"),
            HttpParser::Status::kComplete);
  EXPECT_FALSE(p10.request().keep_alive);  // 1.0 defaults to close

  HttpParser p10ka;
  ASSERT_EQ(Feed(&p10ka,
                 "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            HttpParser::Status::kComplete);
  EXPECT_TRUE(p10ka.request().keep_alive);

  HttpParser p11close;
  ASSERT_EQ(Feed(&p11close, "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
            HttpParser::Status::kComplete);
  EXPECT_FALSE(p11close.request().keep_alive);
}

struct MalformedCase {
  const char* name;
  std::string wire;
  int want_status;
};

TEST(HttpParserTest, MalformedRequestsGetPreciseStatuses) {
  const std::vector<MalformedCase> cases = {
      {"no_target", "GET\r\n\r\n", 400},
      {"relative_target", "GET foo HTTP/1.1\r\n\r\n", 400},
      {"bad_version", "GET / HTTP/2.0\r\n\r\n", 505},
      {"garbage_version", "GET / TROLL\r\n\r\n", 400},
      {"space_in_header_name", "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", 400},
      {"header_without_colon", "GET / HTTP/1.1\r\nnocolon\r\n\r\n", 400},
      {"obs_fold", "GET / HTTP/1.1\r\nA: 1\r\n  folded\r\n\r\n", 400},
      {"nonnumeric_content_length",
       "POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400},
      {"negative_content_length",
       "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
      {"conflicting_content_length",
       "POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
       400},
      {"transfer_encoding_gzip", "POST / HTTP/1.1\r\nTransfer-Encoding: gzip"
                                 "\r\n\r\n", 501},
      {"transfer_encoding_list",
       "POST / HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n", 501},
      {"te_then_content_length",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
       "Content-Length: 4\r\n\r\n", 400},
      {"content_length_then_te",
       "POST / HTTP/1.1\r\nContent-Length: 4\r\n"
       "Transfer-Encoding: chunked\r\n\r\n", 400},
      {"duplicate_te",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
       "Transfer-Encoding: chunked\r\n\r\n", 400},
      {"bad_chunk_size",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", 400},
      {"empty_chunk_size",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\r\n", 400},
      {"bad_chunk_terminator",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
       "3\r\nabcXX", 400},
      {"nul_in_header", std::string("GET / HTTP/1.1\r\nA: b\0c\r\n\r\n", 26),
       400},
  };
  for (const auto& c : cases) {
    HttpParser parser;
    EXPECT_EQ(parser.Consume(c.wire), HttpParser::Status::kError) << c.name;
    EXPECT_EQ(parser.error_status(), c.want_status) << c.name;
    EXPECT_FALSE(parser.error().empty()) << c.name;
  }
}

TEST(HttpParserTest, LimitsAreEnforced) {
  HttpParserLimits limits;
  limits.max_line_bytes = 64;
  limits.max_headers = 4;
  limits.max_body_bytes = 16;

  {  // over-long request line -> 414
    HttpParser parser(limits);
    const std::string line = "GET /" + std::string(100, 'a') + " HTTP/1.1\r\n";
    EXPECT_EQ(parser.Consume(line), HttpParser::Status::kError);
    EXPECT_EQ(parser.error_status(), 414);
  }
  {  // over-long header line -> 431
    HttpParser parser(limits);
    const std::string wire =
        "GET / HTTP/1.1\r\nX: " + std::string(100, 'v') + "\r\n\r\n";
    EXPECT_EQ(parser.Consume(wire), HttpParser::Status::kError);
    EXPECT_EQ(parser.error_status(), 431);
  }
  {  // too many headers -> 431
    HttpParser parser(limits);
    std::string wire = "GET / HTTP/1.1\r\n";
    for (int i = 0; i < 6; ++i) {
      wire += "h" + std::to_string(i) + ": v\r\n";
    }
    wire += "\r\n";
    EXPECT_EQ(parser.Consume(wire), HttpParser::Status::kError);
    EXPECT_EQ(parser.error_status(), 431);
  }
  {  // declared body beyond the cap -> 413, detected before any body bytes
    HttpParser parser(limits);
    EXPECT_EQ(parser.Consume("POST / HTTP/1.1\r\nContent-Length: 1000"
                             "\r\n\r\n"),
              HttpParser::Status::kError);
    EXPECT_EQ(parser.error_status(), 413);
  }
  {  // a huge Content-Length value must not overflow into acceptance
    HttpParser parser(limits);
    EXPECT_EQ(parser.Consume("POST / HTTP/1.1\r\nContent-Length: "
                             "999999999999999999999999\r\n\r\n"),
              HttpParser::Status::kError);
    EXPECT_NE(parser.error_status(), 200);
  }
}

TEST(HttpParserTest, IdleTracksRequestBoundaries) {
  HttpParser parser;
  EXPECT_TRUE(parser.idle());
  EXPECT_EQ(parser.Consume("GET /"), HttpParser::Status::kNeedMore);
  EXPECT_FALSE(parser.idle());  // mid-request: not safe to drop silently
  EXPECT_EQ(parser.Consume(" HTTP/1.1\r\n\r\n"),
            HttpParser::Status::kComplete);
  parser.Reset();
  EXPECT_TRUE(parser.idle());
}

// --------------------------------------------------------------- router

TEST(RouterTest, DispatchesLiteralsAndCaptures) {
  Router router;
  router.Handle("GET", "/healthz", [](const HttpRequest&, const PathParams&) {
    HttpResponse r;
    r.body = "ok";
    return r;
  });
  router.Handle("POST", "/v1/streams/{name}/snapshots",
                [](const HttpRequest&, const PathParams& params) {
                  HttpResponse r;
                  r.body = params.at("name");
                  return r;
                });

  HttpRequest get;
  get.method = "GET";
  get.path = "/healthz";
  EXPECT_EQ(router.Dispatch(get).body, "ok");

  HttpRequest post;
  post.method = "POST";
  post.path = "/v1/streams/payments/snapshots";
  EXPECT_EQ(router.Dispatch(post).body, "payments");

  HttpRequest missing;
  missing.method = "GET";
  missing.path = "/v1/streams/payments/unknown";
  EXPECT_EQ(router.Dispatch(missing).status, 404);

  // Segment counts must match exactly; an empty capture segment is a 404.
  HttpRequest short_path;
  short_path.method = "POST";
  short_path.path = "/v1/streams/snapshots";
  EXPECT_EQ(router.Dispatch(short_path).status, 404);
}

TEST(RouterTest, WrongMethodGets405WithAllow) {
  Router router;
  router.Handle("GET", "/thing", [](const HttpRequest&, const PathParams&) {
    return HttpResponse{};
  });
  HttpRequest del;
  del.method = "DELETE";
  del.path = "/thing";
  const HttpResponse response = router.Dispatch(del);
  EXPECT_EQ(response.status, 405);
  bool has_allow = false;
  for (const auto& [name, value] : response.headers) {
    if (name == "allow") {
      has_allow = true;
      EXPECT_NE(value.find("GET"), std::string::npos);
    }
  }
  EXPECT_TRUE(has_allow);
}

// --------------------------------------------------------------- poller

class PollerEngineTest : public ::testing::TestWithParam<bool> {};

TEST_P(PollerEngineTest, ReportsReadinessOnAPipe) {
  Poller poller(/*force_poll=*/GetParam());
#if defined(__linux__)
  EXPECT_EQ(poller.using_epoll(), !GetParam());
#else
  EXPECT_FALSE(poller.using_epoll());
#endif
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  UniqueFd reader(fds[0]), writer(fds[1]);
  ASSERT_TRUE(poller.Add(reader.get(), /*want_read=*/true,
                         /*want_write=*/false));

  std::vector<Poller::Event> events;
  EXPECT_EQ(poller.Wait(0, &events), 0);  // nothing readable yet

  ASSERT_EQ(write(writer.get(), "x", 1), 1);
  ASSERT_EQ(poller.Wait(1000, &events), 1);
  EXPECT_EQ(events[0].fd, reader.get());
  EXPECT_TRUE(events[0].readable);

  // Level-triggered: the byte is still buffered, so it reports again.
  ASSERT_EQ(poller.Wait(0, &events), 1);

  // Interest can be switched off and the fd removed.
  ASSERT_TRUE(poller.Update(reader.get(), false, false));
  EXPECT_EQ(poller.Wait(0, &events), 0);
  poller.Remove(reader.get());
  EXPECT_EQ(poller.size(), 0u);
}

// The name-generator parameter avoids `info`: INSTANTIATE_TEST_SUITE_P
// expands the lambda inside a function whose own parameter is named
// `info`, which -Wshadow rejects.
INSTANTIATE_TEST_SUITE_P(Engines, PollerEngineTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "poll" : "native";
                         });

// --------------------------------------------------------------- server

Router EchoRouter() {
  Router router;
  router.Handle("GET", "/ping", [](const HttpRequest&, const PathParams&) {
    HttpResponse r;
    r.body = "pong";
    return r;
  });
  router.Handle("POST", "/echo",
                [](const HttpRequest& request, const PathParams&) {
                  HttpResponse r;
                  r.body = request.body;
                  return r;
                });
  return router;
}

class HttpServerEngineTest : public ::testing::TestWithParam<bool> {};

TEST_P(HttpServerEngineTest, ServesRequestsOverLoopback) {
  HttpServerOptions options;
  options.force_poll = GetParam();
  HttpServer server(options, EchoRouter());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  const auto pong = client.Get("/ping");
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->status, 200);
  EXPECT_EQ(pong->body, "pong");

  // Keep-alive: same connection carries more requests, bodies included.
  const std::string payload(10'000, 'z');
  const auto echoed = client.Post("/echo", payload, "text/plain");
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(echoed->status, 200);
  EXPECT_EQ(echoed->body, payload);

  const auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1);
  EXPECT_EQ(stats.requests_handled, 3);
  EXPECT_EQ(stats.parse_errors, 0);
}

INSTANTIATE_TEST_SUITE_P(Engines, HttpServerEngineTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "poll" : "native";
                         });

TEST(HttpServerTest, PipelinedRequestsAllAnswered) {
  HttpServer server(HttpServerOptions{}, EchoRouter());
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.SendRaw("GET /ping HTTP/1.1\r\nHost: x\r\n\r\n"
                             "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n"
                             "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"));
  const int want_statuses[] = {200, 200, 404};
  for (int want : want_statuses) {
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, want);
  }
}

TEST(HttpServerTest, MalformedRequestGets400AndClose) {
  HttpServer server(HttpServerOptions{}, EchoRouter());
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.SendRaw("NOT A REQUEST\r\n\r\n"));
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);
  EXPECT_EQ(response->headers.at("connection"), "close");
  EXPECT_EQ(server.stats().parse_errors, 1);
}

TEST(HttpServerTest, OversizedBodyGets413) {
  HttpServerOptions options;
  options.limits.max_body_bytes = 128;
  HttpServer server(options, EchoRouter());
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  const auto response =
      client.Post("/echo", std::string(4096, 'x'), "text/plain");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 413);
}

TEST(HttpServerTest, ConnectionCapAnswers503) {
  HttpServerOptions options;
  options.max_connections = 2;
  HttpServer server(options, EchoRouter());
  ASSERT_TRUE(server.Start());

  HttpClient a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(a.Get("/ping").has_value());  // both really open
  ASSERT_TRUE(b.Get("/ping").has_value());

  HttpClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port()));
  const auto refused = c.ReadResponse();  // server sends 503 unprompted
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->status, 503);
  EXPECT_GE(server.stats().connections_refused, 1);

  // Capacity frees up once an occupant leaves.
  a.Close();
  HttpClient d;
  std::optional<HttpClientResponse> ok;
  for (int attempt = 0; attempt < 50 && !ok.has_value(); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (!d.Connect("127.0.0.1", server.port())) continue;
    ok = d.Get("/ping");
  }
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
}

TEST(HttpServerTest, ReadDeadlineClosesSilentConnections) {
  HttpServerOptions options;
  options.read_deadline_ms = 100;
  HttpServer server(options, EchoRouter());
  ASSERT_TRUE(server.Start());
  HttpClient client(/*timeout_ms=*/2000);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.SendRaw("GET /ping HTTP/1."));  // stall mid-request
  const auto response = client.ReadResponse();
  EXPECT_FALSE(response.has_value());  // server hung up, no bytes
  for (int i = 0; i < 100 && server.stats().deadline_closes == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().deadline_closes, 1);
  EXPECT_EQ(server.stats().open_connections, 0);
}

TEST(HttpServerTest, DrainStopsAcceptingAndFinishesInFlight) {
  HttpServer server(HttpServerOptions{}, EchoRouter());
  ASSERT_TRUE(server.Start());
  const uint16_t port = server.port();

  HttpClient idle_conn;
  ASSERT_TRUE(idle_conn.Connect("127.0.0.1", port));
  ASSERT_TRUE(idle_conn.Get("/ping").has_value());  // now idle keep-alive

  server.BeginDrain();
  EXPECT_TRUE(server.WaitDrained(2000));

  // The idle connection was closed by the drain...
  EXPECT_EQ(server.stats().open_connections, 0);
  // ...and new connections are not accepted (connect may succeed against
  // a dead backlog, but no response ever comes).
  HttpClient late(/*timeout_ms=*/300);
  if (late.Connect("127.0.0.1", port)) {
    EXPECT_FALSE(late.Get("/ping").has_value());
  }
  server.Stop();
}

TEST(HttpServerTest, UnreadRepliesStopReadingUntilTheClientReads) {
  // 512 pipelined requests for 64 KiB each: a server that kept reading
  // would queue 32 MiB of replies for a client that takes none.
  const std::string big(64 << 10, 'b');
  Router router;
  router.Handle("GET", "/big", [&big](const HttpRequest&, const PathParams&) {
    HttpResponse response;
    response.body = big;
    return response;
  });
  HttpServer server(HttpServerOptions{}, std::move(router));
  ASSERT_TRUE(server.Start());
  std::string error;
  const UniqueFd fd = ConnectTcp("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(fd.valid()) << error;

  constexpr int kRequests = 512;
  std::string requests;
  for (int i = 0; i < kRequests; ++i) {
    requests += "GET /big HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  HttpResponse reply;
  reply.body = big;
  tests::ExpectBackPressure(
      fd.get(), requests, kRequests,
      SerializeResponse(reply, /*keep_alive=*/true).size(),
      [&server]() { return server.stats().requests_handled; });
}

TEST(HttpServerTest, ConcurrentClientsAllServed) {
  HttpServer server(HttpServerOptions{}, EchoRouter());
  ASSERT_TRUE(server.Start());
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server.port())) return;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string body =
            "t" + std::to_string(t) + ":" + std::to_string(i);
        const auto response = client.Post("/echo", body, "text/plain");
        if (response.has_value() && response->status == 200 &&
            response->body == body) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(server.stats().requests_handled, kThreads * kRequestsPerThread);
}

// ------------------------------------------------------- deferred replies

// A router whose GET /later?tag=T parks its reply for the test to send
// from any thread; GET /ping answers at once.
class ParkedReplies {
 public:
  struct Parked {
    std::string tag;
    std::shared_ptr<PendingResponse> pending;
  };

  Router MakeRouter() {
    Router router = EchoRouter();
    router.Handle("GET", "/later",
                  [this](const HttpRequest& request, const PathParams&) {
                    auto pending = std::make_shared<PendingResponse>();
                    common::MutexLock lock(&mutex_);
                    parked_.push_back({request.query.at("tag"), pending});
                    cv_.NotifyAll();
                    return HttpResponse::Later(std::move(pending));
                  });
    return router;
  }

  // Waits until `count` replies are parked, then takes them all.
  std::vector<Parked> Take(size_t count) {
    common::MutexLock lock(&mutex_);
    EXPECT_TRUE(cv_.WaitFor(mutex_, std::chrono::seconds(10),
                            [&]() REQUIRES(mutex_) {
                              return parked_.size() >= count;
                            }));
    std::vector<Parked> taken(parked_.begin(), parked_.end());
    parked_.clear();
    return taken;
  }

  static void Send(const Parked& parked, std::string body) {
    HttpResponse response;
    response.body = std::move(body);
    parked.pending->Send(std::move(response));
  }

 private:
  common::Mutex mutex_;
  common::CondVar cv_;
  std::deque<Parked> parked_ GUARDED_BY(mutex_);
};

TEST(DeferredReplyTest, PipelinedRequestWaitsForTheDeferredOneAhead) {
  ParkedReplies parked;
  HttpServer server(HttpServerOptions{}, parked.MakeRouter());
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.SendRaw("GET /later?tag=first HTTP/1.1\r\nHost: x\r\n\r\n"
                             "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::vector<ParkedReplies::Parked> first = parked.Take(1);
  // The ping behind it is neither answered nor even dispatched.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(server.stats().requests_handled, 1);

  ParkedReplies::Send(first[0], "first");
  const auto later = client.ReadResponse();
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(later->body, "first");
  const auto ping = client.ReadResponse();
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->body, "pong");
  EXPECT_EQ(server.stats().requests_handled, 2);
}

TEST(DeferredReplyTest, ReplyForAClosedConnectionNeverReachesANewOne) {
  ParkedReplies parked;
  HttpServer server(HttpServerOptions{}, parked.MakeRouter());
  ASSERT_TRUE(server.Start());
  std::vector<ParkedReplies::Parked> stale;
  {
    std::string error;
    UniqueFd fd = ConnectTcp("127.0.0.1", server.port(), &error);
    ASSERT_TRUE(fd.valid()) << error;
    const std::string request = "GET /later?tag=stale HTTP/1.1\r\n\r\n";
    ASSERT_EQ(::send(fd.get(), request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    stale = parked.Take(1);
    // Reset, not FIN: the server sees the error on a connection it does
    // not read, and closes it.
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_LINGER, &reset,
                           sizeof(reset)),
              0);
  }
  for (int i = 0; i < 200 && server.stats().open_connections > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.stats().open_connections, 0);

  // New connections, each awaiting its own reply. Each is accepted before
  // the next opens, so the kernel hands the closed connection's fd to the
  // first: the lowest free fd goes to its client socket, which was opened
  // before the closed one's server side, and the next to the accept.
  constexpr int kConnections = 4;
  std::vector<HttpClient> clients(kConnections);
  std::vector<ParkedReplies::Parked> fresh;
  for (int c = 0; c < kConnections; ++c) {
    ASSERT_TRUE(clients[c].Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(clients[c].SendRaw("GET /later?tag=" + std::to_string(c) +
                                   " HTTP/1.1\r\n\r\n"));
    fresh.push_back(parked.Take(1)[0]);
  }
  ParkedReplies::Send(stale[0], "stale");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (const ParkedReplies::Parked& reply : fresh) {
    ParkedReplies::Send(reply, reply.tag);
  }
  for (int c = 0; c < kConnections; ++c) {
    const auto response = clients[c].ReadResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->body, std::to_string(c));
    const auto ping = clients[c].Get("/ping");
    ASSERT_TRUE(ping.has_value());
    EXPECT_EQ(ping->body, "pong");
  }
}

TEST(DeferredReplyTest, AwaitingConnectionOutlivesDeadlineAndHoldsTheDrain) {
  ParkedReplies parked;
  HttpServerOptions options;
  options.read_deadline_ms = 100;
  HttpServer server(options, parked.MakeRouter());
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.SendRaw("GET /later?tag=slow HTTP/1.1\r\n\r\n"));
  const std::vector<ParkedReplies::Parked> slow = parked.Take(1);

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(server.stats().deadline_closes, 0);
  EXPECT_EQ(server.stats().open_connections, 1);
  server.BeginDrain();
  EXPECT_FALSE(server.WaitDrained(200));

  ParkedReplies::Send(slow[0], "done");
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "done");
  EXPECT_TRUE(server.WaitDrained(2000));
  server.Stop();
}

TEST(DeferredReplyTest, RepliesSentFromFourThreadsReachTheirConnections) {
  ParkedReplies parked;
  HttpServer server(HttpServerOptions{}, parked.MakeRouter());
  ASSERT_TRUE(server.Start());
  constexpr int kConnections = 32;
  constexpr int kSenders = 4;
  std::vector<HttpClient> clients(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    ASSERT_TRUE(clients[c].Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(clients[c].SendRaw("GET /later?tag=conn-" + std::to_string(c) +
                                   " HTTP/1.1\r\n\r\n"));
  }
  const std::vector<ParkedReplies::Parked> replies = parked.Take(kConnections);
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&replies, t]() {
      for (size_t i = t; i < replies.size(); i += kSenders) {
        ParkedReplies::Send(replies[i], replies[i].tag);
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  for (int c = 0; c < kConnections; ++c) {
    const auto response = clients[c].ReadResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->body, "conn-" + std::to_string(c));
  }
  EXPECT_EQ(server.stats().requests_handled, kConnections);
}

}  // namespace
}  // namespace focus::net
