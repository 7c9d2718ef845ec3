// Unit tests for the sharded scale-out stack: wire codec + incremental
// decoder, consistent-hash ring, the Unix-socket WireServer/ShardClient
// pair (the wire side of net::Server's loop, over both Poller engines),
// and ShardWorker frame dispatch. The equivalence laws (sharded ≡
// single-node, bit-identical) live in tests/laws/laws_shard_test.cc; this
// file pins the byte-level and transport-level contracts.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "back_pressure.h"
#include "core/lits_deviation.h"
#include "data/block_txn_db.h"
#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "itemsets/apriori.h"
#include "net/router.h"
#include "serve/api_util.h"
#include "shard/hash_ring.h"
#include "shard/shard_client.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"
#include "shard/sharded_api.h"
#include "shard/wire.h"
#include "shard/wire_server.h"

namespace focus::shard {
namespace {

using serve::FgChoice;

data::TransactionDb QuestDb(uint64_t seed, int num_transactions = 300) {
  datagen::QuestParams params;
  params.num_transactions = num_transactions;
  params.num_items = 60;
  params.num_patterns = 100;
  params.avg_pattern_length = 4;
  params.avg_transaction_length = 8;
  params.seed = seed;
  params.pattern_seed = 99;
  return datagen::GenerateQuest(params);
}

std::string Serialize(const data::TransactionDb& db) {
  std::ostringstream out;
  io::SaveTransactionDb(db, out);
  return out.str();
}

// A fresh Unix-socket path under TMPDIR, unique per test.
std::string SocketPath(const std::string& tag) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = tmp != nullptr ? tmp : "/tmp";
  return dir + "/focus_shard_test_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ------------------------------------------------------------------ codec

TEST(WireCodecTest, PayloadPrimitivesRoundTrip) {
  PayloadWriter writer;
  writer.PutU8(7);
  writer.PutU16(0xBEEF);
  writer.PutU32(0xDEADBEEF);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutI64(-42);
  writer.PutDouble(0.1 + 0.2);  // not representable exactly: bits must match
  writer.PutString("hello");
  writer.PutItemset(lits::Itemset{1, 5, 9});

  PayloadReader reader(writer.bytes());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0;
  std::string text;
  lits::Itemset itemset;
  EXPECT_TRUE(reader.GetU8(&u8));
  EXPECT_TRUE(reader.GetU16(&u16));
  EXPECT_TRUE(reader.GetU32(&u32));
  EXPECT_TRUE(reader.GetU64(&u64));
  EXPECT_TRUE(reader.GetI64(&i64));
  EXPECT_TRUE(reader.GetDouble(&d));
  EXPECT_TRUE(reader.GetString(&text));
  EXPECT_TRUE(reader.GetItemset(&itemset));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d, 0.1 + 0.2);  // exact: IEEE-754 bits travel unchanged
  EXPECT_EQ(text, "hello");
  EXPECT_EQ(itemset, (lits::Itemset{1, 5, 9}));
  EXPECT_TRUE(reader.AtEnd());
  // One more read past the end flips ok().
  EXPECT_FALSE(reader.GetU8(&u8));
  EXPECT_FALSE(reader.ok());
}

TEST(WireCodecTest, TruncatedPayloadRejected) {
  PayloadWriter writer;
  writer.PutString("stream-name");
  const std::string bytes = writer.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    PayloadReader reader(std::string_view(bytes).substr(0, cut));
    std::string text;
    EXPECT_FALSE(reader.GetString(&text)) << "cut=" << cut;
  }
}

TEST(WireCodecTest, HostileListLengthCannotForceAllocation) {
  // A regions list claiming 2^31 entries but carrying 4 bytes must fail
  // fast instead of reserving gigabytes.
  PayloadWriter writer;
  writer.PutU32(0x80000000u);
  writer.PutU32(0);  // a lone itemset length
  PayloadReader reader(writer.bytes());
  std::vector<lits::Itemset> regions;
  EXPECT_FALSE(reader.GetRegions(&regions));
}

TEST(WireCodecTest, MessageBodiesRoundTrip) {
  {
    SubmitSnapshotBody body;
    body.stream = "payments";
    body.source = "10.0.0.1:9";
    body.snapshot = "focus-txns-v1\n...";
    SubmitSnapshotBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    EXPECT_EQ(out.stream, body.stream);
    EXPECT_EQ(out.source, body.source);
    EXPECT_EQ(out.snapshot, body.snapshot);
  }
  {
    SubmitResultBody body;
    body.status = 429;
    body.sequence = 17;
    body.content_hash = 0xABCDEF0011223344ull;
    body.error = "ingest queue is full; retry later";
    SubmitResultBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    EXPECT_EQ(out.status, body.status);
    EXPECT_EQ(out.sequence, body.sequence);
    EXPECT_EQ(out.content_hash, body.content_hash);
    EXPECT_EQ(out.error, body.error);
  }
  {
    DeviationResultBody body;
    body.found = 1;
    body.has_deviation = 1;
    body.deviation = 0.125;
    body.status.processed = 3;
    body.status.has_snapshot = true;
    body.status.sequence = 2;
    body.status.num_transactions = 300;
    body.status.delta_star = 0.5;
    body.status.deviation = 0.25;
    body.status.significance_percent = 99.0;
    body.status.alert = true;
    body.status.cusum = 1.5;
    body.status.change_point = true;
    body.status.baseline_ready = true;
    body.status.baseline_mean = 0.1;
    body.status.baseline_sd = 0.01;
    DeviationResultBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    EXPECT_EQ(out.found, 1);
    EXPECT_EQ(out.deviation, body.deviation);
    EXPECT_EQ(out.status.sequence, 2);
    EXPECT_EQ(out.status.num_transactions, 300);
    EXPECT_EQ(out.status.significance_percent, 99.0);
    EXPECT_TRUE(out.status.alert);
    EXPECT_TRUE(out.status.change_point);
    EXPECT_EQ(out.status.baseline_sd, 0.01);
  }
  {
    ModelRegionsResultBody body;
    body.found = 1;
    body.num_transactions = 300;
    body.regions = {{1}, {1, 2}, {4, 7, 9}};
    ModelRegionsResultBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    EXPECT_EQ(out.regions, body.regions);
    EXPECT_EQ(out.num_transactions, 300);
  }
  {
    PartialAggregateBody body;
    body.entries = {{"a", 1, 0.5}, {"b", 0, 0.0}};
    PartialAggregateBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    ASSERT_EQ(out.entries.size(), 2u);
    EXPECT_EQ(out.entries[0].stream, "a");
    EXPECT_EQ(out.entries[0].deviation, 0.5);
    EXPECT_EQ(out.entries[1].has_deviation, 0);
  }
  {  // trailing garbage after a valid body must be rejected (AtEnd check)
    ErrorBody body;
    body.message = "boom";
    ErrorBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    EXPECT_FALSE(out.Decode(body.Encode() + "x"));
  }
}

TEST(WireCodecTest, DeviationCodeMapping) {
  // Query names, wire codes and functions all come from FgChoice's table.
  for (uint8_t f_code = 0; f_code < 2; ++f_code) {
    for (uint8_t g_code = 0; g_code < 2; ++g_code) {
      const auto fg = FgChoice::FromCodes(f_code, g_code);
      ASSERT_TRUE(fg.has_value());
      EXPECT_EQ(fg->f_code(), f_code);
      EXPECT_EQ(fg->g_code(), g_code);
      EXPECT_EQ(fg->index(), 2 * f_code + g_code);
      EXPECT_EQ(FgChoice::FromParams({{"f", std::string(fg->f_name())},
                                      {"g", std::string(fg->g_name())}}),
                fg);
    }
  }
  const auto scaled_max = FgChoice::FromParams({{"f", "scaled"}, {"g", "max"}});
  ASSERT_TRUE(scaled_max.has_value());
  EXPECT_EQ(scaled_max->f_code(), 1);
  EXPECT_EQ(scaled_max->g_code(), 1);
  EXPECT_EQ(scaled_max->function().g, core::AggregateKind::kMax);
  EXPECT_EQ(scaled_max->function().f(1, 3, 10, 10),
            core::ScaledDiff()(1, 3, 10, 10));
  EXPECT_EQ(FgChoice().function().f(1, 3, 10, 10),
            core::AbsoluteDiff()(1, 3, 10, 10));
  EXPECT_FALSE(FgChoice::FromParams({{"f", "cubed"}, {"g", "max"}}));
  EXPECT_FALSE(FgChoice::FromParams({{"f", "abs"}, {"g", "avg"}}));
  EXPECT_EQ(FgChoice::FromParams({}), FgChoice());  // abs, sum
  EXPECT_EQ(FgChoice::FromCodes(0, 0), FgChoice());
  EXPECT_FALSE(FgChoice::FromCodes(7, 0));

  // The pair travels as its two code bytes; any other byte fails to decode.
  StreamPartialsBody body;
  body.fg = *scaled_max;
  EXPECT_EQ(body.Encode(), std::string("\x01\x01", 2));
  StreamPartialsBody out;
  EXPECT_FALSE(out.Decode(std::string("\x07\x00", 2)));
  EXPECT_FALSE(out.Decode(std::string("\x00\x02", 2)));
  ASSERT_TRUE(out.Decode(body.Encode()));
  EXPECT_EQ(out.fg, *scaled_max);
}

// ---------------------------------------------------------------- decoder

TEST(WireDecoderTest, ByteAtATimeMatchesOneShot) {
  Frame ping{MessageType::kPing, 1, ""};
  Frame query{MessageType::kDeviationQuery, 2,
              DeviationQueryBody{"s1", {FgChoice::F::kAbs, FgChoice::G::kMax}}
                  .Encode()};
  const std::string wire = EncodeFrame(ping) + EncodeFrame(query);

  WireDecoder one_shot;
  ASSERT_EQ(one_shot.Consume(wire), WireDecoder::Status::kComplete);
  EXPECT_EQ(one_shot.frame().type, MessageType::kPing);
  EXPECT_EQ(one_shot.frame().request_id, 1u);
  ASSERT_EQ(one_shot.Reset(), WireDecoder::Status::kComplete);
  EXPECT_EQ(one_shot.frame().type, MessageType::kDeviationQuery);
  EXPECT_EQ(one_shot.frame().request_id, 2u);
  EXPECT_EQ(one_shot.Reset(), WireDecoder::Status::kNeedMore);
  EXPECT_TRUE(one_shot.idle());

  WireDecoder dribble;
  std::vector<Frame> frames;
  for (char c : wire) {
    auto status = dribble.Consume(std::string_view(&c, 1));
    while (status == WireDecoder::Status::kComplete) {
      frames.push_back(dribble.frame());
      status = dribble.Reset();
    }
    ASSERT_NE(status, WireDecoder::Status::kError);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MessageType::kPing);
  EXPECT_EQ(frames[1].payload, query.payload);
}

TEST(WireDecoderTest, OversizedPayloadIsTerminal) {
  WireLimits limits;
  limits.max_payload_bytes = 16;
  WireDecoder decoder(limits);
  Frame big{MessageType::kPing, 1, std::string(17, 'x')};
  EXPECT_EQ(decoder.Consume(EncodeFrame(big)), WireDecoder::Status::kError);
  EXPECT_FALSE(decoder.error().empty());
}

TEST(WireDecoderTest, UnknownTypeIsTerminal) {
  WireDecoder decoder;
  std::string wire = EncodeFrame(Frame{MessageType::kPing, 1, ""});
  wire[4] = '\x63';  // type byte out of range
  EXPECT_EQ(decoder.Consume(wire), WireDecoder::Status::kError);
}

TEST(WireDecoderTest, EncodeDecodeIsIdentity) {
  Frame frame{MessageType::kSubmitSnapshot, 0xFEEDF00Du,
              SubmitSnapshotBody{"s", "src", "payload"}.Encode()};
  WireDecoder decoder;
  ASSERT_EQ(decoder.Consume(EncodeFrame(frame)),
            WireDecoder::Status::kComplete);
  EXPECT_EQ(decoder.frame().type, frame.type);
  EXPECT_EQ(decoder.frame().request_id, frame.request_id);
  EXPECT_EQ(decoder.frame().payload, frame.payload);
  EXPECT_EQ(EncodeFrame(decoder.frame()), EncodeFrame(frame));
}

// -------------------------------------------------------------- hash ring

TEST(HashRingTest, AssignmentsAreDeterministicAndInRange) {
  HashRing ring(4);
  HashRing again(4);
  for (int i = 0; i < 200; ++i) {
    const std::string stream = "stream-" + std::to_string(i);
    const int shard = ring.ShardFor(stream);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, again.ShardFor(stream));
  }
}

TEST(HashRingTest, SingleShardOwnsEverything) {
  HashRing ring(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ring.ShardFor("s" + std::to_string(i)), 0);
  }
}

TEST(HashRingTest, LoadSpreadsAcrossShards) {
  HashRing ring(8);
  std::vector<int> counts(8, 0);
  const int kStreams = 4000;
  for (int i = 0; i < kStreams; ++i) {
    ++counts[ring.ShardFor("stream-" + std::to_string(i))];
  }
  // With 64 vnodes per shard the spread is loose but every shard must get
  // a meaningful share — no empty and no >2.5x-average shard.
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_GT(counts[shard], kStreams / 8 / 4) << "shard " << shard;
    EXPECT_LT(counts[shard], kStreams / 8 * 5 / 2) << "shard " << shard;
  }
}

TEST(HashRingTest, ResizeOnlyMovesABoundedFraction) {
  // Consistent hashing's point: going 4 -> 5 shards should move roughly
  // 1/5 of the keys, not reshuffle everything.
  HashRing four(4), five(5);
  const int kStreams = 4000;
  int moved = 0;
  for (int i = 0; i < kStreams; ++i) {
    const std::string stream = "stream-" + std::to_string(i);
    if (four.ShardFor(stream) != five.ShardFor(stream)) ++moved;
  }
  EXPECT_LT(moved, kStreams / 2);  // far below the ~100% of mod-N hashing
  EXPECT_GT(moved, 0);
}

// ------------------------------------------------- socket server + client

class WireSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reference_ = QuestDb(1);
    ShardWorkerOptions options;
    options.shard_index = 3;
    worker_ = std::make_unique<ShardWorker>(options, reference_, nullptr);
    WireServerOptions server_options;
    server_options.unix_path = SocketPath("socket");
    std::string error;
    ASSERT_TRUE(worker_->Serve(server_options, &error)) << error;
    path_ = server_options.unix_path;
  }

  void TearDown() override {
    worker_->Stop();
    ::unlink(path_.c_str());
  }

  data::TransactionDb reference_;
  std::unique_ptr<ShardWorker> worker_;
  std::string path_;
};

TEST_F(WireSocketTest, PingRoundTripOverUnixSocket) {
  ShardClient client(path_);
  Frame response;
  std::string error;
  ASSERT_TRUE(client.Call(MessageType::kPing, "", &response, &error))
      << error;
  ASSERT_EQ(response.type, MessageType::kPong);
  PongBody pong;
  ASSERT_TRUE(pong.Decode(response.payload));
  EXPECT_EQ(pong.shard_index, 3u);
  EXPECT_EQ(pong.draining, 0);
}

TEST_F(WireSocketTest, SubmitThenQueryOverSocket) {
  ShardClient client(path_);
  Frame response;
  std::string error;

  SubmitSnapshotBody submit;
  submit.stream = "payments";
  submit.source = "test";
  submit.snapshot = Serialize(QuestDb(2));
  ASSERT_TRUE(client.Call(MessageType::kSubmitSnapshot, submit.Encode(),
                          &response, &error))
      << error;
  SubmitResultBody result;
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 202);
  EXPECT_EQ(result.sequence, 0);
  EXPECT_NE(result.content_hash, 0u);

  worker_->service().Flush();

  DeviationQueryBody query{"payments", FgChoice()};
  ASSERT_TRUE(client.Call(MessageType::kDeviationQuery, query.Encode(),
                          &response, &error))
      << error;
  DeviationResultBody deviation;
  ASSERT_TRUE(deviation.Decode(response.payload));
  EXPECT_EQ(deviation.found, 1);
  EXPECT_EQ(deviation.has_deviation, 1);
  EXPECT_GT(deviation.deviation, 0.0);

  DeviationQueryBody unknown{"nope", FgChoice()};
  ASSERT_TRUE(client.Call(MessageType::kDeviationQuery, unknown.Encode(),
                          &response, &error))
      << error;
  ASSERT_TRUE(deviation.Decode(response.payload));
  EXPECT_EQ(deviation.found, 0);
}

TEST_F(WireSocketTest, MalformedBodyAnswersErrorFrame) {
  ShardClient client(path_);
  Frame response;
  std::string error;
  // Valid frame, garbage body: the worker answers kError; the client
  // surfaces it as a failed call with the worker's message.
  EXPECT_FALSE(client.Call(MessageType::kDeviationQuery, "\x01garbage",
                           &response, &error));
  EXPECT_FALSE(error.empty());

  // The connection was poisoned by the failure; the next call transparently
  // reconnects and succeeds.
  ASSERT_TRUE(client.Call(MessageType::kPing, "", &response, &error))
      << error;
  EXPECT_EQ(response.type, MessageType::kPong);
}

TEST_F(WireSocketTest, ClientReportsServerGone) {
  ShardClient client(path_);
  Frame response;
  std::string error;
  ASSERT_TRUE(client.Call(MessageType::kPing, "", &response, &error));
  worker_->Stop();
  EXPECT_FALSE(client.Call(MessageType::kPing, "", &response, &error));
  EXPECT_FALSE(error.empty());
}

// The wire side of the shared server loop, over both Poller engines.
class WireSocketEngineTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    path_ = SocketPath(GetParam() ? "engine_poll" : "engine_native");
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    ::unlink(path_.c_str());
  }

  // Serves `options` on this test's socket; every frame is answered with
  // a kPong carrying `reply_payload` bytes.
  void StartServer(WireServerOptions options, size_t reply_payload = 0) {
    options.unix_path = path_;
    options.force_poll = GetParam();
    server_ = std::make_unique<WireServer>(
        options, [reply_payload](const Frame& request) {
          return Frame{MessageType::kPong, request.request_id,
                       std::string(reply_payload, 'p')};
        });
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  net::UniqueFd Connect() {
    std::string error;
    net::UniqueFd fd = net::ConnectUnix(path_, &error);
    EXPECT_TRUE(fd.valid()) << error;
    return fd;
  }

  // Sends `bytes`, then reads until the server closes (or 5 s pass) and
  // decodes what arrived.
  static std::vector<Frame> ExchangeUntilClose(int fd, std::string_view bytes) {
    const timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (!bytes.empty()) {
      EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(bytes.size()));
    }
    std::string received;
    char buffer[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      received.append(buffer, static_cast<size_t>(n));
    }
    EXPECT_EQ(n, 0) << "the server did not close the connection";
    std::vector<Frame> frames;
    WireDecoder decoder;
    for (WireDecoder::Status status = decoder.Consume(received);
         status == WireDecoder::Status::kComplete; status = decoder.Reset()) {
      frames.push_back(decoder.frame());
    }
    EXPECT_TRUE(decoder.idle()) << "trailing bytes after the last frame";
    return frames;
  }

  static std::string ErrorMessage(const Frame& frame) {
    EXPECT_EQ(frame.type, MessageType::kError);
    ErrorBody body;
    EXPECT_TRUE(body.Decode(frame.payload));
    return body.message;
  }

  std::string path_;
  std::unique_ptr<WireServer> server_;
};

TEST_P(WireSocketEngineTest, WorkerAnswersPingAndSubmit) {
  const data::TransactionDb reference = QuestDb(1);
  ShardWorker worker(ShardWorkerOptions{}, reference, nullptr);
  WireServerOptions options;
  options.unix_path = path_;
  options.force_poll = GetParam();
  std::string error;
  ASSERT_TRUE(worker.Serve(options, &error)) << error;

  ShardClient client(path_);
  Frame response;
  ASSERT_TRUE(client.Call(MessageType::kPing, "", &response, &error))
      << error;
  EXPECT_EQ(response.type, MessageType::kPong);
  SubmitSnapshotBody submit;
  submit.stream = "payments";
  submit.snapshot = Serialize(QuestDb(2));
  ASSERT_TRUE(client.Call(MessageType::kSubmitSnapshot, submit.Encode(),
                          &response, &error))
      << error;
  SubmitResultBody result;
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 202);
  worker.Stop();
}

TEST_P(WireSocketEngineTest, OverCapConnectionGetsOneErrorFrame) {
  WireServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  ShardClient first(path_);  // holds the one slot
  Frame response;
  std::string error;
  ASSERT_TRUE(first.Call(MessageType::kPing, "", &response, &error))
      << error;

  const net::UniqueFd second = Connect();
  const std::vector<Frame> frames = ExchangeUntilClose(second.get(), "");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(ErrorMessage(frames[0]), "connection limit reached");
  EXPECT_EQ(server_->stats().connections_refused, 1);
  EXPECT_EQ(server_->stats().connections_accepted, 1);
}

TEST_P(WireSocketEngineTest, SilentConnectionClosesAtTheReadDeadline) {
  WireServerOptions options;
  options.read_deadline_ms = 100;
  StartServer(options);
  const net::UniqueFd fd = Connect();
  // Three bytes of a nine-byte header, then silence.
  EXPECT_TRUE(
      ExchangeUntilClose(fd.get(), std::string_view("\x05\x00\x00", 3))
          .empty());
  for (int i = 0; i < 100 && server_->stats().open_connections > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->stats().deadline_closes, 1);
  EXPECT_EQ(server_->stats().open_connections, 0);
}

TEST_P(WireSocketEngineTest, BadFrameGetsOneErrorFrameAndAClose) {
  WireServerOptions options;
  options.limits.max_payload_bytes = 16;
  StartServer(options);
  const std::string oversized =
      EncodeFrame({MessageType::kPing, 1, std::string(64, 'x')});
  std::string unknown_type = EncodeFrame({MessageType::kPing, 2, ""});
  unknown_type[4] = static_cast<char>(99);  // the type byte
  for (const std::string& bytes : {oversized, unknown_type}) {
    const net::UniqueFd fd = Connect();
    const std::vector<Frame> frames = ExchangeUntilClose(fd.get(), bytes);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_FALSE(ErrorMessage(frames[0]).empty());
  }
  EXPECT_EQ(server_->stats().parse_errors, 2);
  EXPECT_EQ(server_->stats().requests_handled, 0);
}

TEST_P(WireSocketEngineTest, UnreadRepliesStopReadingUntilTheClientReads) {
  // 512 pipelined pings answered with 64 KiB each: a server that kept
  // reading would queue 32 MiB of replies for a client that takes none.
  constexpr size_t kReplyPayload = 64 << 10;
  StartServer(WireServerOptions{}, kReplyPayload);
  const net::UniqueFd fd = Connect();
  constexpr int kFrames = 512;
  std::string requests;
  for (int i = 0; i < kFrames; ++i) {
    requests += EncodeFrame({MessageType::kPing, static_cast<uint32_t>(i), ""});
  }
  tests::ExpectBackPressure(
      fd.get(), requests, kFrames,
      EncodeFrame({MessageType::kPong, 0, std::string(kReplyPayload, 'p')})
          .size(),
      [this]() { return server_->stats().requests_handled; });
}

INSTANTIATE_TEST_SUITE_P(Engines, WireSocketEngineTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "poll" : "native";
                         });

// --------------------------------------------------------- worker dispatch

TEST(ShardWorkerTest, RejectsMalformedSnapshotWithoutBurningSequence) {
  const data::TransactionDb reference = QuestDb(1);
  ShardWorker worker(ShardWorkerOptions{}, reference, nullptr);

  SubmitSnapshotBody bad;
  bad.stream = "s";
  bad.snapshot = "this is not focus-txns-v1";
  Frame response = worker.HandleFrame(
      Frame{MessageType::kSubmitSnapshot, 1, bad.Encode()});
  SubmitResultBody result;
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 400);
  EXPECT_FALSE(result.error.empty());

  SubmitSnapshotBody good;
  good.stream = "s";
  good.snapshot = Serialize(QuestDb(2));
  response = worker.HandleFrame(
      Frame{MessageType::kSubmitSnapshot, 2, good.Encode()});
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 202);
  EXPECT_EQ(result.sequence, 0);  // the 400 did not consume a sequence
  worker.Stop();
}

TEST(ShardWorkerTest, DrainingWorkerAnswers503) {
  const data::TransactionDb reference = QuestDb(1);
  ShardWorker worker(ShardWorkerOptions{}, reference, nullptr);
  worker.BeginDrain();

  SubmitSnapshotBody submit;
  submit.stream = "s";
  submit.snapshot = Serialize(QuestDb(2));
  const Frame response = worker.HandleFrame(
      Frame{MessageType::kSubmitSnapshot, 1, submit.Encode()});
  SubmitResultBody result;
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 503);
  worker.Stop();
}

// The in-process front end's path: a submit handed to HandleFrameAsync is
// admitted on an ingest thread, and one handed over after Stop answers
// 503 on the caller's thread.
TEST(ShardWorkerTest, AsyncSubmitIsAdmittedUntilStop) {
  const data::TransactionDb reference = QuestDb(1);
  ShardWorker worker(ShardWorkerOptions{}, reference, nullptr);
  SubmitSnapshotBody submit;
  submit.stream = "s";
  submit.snapshot = Serialize(QuestDb(2));
  const auto submit_async = [&](uint32_t request_id) {
    auto reply = std::make_shared<std::promise<Frame>>();
    std::future<Frame> ready = reply->get_future();
    worker.HandleFrameAsync(
        Frame{MessageType::kSubmitSnapshot, request_id, submit.Encode()},
        [reply](Frame response) { reply->set_value(std::move(response)); });
    return ready.get();
  };

  Frame response = submit_async(7);
  EXPECT_EQ(response.request_id, 7u);
  SubmitResultBody result;
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 202);
  EXPECT_EQ(result.sequence, 0);

  worker.Stop();
  response = submit_async(8);
  EXPECT_EQ(response.request_id, 8u);
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 503);
}

// A block-backed snapshot (focus_served --spool --ooc) is cached with no
// transactions, so compare and extend-regions, which extend its model by
// scanning them, answer as for a hash this worker does not hold.
TEST(ShardWorkerTest, BlockBackedSnapshotAnswersAsNotHeld) {
  const data::TransactionDb reference = QuestDb(1);
  ShardWorker worker(ShardWorkerOptions{}, reference, nullptr);
  const data::TransactionDb db = QuestDb(2);
  std::ostringstream blocks;
  data::BlockTransactionDbWriter writer(blocks, db.num_items(), 4096);
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    writer.Add(db.Transaction(t));
  }
  writer.Finish();
  data::BlockStoreOptions options;
  options.block_size = 4096;
  std::string error;
  serve::Snapshot snapshot;
  snapshot.stream = "s";
  snapshot.block_db = data::BlockTransactionDb::Open(
      std::make_unique<std::istringstream>(std::move(blocks).str()), options,
      &error);
  ASSERT_NE(snapshot.block_db, nullptr) << error;
  const serve::IngestResult ingest =
      worker.service().Ingest(std::move(snapshot), std::nullopt);
  ASSERT_EQ(ingest.status, serve::SubmitResult::kAccepted);
  worker.service().Flush();
  ASSERT_TRUE(worker.service()
                  .model_cache()
                  .LookupMined(ingest.content_hash)
                  .has_value());

  CompareBody compare;
  compare.left_hash = ingest.content_hash;
  compare.right_hash = ingest.content_hash;
  CompareResultBody compared;
  ASSERT_TRUE(compared.Decode(
      worker.HandleFrame(Frame{MessageType::kCompare, 1, compare.Encode()})
          .payload));
  EXPECT_EQ(compared.outcome, CompareOutcome::kNeither);

  ExtendRegionsBody extend;
  extend.content_hash = ingest.content_hash;
  extend.regions = {lits::Itemset{0}};
  ExtendRegionsResultBody extended;
  ASSERT_TRUE(extended.Decode(
      worker
          .HandleFrame(Frame{MessageType::kExtendRegions, 2, extend.Encode()})
          .payload));
  EXPECT_EQ(extended.found, 0);
  worker.Stop();
}

// Extend-regions takes its regions off the wire. One naming an item
// outside the snapshot's universe gets an error frame, and the worker goes
// on answering: it used to abort in the support counter's check.
TEST(ShardWorkerTest, ExtendRegionsOutsideTheUniverseAnswersAnError) {
  const data::TransactionDb reference = QuestDb(1);
  ShardWorker worker(ShardWorkerOptions{}, reference, nullptr);
  const data::TransactionDb db = QuestDb(2);
  SubmitSnapshotBody submit;
  submit.stream = "s";
  submit.snapshot = Serialize(db);
  SubmitResultBody submitted;
  ASSERT_TRUE(submitted.Decode(
      worker
          .HandleFrame(
              Frame{MessageType::kSubmitSnapshot, 1, submit.Encode()})
          .payload));
  ASSERT_EQ(submitted.status, 202) << submitted.error;
  worker.service().Flush();

  ExtendRegionsBody extend;
  extend.content_hash = submitted.content_hash;
  for (const int32_t item : {db.num_items(), 5000, -1}) {
    extend.regions = {lits::Itemset{0}, lits::Itemset{1, item}};
    const Frame response = worker.HandleFrame(
        Frame{MessageType::kExtendRegions, 2, extend.Encode()});
    ASSERT_EQ(response.type, MessageType::kError) << "item " << item;
    ErrorBody error;
    ASSERT_TRUE(error.Decode(response.payload));
    EXPECT_EQ(error.message, "region outside the item universe");
  }

  extend.regions = {lits::Itemset{0}, lits::Itemset{1, 2}};
  const Frame response = worker.HandleFrame(
      Frame{MessageType::kExtendRegions, 3, extend.Encode()});
  ASSERT_EQ(response.type, MessageType::kExtendRegionsResult);
  ExtendRegionsResultBody extended;
  ASSERT_TRUE(extended.Decode(response.payload));
  EXPECT_EQ(extended.found, 1);
  EXPECT_EQ(extended.num_transactions, db.num_transactions());
  const lits::LitsModel model = lits::Apriori(
      db, worker.service().model_cache().options());
  EXPECT_EQ(extended.supports,
            core::LitsExtendModel(extend.regions, model, db));
  worker.Stop();
}

TEST(ShardWorkerTest, ResponseEchoesRequestId) {
  const data::TransactionDb reference = QuestDb(1);
  ShardWorker worker(ShardWorkerOptions{}, reference, nullptr);
  const Frame response =
      worker.HandleFrame(Frame{MessageType::kPing, 0xCAFE, ""});
  EXPECT_EQ(response.request_id, 0xCAFEu);
  worker.Stop();
}

// ----------------------------------------------------------------- router

TEST(ShardRouterTest, RoutesIngestAndQueriesToOwningShard) {
  const data::TransactionDb reference = QuestDb(1);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<LocalShardChannel>> channels;
  std::vector<ShardChannel*> shards;
  for (uint32_t i = 0; i < 3; ++i) {
    ShardWorkerOptions options;
    options.shard_index = i;
    workers.push_back(
        std::make_unique<ShardWorker>(options, reference, nullptr));
    channels.push_back(
        std::make_unique<LocalShardChannel>(workers.back().get()));
    shards.push_back(channels.back().get());
  }
  ShardRouter router(shards);

  std::string error;
  EXPECT_TRUE(router.PingAll(&error)) << error;

  const std::string snapshot = Serialize(QuestDb(2));
  for (int i = 0; i < 6; ++i) {
    const std::string stream = "stream-" + std::to_string(i);
    SubmitResultBody result;
    ASSERT_EQ(router.Submit(stream, "test", snapshot, &result, &error),
              ShardRouter::Status::kOk)
        << error;
    EXPECT_EQ(result.status, 202);
    EXPECT_EQ(result.sequence, 0);  // every stream's first snapshot
  }
  for (auto& worker : workers) worker->service().Flush();

  for (int i = 0; i < 6; ++i) {
    const std::string stream = "stream-" + std::to_string(i);
    DeviationResultBody result;
    ASSERT_EQ(router.QueryDeviation(stream, FgChoice(), &result, &error),
              ShardRouter::Status::kOk)
        << error;
    EXPECT_EQ(result.found, 1);
    EXPECT_EQ(result.has_deviation, 1);
    // The stream landed on exactly the shard the ring names.
    const int owner = router.ShardFor(stream);
    for (int shard = 0; shard < 3; ++shard) {
      EXPECT_EQ(workers[shard]->service().GetStreamStatus(stream).has_value(),
                shard == owner);
    }
  }

  DeviationResultBody result;
  EXPECT_EQ(router.QueryDeviation("absent", FgChoice(), &result, &error),
            ShardRouter::Status::kNotFound);

  std::vector<serve::SummaryEntry> entries;
  serve::SummaryResult summary;
  ASSERT_EQ(router.Summary(FgChoice(), &entries, &summary, &error),
            ShardRouter::Status::kOk)
      << error;
  EXPECT_EQ(summary.num_streams, 6);
  EXPECT_EQ(summary.num_values, 6);
  EXPECT_TRUE(summary.has_aggregate);
  // Entries come back merged in canonical sorted order.
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].stream, entries[i].stream);
  }

  for (auto& worker : workers) worker->Stop();
}

TEST(ShardRouterTest, CompareAcrossShards) {
  const data::TransactionDb reference = QuestDb(1);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<LocalShardChannel>> channels;
  std::vector<ShardChannel*> shards;
  for (uint32_t i = 0; i < 2; ++i) {
    ShardWorkerOptions options;
    options.shard_index = i;
    workers.push_back(
        std::make_unique<ShardWorker>(options, reference, nullptr));
    channels.push_back(
        std::make_unique<LocalShardChannel>(workers.back().get()));
    shards.push_back(channels.back().get());
  }
  ShardRouter router(shards);
  std::string error;

  // Find two streams owned by different shards.
  std::string left_stream, right_stream;
  for (int i = 0; i < 100 && (left_stream.empty() || right_stream.empty());
       ++i) {
    const std::string stream = "s" + std::to_string(i);
    if (router.ShardFor(stream) == 0 && left_stream.empty()) {
      left_stream = stream;
    }
    if (router.ShardFor(stream) == 1 && right_stream.empty()) {
      right_stream = stream;
    }
  }
  ASSERT_FALSE(left_stream.empty());
  ASSERT_FALSE(right_stream.empty());

  SubmitResultBody left_submit, right_submit;
  ASSERT_EQ(router.Submit(left_stream, "t", Serialize(QuestDb(2)),
                          &left_submit, &error),
            ShardRouter::Status::kOk);
  ASSERT_EQ(router.Submit(right_stream, "t", Serialize(QuestDb(3)),
                          &right_submit, &error),
            ShardRouter::Status::kOk);
  for (auto& worker : workers) worker->service().Flush();

  // Cross-shard: the two hashes live on different workers.
  double cross = 0.0;
  std::vector<uint64_t> missing;
  ASSERT_EQ(router.Compare(left_submit.content_hash,
                           right_submit.content_hash, FgChoice(), &cross,
                           &missing, &error),
            ShardRouter::Status::kOk)
      << error;
  EXPECT_GT(cross, 0.0);

  // Self-compare of one hash: same shard holds both, deviation 0.
  double self = 1.0;
  ASSERT_EQ(router.Compare(left_submit.content_hash,
                           left_submit.content_hash, FgChoice(), &self,
                           &missing, &error),
            ShardRouter::Status::kOk)
      << error;
  EXPECT_EQ(self, 0.0);

  // Unknown hashes are reported, not 500s.
  ASSERT_EQ(router.Compare(0x1111, 0x2222, FgChoice(), &cross, &missing,
                           &error),
            ShardRouter::Status::kNotFound);
  EXPECT_EQ(missing.size(), 2u);

  // A compare frame whose (f, g) bytes name no function gets an error
  // frame from the worker.
  PayloadWriter unknown_fg;
  unknown_fg.PutU64(left_submit.content_hash);
  unknown_fg.PutU64(right_submit.content_hash);
  unknown_fg.PutU8(9);
  unknown_fg.PutU8(9);
  EXPECT_EQ(workers[0]
                ->HandleFrame(Frame{MessageType::kCompare, 1, unknown_fg.Take()})
                .type,
            MessageType::kError);

  for (auto& worker : workers) worker->Stop();
}

// A shard that holds one side of every compare at the scatter and has
// evicted it by the time the router asks for its model's regions, or, with
// `regions_found`, for its extension.
class EvictingShard : public ShardChannel {
 public:
  EvictingShard(CompareOutcome outcome, bool regions_found)
      : outcome_(outcome), regions_found_(regions_found) {}

  bool Call(MessageType type, const std::string& /*payload*/,
            Frame* response, std::string* /*error*/) override {
    switch (type) {
      case MessageType::kCompare: {
        CompareResultBody result;
        result.outcome = outcome_;
        *response = {MessageType::kCompareResult, 0, result.Encode()};
        break;
      }
      case MessageType::kModelRegions: {
        ModelRegionsResultBody result;
        result.found = regions_found_ ? 1 : 0;
        result.num_transactions = 10;
        *response = {MessageType::kModelRegionsResult, 0, result.Encode()};
        break;
      }
      default:
        *response = {MessageType::kExtendRegionsResult, 0,
                     ExtendRegionsResultBody{}.Encode()};
        break;
    }
    return true;
  }

 private:
  const CompareOutcome outcome_;
  const bool regions_found_;
};

// A hash evicted between a cross-shard compare's scatter and its later
// calls is the one the 404 names.
TEST(ShardRouterTest, CrossShardNotFoundNamesTheEvictedHash) {
  constexpr uint64_t kLeft = 0x1111, kRight = 0x2222;
  struct Case {
    bool left_regions_found;
    bool right_regions_found;
    uint64_t missing;
  };
  // Regions: the left's owner is asked first; extend: likewise, once both
  // regions were found.
  for (const Case& c : {Case{false, true, kLeft}, Case{true, false, kRight},
                        Case{true, true, kLeft}}) {
    EvictingShard left(CompareOutcome::kLeftOnly, c.left_regions_found);
    EvictingShard right(CompareOutcome::kRightOnly, c.right_regions_found);
    ShardRouter router({&left, &right});
    double deviation = 0.0;
    std::vector<uint64_t> missing;
    std::string error;
    EXPECT_EQ(router.Compare(kLeft, kRight, FgChoice(), &deviation, &missing,
                             &error),
              ShardRouter::Status::kNotFound);
    EXPECT_EQ(missing, std::vector<uint64_t>{c.missing});

    ShardedApi api(ShardedApiOptions{}, &router, nullptr);
    net::HttpRequest request;
    request.method = "POST";
    request.path = "/v1/compare";
    request.query = {{"left", serve::HashHex(kLeft)},
                     {"right", serve::HashHex(kRight)}};
    const net::HttpResponse response = api.BuildRouter().Dispatch(request);
    EXPECT_EQ(response.status, 404);
    EXPECT_NE(response.body.find(serve::HashHex(c.missing)),
              std::string::npos)
        << response.body;
  }
}

TEST(ShardRouterTest, DeadShardSurfacesAsShardDown) {
  // A client pointed at a socket nobody serves: every router operation
  // reports kShardDown rather than wedging or crashing.
  ShardClient client(SocketPath("dead"));
  std::vector<ShardChannel*> shards = {&client};
  ShardRouter router(shards);
  std::string error;
  SubmitResultBody result;
  EXPECT_EQ(router.Submit("s", "t", "snapshot", &result, &error),
            ShardRouter::Status::kShardDown);
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(router.PingAll(&error));
}

}  // namespace
}  // namespace focus::shard
