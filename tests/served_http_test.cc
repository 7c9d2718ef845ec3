// End-to-end test of the REAL focus_served binary (compiled path in
// FOCUS_SERVED_PATH): boot it on an ephemeral loopback port, drive the
// HTTP API from this process, then deliver an actual SIGTERM and verify
// the graceful drain — accepted work finishes, the process exits 0.

#include <csignal>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/http_client.h"
#include "served_daemon.h"

namespace focus {
namespace {

namespace fs = std::filesystem;
using tests::Serialize;
using tests::SmallDb;

class ServedHttpTest : public tests::ServedDaemonTest {
 protected:
  // Spawns the daemon (plus `extra_args`) and waits for --port-file to
  // announce the bound port. Returns false (failing the test) on a boot
  // timeout.
  bool StartDaemon(const std::vector<std::string>& extra_args = {}) {
    std::vector<std::string> args = {
        "--reference", reference_path_, "--port", "0", "--port-file",
        port_file_, "--calibration", "1", "--replicates", "1", "--threads",
        "2", "--queue", "8"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    Spawn(args);
    return WaitForPort(200);
  }
};

TEST_F(ServedHttpTest, ServesIngestAndDrainsOnSigterm) {
  ASSERT_TRUE(StartDaemon());

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));
  const auto health = client.Get("/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"ok\""), std::string::npos);

  // Ingest a few snapshots across two streams, then read state back.
  for (int i = 0; i < 3; ++i) {
    const auto response = client.Post(
        "/v1/streams/alpha/snapshots", Serialize(SmallDb(10, 40, i)),
        "text/plain");
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, 202) << response->body;
  }
  ASSERT_EQ(client
                .Post("/v1/streams/beta/snapshots",
                      Serialize(SmallDb(10, 40, 9)), "text/plain")
                ->status,
            202);

  // The deviation endpoint converges once the snapshots are processed.
  bool processed = false;
  for (int i = 0; i < 200 && !processed; ++i) {
    const auto deviation = client.Get("/v1/streams/alpha/deviation");
    ASSERT_TRUE(deviation.has_value());
    ASSERT_EQ(deviation->status, 200);
    processed =
        deviation->body.find("\"processed\":3") != std::string::npos;
    if (!processed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  EXPECT_TRUE(processed);

  const auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->body.find("focus_snapshots_submitted_total 4"),
            std::string::npos)
      << metrics->body;

  // Real SIGTERM: the daemon must drain and exit 0 on its own.
  EXPECT_EQ(TerminateDaemon(), 0);

  // Its stdout records the drain and the final counts.
  const std::string log = ReadLog();
  EXPECT_NE(log.find("draining"), std::string::npos) << log;
  EXPECT_NE(log.find("4 snapshots processed"), std::string::npos) << log;
}

TEST_F(ServedHttpTest, SigtermFinishesQueuedSnapshotsBeforeExit) {
  ASSERT_TRUE(StartDaemon());
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));

  // Queue several distinct (cache-missing) snapshots and SIGTERM straight
  // away: the drain contract is that everything answered 202 is still
  // processed before exit.
  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    const auto response = client.Post(
        "/v1/streams/burst/snapshots", Serialize(SmallDb(10, 50, 20 + i)),
        "text/plain");
    ASSERT_TRUE(response.has_value());
    if (response->status == 202) ++accepted;
  }
  ASSERT_GT(accepted, 0);
  EXPECT_EQ(TerminateDaemon(), 0);

  const std::string log = ReadLog();
  EXPECT_NE(log.find(std::to_string(accepted) + " snapshots processed"),
            std::string::npos)
      << log;
}

// Single-node with two reactors: both SO_REUSEPORT event loops forward
// into the one in-process worker, so concurrent connections posting to
// one stream still get a dense 0..n-1 numbering, every post is accepted,
// and SIGTERM drains all of it.
TEST_F(ServedHttpTest, ReactorsShareOneWorkerWithDenseSequences) {
  ASSERT_TRUE(StartDaemon({"--shards", "0", "--reactors", "2",
                           "--ingest-wait-ms", "5000"}));
  constexpr int kConnections = 4;
  constexpr int kPerConnection = 5;
  std::vector<std::vector<int>> sequences(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c]() {
      net::HttpClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port_));
      for (int i = 0; i < kPerConnection; ++i) {
        const auto response = client.Post(
            "/v1/streams/shared/snapshots",
            Serialize(SmallDb(10, 40, c * kPerConnection + i)),
            "text/plain");
        ASSERT_TRUE(response.has_value());
        ASSERT_EQ(response->status, 202) << response->body;
        const std::string key = "\"sequence\":";
        const size_t at = response->body.find(key);
        ASSERT_NE(at, std::string::npos) << response->body;
        sequences[c].push_back(
            std::stoi(response->body.substr(at + key.size())));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<int> all;
  for (const std::vector<int>& seen : sequences) {
    all.insert(all.end(), seen.begin(), seen.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<int> dense(kConnections * kPerConnection);
  std::iota(dense.begin(), dense.end(), 0);
  EXPECT_EQ(all, dense);

  EXPECT_EQ(TerminateDaemon(), 0);
  const std::string log = ReadLog();
  EXPECT_NE(log.find("x 2 reactors"), std::string::npos) << log;
  EXPECT_NE(log.find(std::to_string(kConnections * kPerConnection) +
                     " snapshots processed"),
            std::string::npos)
      << log;
}

// While a POST waits out --ingest-wait-ms for the one in-flight slot, the
// reactor that took it keeps serving: /healthz on another connection
// answers at once, and the held POST still gets its 429 only after the
// wait. A drifted 2000-row snapshot keeps the slot busy: its stage 2 runs
// 10000 bootstrap replicates on the one pool thread, for seconds.
TEST_F(ServedHttpTest, HealthzAnswersWhileAnIngestIsHeld) {
  Spawn({"--reference", reference_path_, "--port", "0", "--port-file",
         port_file_, "--calibration", "1", "--replicates", "10000",
         "--threads", "1", "--queue", "1", "--ingest-wait-ms", "2000"});
  ASSERT_TRUE(WaitForPort(200));
  data::TransactionDb drifted(10);
  for (int t = 0; t < 2000; ++t) {
    drifted.AddTransaction(t % 2 == 0 ? std::vector<int32_t>{0, 1, 2}
                                      : std::vector<int32_t>{0, 1});
  }
  net::HttpClient busy;
  ASSERT_TRUE(busy.Connect("127.0.0.1", port_));
  const auto accepted = busy.Post("/v1/streams/drifted/snapshots",
                                  Serialize(drifted), "text/plain");
  ASSERT_TRUE(accepted.has_value());
  ASSERT_EQ(accepted->status, 202) << accepted->body;

  std::optional<net::HttpClientResponse> held_response;
  double held_ms = 0.0;
  std::thread held([&]() {
    net::HttpClient client(/*timeout_ms=*/30'000);
    ASSERT_TRUE(client.Connect("127.0.0.1", port_));
    const auto start = std::chrono::steady_clock::now();
    held_response = client.Post("/v1/streams/held/snapshots",
                                Serialize(SmallDb(10, 40, 5)), "text/plain");
    held_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  net::HttpClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", port_));
  const auto start = std::chrono::steady_clock::now();
  const auto health = probe.Get("/healthz");
  const double health_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  held.join();
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_LT(health_ms, 1000.0) << "/healthz waited behind the held ingest";
  ASSERT_TRUE(held_response.has_value());
  EXPECT_EQ(held_response->status, 429) << held_response->body;
  EXPECT_GE(held_ms, 1950.0) << "the 429 came before the wait ran out";
}

// A --port outside [0, 65535] and a --max-connections below --reactors are
// usage errors before the reference is read. Without the checks, --port
// 65536 wraps to an ephemeral port and --max-connections 1 --reactors 2
// leaves each reactor 0 slots, so every request answers 503.
TEST_F(ServedHttpTest, OutOfRangePortAndConnectionCapAreUsageErrors) {
  const std::vector<std::vector<std::string>> cases = {
      {"--port", "65536"},
      {"--port", "-1"},
      {"--max-connections", "1", "--reactors", "2", "--port", "0"},
      // Int flags that used to wrap: --shards 4294967296 served with 0
      // shards, --reactors 4294967297 with 1 reactor, and a
      // --read-deadline-ms of 4294967596 closed silent connections after
      // 0.3 s. A deadline of 0 or less would turn the guard off.
      {"--shards", "4294967296", "--port", "0"},
      {"--shards", "-1", "--port", "0"},
      {"--reactors", "4294967297", "--port", "0"},
      {"--reactors", "0", "--port", "0"},
      {"--read-deadline-ms", "4294967596", "--port", "0"},
      {"--read-deadline-ms", "0", "--port", "0"},
      {"--read-deadline-ms", "-5", "--port", "0"},
      {"--ingest-wait-ms", "4294967296", "--port", "0"},
      {"--ingest-wait-ms", "-1", "--port", "0"},
      // Numbers with anything after them: atoll read "10s" as 10 and
      // "0x" as 0, atof "0.05zz" as 0.05, and "abc" as 0.
      {"--read-deadline-ms", "10s", "--port", "0"},
      {"--shards", "abc", "--port", "0"},
      {"--threads", "4x", "--port", "0"},
      {"--slack", "abc", "--port", "0"},
      {"--minsup", "0.05zz", "--port", "0"},
      {"--port", "0x"}};
  for (const std::vector<std::string>& flags : cases) {
    std::vector<std::string> args = {"--reference", reference_path_,
                                     "--port-file", port_file_};
    args.insert(args.end(), flags.begin(), flags.end());
    Spawn(args);
    // A daemon that took the flags keeps serving; TearDown kills it.
    int status = 0;
    ASSERT_TRUE(WaitForExit(10'000, &status))
        << flags[0] << " " << flags[1] << " was accepted";
    const std::string log = ReadLog();
    ASSERT_TRUE(WIFEXITED(status)) << log;
    EXPECT_EQ(WEXITSTATUS(status), 1) << log;
    EXPECT_NE(log.find(flags[0]), std::string::npos) << log;
    EXPECT_FALSE(fs::exists(port_file_)) << flags[0];
  }
}

// A signal during start-up ends the daemon at once. Calibrating this
// reference a million times takes minutes (in bounded memory: the
// reference has 10 items), and SIGTERM comes half a second in, while the
// in-process worker calibrates. The daemon must die of the signal within
// seconds, without writing --port-file.
TEST_F(ServedHttpTest, SigtermDuringCalibrationEndsStartup) {
  Spawn({"--reference", reference_path_, "--port", "0", "--port-file",
         port_file_, "--calibration", "1000000", "--threads", "1"});
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_EQ(kill(pid_, SIGTERM), 0);
  const pid_t group = pid_;
  int status = 0;
  ASSERT_TRUE(WaitForExit(5000, &status)) << "still running 5 s after SIGTERM";
  const std::string log = ReadLog();
  ASSERT_TRUE(WIFSIGNALED(status)) << log;
  EXPECT_EQ(WTERMSIG(status), SIGTERM);
  EXPECT_FALSE(fs::exists(port_file_));
  EXPECT_EQ(log.find("listening"), std::string::npos) << log;
  EXPECT_EQ(kill(-group, 0), -1) << "a process of the daemon is left";
}

}  // namespace
}  // namespace focus
