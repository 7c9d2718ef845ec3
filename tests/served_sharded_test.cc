// End-to-end test of the REAL focus_served binary in sharded mode
// (--shards 2 --reactors 2): boot it on an ephemeral loopback port with
// two forked shard workers, drive the scatter-gather HTTP API from this
// process, then deliver an actual SIGTERM and verify the full-tree drain
// — every worker reaps cleanly and the parent exits 0.

#include <csignal>
#include <sys/wait.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/timer.h"
#include "net/http_client.h"
#include "served_daemon.h"

namespace focus {
namespace {

namespace fs = std::filesystem;
using tests::Serialize;
using tests::SmallDb;

// Pulls the string value of `key` out of a flat JSON object body.
std::string JsonString(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = body.find('"', start);
  if (end == std::string::npos) return "";
  return body.substr(start, end - start);
}

class ServedShardedTest : public tests::ServedDaemonTest {
 protected:
  // Spawns the sharded daemon (2 workers, 2 reactors) and waits for
  // --port-file to announce the bound port. The port file is only written
  // after every worker answered a ping, so a successful boot already
  // proves fork + Unix-socket serve + PingAll. The daemon must create the
  // missing --shard-dir itself (same contract as --spool).
  bool StartDaemon() {
    Spawn({"--reference", reference_path_, "--port", "0", "--port-file",
           port_file_, "--shards", "2", "--reactors", "2", "--shard-dir",
           (root_ / "shards").string(), "--minsup", "0.3", "--calibration",
           "1", "--replicates", "1", "--threads", "2", "--queue", "8"});
    return WaitForPort(400);
  }
};

TEST_F(ServedShardedTest, ScatterGathersAndSigtermDrainsAllWorkers) {
  ASSERT_TRUE(StartDaemon());

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));
  const auto health = client.Get("/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"ok\""), std::string::npos);

  // Enough distinct streams that the hash ring spreads work across both
  // shards; each first snapshot must come back with a dense sequence 0.
  const std::vector<std::string> streams = {"alpha", "beta",  "gamma",
                                            "delta", "omega", "sigma"};
  std::vector<std::string> hashes;
  for (size_t s = 0; s < streams.size(); ++s) {
    const auto response = client.Post(
        "/v1/streams/" + streams[s] + "/snapshots",
        Serialize(SmallDb(10, 40, static_cast<int64_t>(s))), "text/plain");
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, 202) << response->body;
    EXPECT_NE(response->body.find("\"sequence\":0"), std::string::npos)
        << response->body;
    const std::string hash = JsonString(response->body, "content_hash");
    ASSERT_FALSE(hash.empty()) << response->body;
    hashes.push_back(hash);
  }
  ASSERT_EQ(client
                .Post("/v1/streams/alpha/snapshots",
                      Serialize(SmallDb(10, 40, 17)), "text/plain")
                ->status,
            202);

  // Every stream's deviation converges — routed to whichever worker owns
  // it on the ring.
  for (size_t s = 0; s < streams.size(); ++s) {
    const std::string want =
        streams[s] == "alpha" ? "\"processed\":2" : "\"processed\":1";
    bool processed = false;
    for (int i = 0; i < 200 && !processed; ++i) {
      const auto deviation =
          client.Get("/v1/streams/" + streams[s] + "/deviation");
      ASSERT_TRUE(deviation.has_value());
      ASSERT_EQ(deviation->status, 200) << deviation->body;
      processed = deviation->body.find(want) != std::string::npos;
      if (!processed) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    EXPECT_TRUE(processed) << streams[s];
  }

  // The summary endpoint gathers every shard's streams into one answer.
  const auto summary = client.Get("/v1/deviation/summary");
  ASSERT_TRUE(summary.has_value());
  ASSERT_EQ(summary->status, 200) << summary->body;
  for (const std::string& stream : streams) {
    EXPECT_NE(summary->body.find("\"" + stream + "\""), std::string::npos)
        << summary->body;
  }

  // Cross-shard compare: distinct snapshots give a positive deviation,
  // a snapshot against itself is exactly zero.
  const auto differ = client.Post(
      "/v1/compare", "left=" + hashes[0] + "&right=" + hashes[1],
      "application/x-www-form-urlencoded");
  ASSERT_TRUE(differ.has_value());
  ASSERT_EQ(differ->status, 200) << differ->body;
  EXPECT_NE(differ->body.find("\"deviation\":"), std::string::npos);
  const auto same = client.Post(
      "/v1/compare", "left=" + hashes[2] + "&right=" + hashes[2],
      "application/x-www-form-urlencoded");
  ASSERT_TRUE(same.has_value());
  ASSERT_EQ(same->status, 200) << same->body;
  EXPECT_NE(same->body.find("\"deviation\":0}"), std::string::npos)
      << same->body;

  // Real SIGTERM: parent drains both workers and reaps them cleanly.
  EXPECT_EQ(TerminateDaemon(), 0);

  const std::string log = ReadLog();
  EXPECT_NE(log.find("draining"), std::string::npos) << log;
  EXPECT_NE(log.find("[shard 0]: drained"), std::string::npos) << log;
  EXPECT_NE(log.find("[shard 1]: drained"), std::string::npos) << log;
  EXPECT_NE(log.find("2 workers clean"), std::string::npos) << log;
}

TEST_F(ServedShardedTest, SigtermFinishesAcceptedWorkAcrossShards) {
  ASSERT_TRUE(StartDaemon());
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));

  // Accept work on several ring positions, then SIGTERM straight away:
  // the drain contract is that every 202 is processed before the workers
  // exit, and both workers still report a clean drain.
  int accepted = 0;
  const std::vector<std::string> streams = {"burst-a", "burst-b", "burst-c",
                                            "burst-d"};
  for (size_t s = 0; s < streams.size(); ++s) {
    const auto response = client.Post(
        "/v1/streams/" + streams[s] + "/snapshots",
        Serialize(SmallDb(10, 50, 20 + static_cast<int64_t>(s))),
        "text/plain");
    ASSERT_TRUE(response.has_value());
    if (response->status == 202) ++accepted;
  }
  ASSERT_GT(accepted, 0);
  EXPECT_EQ(TerminateDaemon(), 0);

  const std::string log = ReadLog();
  EXPECT_NE(log.find("2 workers clean"), std::string::npos) << log;
  // Per-worker drain lines carry the processed counts; summed they must
  // equal every accepted snapshot.
  int processed = 0;
  size_t at = 0;
  while ((at = log.find("]: drained; ", at)) != std::string::npos) {
    at += std::string("]: drained; ").size();
    processed += std::stoi(log.substr(at));
  }
  EXPECT_EQ(processed, accepted) << log;
}

// Forked workers keep no event log, so --events with --shards >= 1 is a
// usage error up front instead of a flag that silently writes nothing.
TEST_F(ServedShardedTest, EventsFlagIsAUsageError) {
  Spawn({"--reference", reference_path_, "--port", "0", "--port-file",
         port_file_, "--shards", "2", "--shard-dir",
         (root_ / "shards").string(), "--events",
         (root_ / "events.jsonl").string()});
  int status = 0;
  ASSERT_EQ(waitpid(pid_, &status, 0), pid_);
  pid_ = -1;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1) << ReadLog();
  EXPECT_NE(ReadLog().find("--events"), std::string::npos) << ReadLog();
  EXPECT_FALSE(fs::exists(port_file_));
  EXPECT_FALSE(fs::exists(root_ / "shards"));
}

// An out-of-range service flag is a usage error before the reference is
// read. Without the check, --warmup 1 binds and aborts on the first POST,
// and --replicates 0 on the first snapshot that passes the delta* screen.
TEST_F(ServedShardedTest, OutOfRangeServiceFlagIsAUsageError) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"--warmup", "1"}, {"--replicates", "0"}};
  for (const auto& [flag, value] : cases) {
    Spawn({"--reference", reference_path_, "--port", "0", "--port-file",
           port_file_, flag, value});
    // A daemon that took the flag keeps serving; TearDown kills it.
    int status = 0;
    ASSERT_TRUE(WaitForExit(10'000, &status))
        << flag << " " << value << " was accepted";
    ASSERT_TRUE(WIFEXITED(status)) << ReadLog();
    EXPECT_EQ(WEXITSTATUS(status), 1) << ReadLog();
    EXPECT_NE(ReadLog().find(flag), std::string::npos) << ReadLog();
    EXPECT_FALSE(fs::exists(port_file_)) << flag;
  }
}

// A worker that exits during start-up fails the daemon at once: the front
// end notices the exit instead of pinging until a timeout. The worker
// cannot bind because shard-0.sock's path overflows sun_path.
TEST_F(ServedShardedTest, WorkerThatCannotBindFailsStartupFast) {
  const fs::path shard_dir = root_ / std::string(120, 'd');
  const common::Timer timer;
  Spawn({"--reference", reference_path_, "--port", "0", "--port-file",
         port_file_, "--shards", "2", "--shard-dir", shard_dir.string(),
         "--minsup", "0.3", "--calibration", "1", "--replicates", "1",
         "--threads", "1"});
  int status = 0;
  ASSERT_EQ(waitpid(pid_, &status, 0), pid_);
  pid_ = -1;
  const double seconds = timer.Seconds();
  ASSERT_TRUE(WIFEXITED(status)) << ReadLog();
  EXPECT_EQ(WEXITSTATUS(status), 2) << ReadLog();
  EXPECT_LT(seconds, 5.0) << ReadLog();
  EXPECT_NE(ReadLog().find("cannot listen"), std::string::npos) << ReadLog();
  EXPECT_NE(ReadLog().find("not up"), std::string::npos) << ReadLog();
  EXPECT_FALSE(fs::exists(port_file_));
  EXPECT_FALSE(fs::exists(shard_dir));  // created by the daemon, removed
}

// A signal during start-up ends the daemon at once: the front end stops
// waiting for the worker, stops and reaps it, writes no --port-file and
// dies of the signal. Calibrating this reference a million times takes
// the worker minutes (in bounded memory: the reference has 10 items), and
// SIGTERM comes half a second in.
TEST_F(ServedShardedTest, SigtermDuringCalibrationEndsStartup) {
  const fs::path shard_dir = root_ / "shards";
  Spawn({"--reference", reference_path_, "--port", "0", "--port-file",
         port_file_, "--shards", "1", "--shard-dir", shard_dir.string(),
         "--calibration", "1000000", "--threads", "1"});
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_EQ(kill(pid_, SIGTERM), 0);
  const pid_t group = pid_;
  int status = 0;
  ASSERT_TRUE(WaitForExit(5000, &status)) << "still running 5 s after SIGTERM";
  ASSERT_TRUE(WIFSIGNALED(status)) << ReadLog();
  EXPECT_EQ(WTERMSIG(status), SIGTERM);
  EXPECT_FALSE(fs::exists(port_file_));
  EXPECT_EQ(ReadLog().find("listening"), std::string::npos) << ReadLog();
  EXPECT_EQ(kill(-group, 0), -1) << "a shard worker is left";
  EXPECT_FALSE(fs::exists(shard_dir));  // created by the daemon, removed
}

}  // namespace
}  // namespace focus
