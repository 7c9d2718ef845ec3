// End-to-end coverage of focus_served --spool: the REAL daemon binary
// (compiled path in FOCUS_SERVED_PATH) is run over a spool seeded with
// malformed snapshot fixtures, and every fixture must be quarantined in
// <spool>/rejected/ EXACTLY once with a reason logged to stderr, while
// well-formed snapshots flow to <spool>/processed/. The same holds under
// --ooc 1, which must also emit the same events as flat ingest. A spool
// run ends through the daemon's drain, and its streams answer over HTTP.

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/transaction_db.h"
#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "net/http_client.h"
#include "served_daemon.h"

namespace focus {
namespace {

namespace fs = std::filesystem;

// Malformed spool fixtures and the reason each must be rejected with: the
// loader's, or the service's for a file that loads but cannot be screened.
// Kept in one table so the test both writes the fixtures and checks the
// logged reasons.
struct MalformedFixture {
  const char* name;            // spool filename
  const char* content;         // raw file bytes
  const char* reason_substring;  // must appear in the stderr log line
  bool loads = false;          // the service refuses it, not the loader
};

const MalformedFixture kMalformed[] = {
    {"s1__000_badmagic.txns", "focus-txns-v9\n3 1\n0 1\n", "bad magic"},
    {"s1__001_badheader.txns", "focus-txns-v1\nthree 1\n0\n",
     "unparseable header counts"},
    {"s1__002_negitems.txns", "focus-txns-v1\n-2 1\n0\n",
     "header counts out of range"},
    {"s1__003_truncated.txns", "focus-txns-v1\n3 5\n0 1\n",
     "truncated: missing transaction"},
    {"s1__004_outofrange.txns", "focus-txns-v1\n3 1\n0 99\n",
     "item id out of range"},
    {"s1__005_garbage.txns", "focus-txns-v1\n3 1\n0 zebra\n",
     "non-numeric token"},
    {"s1__006_trailing.txns", "focus-txns-v1\n3 1\n0 1\n2\n",
     "trailing content"},
    {"s1__007_empty.txns", "", "empty file"},
    // Loadable, but the service cannot screen them against the 8-item
    // reference: mining needs a transaction, and stage 2 pools both
    // datasets over one item universe.
    {"s1__008_notxns.txns", "focus-txns-v1\n8 0\n",
     "snapshot has no transactions", /*loads=*/true},
    {"s1__009_universe.txns", "focus-txns-v1\n9 3\n0\n0\n0\n",
     "snapshot declares 9 items; the reference has 8", /*loads=*/true},
};

std::string Slurp(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

data::TransactionDb SmallDb(int32_t num_items, int64_t transactions) {
  data::TransactionDb db(num_items);
  std::vector<int32_t> items;
  for (int64_t t = 0; t < transactions; ++t) {
    items.clear();
    for (int32_t i = 0; i < num_items; ++i) {
      if ((t + i) % 2 == 0) items.push_back(i);
    }
    db.AddTransaction(items);
  }
  return db;
}

// focus_served --spool, end to end. The suite is named for the spool
// monitoring daemon, and the name stays stable so the case ids do.
class MonitordSpoolTest : public tests::ServedDaemonTest {
 protected:
  void SetUp() override {
    tests::ServedDaemonTest::SetUp();
    fs::create_directories(root_ / "spool");
    ASSERT_TRUE(io::SaveTransactionDbToFile(SmallDb(8, 40), reference_path_));
  }

  // Runs focus_served --port 0 with `args`, to its exit; returns its
  // std::system status and fills the captured stderr text.
  int RunServed(std::string* captured_stderr, const std::string& args) {
    const fs::path err_file = root_ / "stderr.txt";
    const fs::path out_file = root_ / "stdout.txt";
    const std::string cmd = std::string(FOCUS_SERVED_PATH) + " --port 0 " +
                            args + " > " + out_file.string() + " 2> " +
                            err_file.string();
    const int status = std::system(cmd.c_str());
    *captured_stderr = Slurp(err_file);
    return status;
  }

  // Runs the daemon over <root>/`spool` with `flags` after --spool and
  // --reference.
  int Run(std::string* captured_stderr, const std::string& flags,
          const std::string& spool = "spool") {
    return RunServed(captured_stderr, "--spool " + (root_ / spool).string() +
                                          " --reference " + reference_path_ +
                                          " " + flags);
  }

  // Runs the daemon once over <root>/`spool`, adding `extra_flags`.
  int RunOnce(std::string* captured_stderr, const std::string& extra_flags = "",
              const std::string& spool = "spool") {
    return Run(captured_stderr,
               "--once 1 --threads 2 --queue 8 --replicates 1 "
               "--calibration 1 --warmup 2 " +
                   extra_flags,
               spool);
  }

  void WriteSpoolFile(const std::string& name, const std::string& content,
                      const std::string& spool = "spool") {
    fs::create_directories(root_ / spool);
    std::ofstream out(root_ / spool / name);
    out << content;
  }

  std::vector<std::string> FilesIn(const std::string& subdir) {
    std::vector<std::string> names;
    const fs::path dir = root_ / "spool" / subdir;
    if (!fs::exists(dir)) return names;
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  }

  // Seeds the spool with every malformed fixture plus two good snapshots,
  // runs the daemon with `extra_flags`, and checks each fixture was
  // quarantined exactly once with its loader reason.
  void ExpectEveryMalformedFixtureRejectedOnce(const std::string& extra_flags);

  // The event log's lines, in order.
  std::vector<std::string> EventLines() {
    std::vector<std::string> lines;
    std::istringstream in(Slurp(root_ / "spool" / "events.jsonl"));
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }
};

void MonitordSpoolTest::ExpectEveryMalformedFixtureRejectedOnce(
    const std::string& extra_flags) {
  for (const MalformedFixture& fixture : kMalformed) {
    WriteSpoolFile(fixture.name, fixture.content);
  }
  // Two well-formed snapshots mixed in; they must NOT be rejected.
  std::stringstream good;
  io::SaveTransactionDb(SmallDb(8, 30), good);
  WriteSpoolFile("s1__100_good.txns", good.str());
  WriteSpoolFile("s2__000_good.txns", good.str());

  std::string log;
  ASSERT_EQ(RunOnce(&log, extra_flags), 0) << log;

  // Exactly the malformed fixtures land in rejected/, each exactly once.
  std::map<std::string, int> rejected;
  for (const std::string& name : FilesIn("rejected")) ++rejected[name];
  EXPECT_EQ(rejected.size(), std::size(kMalformed));
  for (const MalformedFixture& fixture : kMalformed) {
    EXPECT_EQ(rejected[fixture.name], 1) << fixture.name;
    // The daemon logged the reason next to the filename.
    const size_t at = log.find(std::string("rejected malformed snapshot ") +
                               fixture.name + ": ");
    ASSERT_NE(at, std::string::npos) << fixture.name << "\nlog:\n" << log;
    const std::string line = log.substr(at, log.find('\n', at) - at);
    EXPECT_NE(line.find(fixture.reason_substring), std::string::npos)
        << "expected reason '" << fixture.reason_substring << "' in: " << line;
  }

  // The good snapshots were consumed, not quarantined.
  std::map<std::string, int> processed;
  for (const std::string& name : FilesIn("processed")) ++processed[name];
  EXPECT_EQ(processed["s1__100_good.txns"], 1);
  EXPECT_EQ(processed["s2__000_good.txns"], 1);

  // Nothing is left behind in the spool root, --ooc block files included.
  for (const auto& entry : fs::directory_iterator(root_ / "spool")) {
    if (entry.is_regular_file()) {
      EXPECT_NE(entry.path().extension(), ".txns")
          << entry.path() << " left unconsumed";
      EXPECT_NE(entry.path().extension(), ".fblk")
          << entry.path() << " left behind";
    }
  }

  // The metrics log counted every rejection.
  const std::string metrics = Slurp(root_ / "spool" / "metrics.jsonl");
  EXPECT_NE(metrics.find("\"spool_rejected_files\":" +
                         std::to_string(std::size(kMalformed))),
            std::string::npos)
      << metrics;
}

TEST_F(MonitordSpoolTest, EveryMalformedFixtureRejectedOnceWithReason) {
  ExpectEveryMalformedFixtureRejectedOnce("");
}

TEST_F(MonitordSpoolTest, OocRejectsEveryMalformedFixtureOnceWithReason) {
  ExpectEveryMalformedFixtureRejectedOnce("--ooc 1");
}

TEST_F(MonitordSpoolTest, RerunDoesNotDoubleCountRejections) {
  WriteSpoolFile(kMalformed[0].name, kMalformed[0].content);
  std::string log;
  ASSERT_EQ(RunOnce(&log), 0) << log;
  ASSERT_EQ(FilesIn("rejected").size(), 1u);

  // A second scan of the (now empty) spool must not re-reject or move
  // anything — quarantine is idempotent across restarts.
  std::string second_log;
  ASSERT_EQ(RunOnce(&second_log), 0) << second_log;
  EXPECT_EQ(FilesIn("rejected").size(), 1u);
  EXPECT_EQ(second_log.find("rejected malformed snapshot"),
            std::string::npos);
}

// The event log of one run, one line per event with its `latency_ms`
// field cut out, sorted so the two streams' interleaving does not matter.
std::vector<std::string> EventsWithoutLatency(const fs::path& path) {
  std::vector<std::string> events;
  std::istringstream lines(Slurp(path));
  for (std::string line; std::getline(lines, line);) {
    const size_t at = line.find(",\"latency_ms\":");
    if (at != std::string::npos) line.erase(at, line.find('}', at) - at);
    events.push_back(line);
  }
  std::sort(events.begin(), events.end());
  return events;
}

TEST_F(MonitordSpoolTest, OocIngestEmitsTheSameEventsAsFlat) {
  datagen::QuestParams params;
  params.avg_transaction_length = 10;
  params.num_items = 100;
  params.num_patterns = 300;
  params.pattern_seed = 99;
  params.num_transactions = 2000;
  params.seed = 1000;
  ASSERT_TRUE(io::SaveTransactionDbToFile(datagen::GenerateQuest(params),
                                          reference_path_));

  // Two streams of same-process snapshots, each ending on one from a
  // drifted process, so stage 2 runs (on blocks, under --ooc). One spool
  // per run, with identical files.
  params.num_transactions = 1500;
  for (int i = 0; i < 7; ++i) {
    params.seed = 2000 + i;
    params.pattern_seed = i == 3 || i == 6 ? 7 : 99;
    std::stringstream bytes;
    io::SaveTransactionDb(datagen::GenerateQuest(params), bytes);
    const std::string name =
        (i < 4 ? "a__" : "b__") + std::to_string(100 + i) + ".txns";
    WriteSpoolFile(name, bytes.str(), "flat");
    WriteSpoolFile(name, bytes.str(), "ooc");
  }

  const std::string flags = "--minsup 0.02 --factor 1.5";
  std::string log;
  ASSERT_EQ(RunOnce(&log, flags, "flat"), 0) << log;
  // 4 KiB blocks: each ~16 KB snapshot spans about four.
  ASSERT_EQ(RunOnce(&log, flags + " --ooc 1 --block-size-kib 4", "ooc"), 0)
      << log;

  const std::vector<std::string> flat =
      EventsWithoutLatency(root_ / "flat" / "events.jsonl");
  const std::vector<std::string> ooc =
      EventsWithoutLatency(root_ / "ooc" / "events.jsonl");
  ASSERT_EQ(flat.size(), 7u);
  EXPECT_EQ(ooc, flat);
  EXPECT_TRUE(std::any_of(ooc.begin(), ooc.end(), [](const std::string& e) {
    return e.find("\"screened_out\":false") != std::string::npos;
  }));

  for (const auto& entry : fs::recursive_directory_iterator(root_ / "ooc")) {
    EXPECT_NE(entry.path().extension(), ".fblk") << entry.path();
  }
}

TEST_F(MonitordSpoolTest, OutOfRangeBlockSizeIsAUsageError) {
  std::stringstream good;
  io::SaveTransactionDb(SmallDb(8, 30), good);
  WriteSpoolFile("s1__000_good.txns", good.str());
  for (const char* value : {"0", "9007199254740992", "4x"}) {
    std::string log;
    const int status =
        RunOnce(&log, std::string("--ooc 1 --block-size-kib ") + value);
    ASSERT_TRUE(WIFEXITED(status)) << value << ": " << log;
    EXPECT_EQ(WEXITSTATUS(status), 1) << value << ": " << log;
    EXPECT_NE(log.find("--block-size-kib must be an integer in [1, 2097151]"),
              std::string::npos)
        << log;
    // The usage error comes before any spool work.
    EXPECT_TRUE(fs::exists(root_ / "spool" / "s1__000_good.txns")) << value;
  }
}

TEST_F(MonitordSpoolTest, NumericFlagWithTrailingGarbageIsAUsageError) {
  std::stringstream good;
  io::SaveTransactionDb(SmallDb(8, 30), good);
  WriteSpoolFile("s1__000_good.txns", good.str());
  const std::pair<const char*, const char*> rows[] = {
      {"--once 1x", "--once must be an integer in [0, 1], got 1x"},
      {"--once 1 --poll-ms 10s",
       "--poll-ms must be an integer in [1, 2147483647], got 10s"},
      {"--once 1 --idle-exit-ms 1000x",
       "--idle-exit-ms must be an integer in [0, 2147483647], got 1000x"},
  };
  for (const auto& [flags, message] : rows) {
    std::string log;
    const int status = Run(&log, flags);
    ASSERT_TRUE(WIFEXITED(status)) << flags << ": " << log;
    EXPECT_EQ(WEXITSTATUS(status), 1) << flags << ": " << log;
    EXPECT_EQ(log, std::string(message) + "\n") << flags;
    // The usage error comes before any spool work.
    EXPECT_TRUE(fs::exists(root_ / "spool" / "s1__000_good.txns")) << flags;
  }
}

// A spool file's stream part must be a stream name HTTP can address, or
// the file is quarantined like a malformed one: "__x" would feed the
// stream "" and "a b__1" the stream "a b".
TEST_F(MonitordSpoolTest, InvalidStreamNameRejectedOnceWithReason) {
  std::stringstream good;
  io::SaveTransactionDb(SmallDb(8, 30), good);
  for (const char* name : {"__x.txns", "a b__1.txns", "ok__000.txns"}) {
    WriteSpoolFile(name, good.str());
  }
  std::string log;
  ASSERT_EQ(RunOnce(&log), 0) << log;
  std::vector<std::string> rejected = FilesIn("rejected");
  std::sort(rejected.begin(), rejected.end());
  EXPECT_EQ(rejected, (std::vector<std::string>{"__x.txns", "a b__1.txns"}));
  EXPECT_EQ(FilesIn("processed"), std::vector<std::string>{"ok__000.txns"});
  for (const char* name : {"__x.txns", "a b__1.txns"}) {
    EXPECT_NE(log.find(std::string("rejected malformed snapshot ") + name +
                       ": invalid stream name\n"),
              std::string::npos)
        << log;
  }

  std::string second_log;
  ASSERT_EQ(RunOnce(&second_log), 0) << second_log;
  EXPECT_EQ(FilesIn("rejected").size(), 2u);
  EXPECT_EQ(second_log.find("rejected malformed snapshot"), std::string::npos);
}

// --spool feeds the in-process worker, so --shards 2 cannot take it, and a
// spool flag without --spool has nothing to act on. Both are usage errors
// reported before the reference is read (it does not exist here).
TEST_F(MonitordSpoolTest, SpoolWithShardsOrSpoolFlagWithoutSpoolIsUsageError) {
  const std::string missing = (root_ / "missing.txns").string();
  const std::pair<std::string, const char*> rows[] = {
      {"--spool " + (root_ / "spool").string() + " --shards 2",
       "--spool needs --shards 0: it feeds the in-process worker"},
      {"--once 1", "--once needs --spool"},
  };
  for (const auto& [flags, message] : rows) {
    std::string log;
    const int status = RunServed(&log, "--reference " + missing + " " + flags);
    ASSERT_TRUE(WIFEXITED(status)) << flags << ": " << log;
    EXPECT_EQ(WEXITSTATUS(status), 1) << flags << ": " << log;
    EXPECT_EQ(log, std::string(message) + "\n") << flags;
  }
}

// A SIGTERM during a spool run ends it through the daemon's drain: exit 0,
// and every file the scanner moved to processed/ has exactly one event
// line. Every snapshot here passes the delta* screen and runs 40 bootstrap
// replicates on one thread, so the signal lands while accepted snapshots
// still wait to be processed.
TEST_F(MonitordSpoolTest, SigtermProcessesEveryAcceptedFileBeforeExit) {
  datagen::QuestParams params;
  params.avg_transaction_length = 10;
  params.num_items = 100;
  params.num_patterns = 300;
  params.pattern_seed = 99;
  params.num_transactions = 2000;
  params.seed = 1000;
  ASSERT_TRUE(io::SaveTransactionDbToFile(datagen::GenerateQuest(params),
                                          reference_path_));
  constexpr int kFiles = 12;
  params.pattern_seed = 7;  // a drifted process
  for (int i = 0; i < kFiles; ++i) {
    params.seed = 3000 + i;
    std::stringstream bytes;
    io::SaveTransactionDb(datagen::GenerateQuest(params), bytes);
    WriteSpoolFile("drift__" + std::to_string(100 + i) + ".txns",
                   bytes.str());
  }

  Spawn({"--spool", (root_ / "spool").string(), "--reference",
         reference_path_, "--port", "0", "--port-file", port_file_,
         "--minsup", "0.02", "--factor", "1.5", "--calibration", "1",
         "--replicates", "40", "--threads", "1", "--poll-ms", "20"});
  ASSERT_TRUE(WaitForPort(400));
  for (int i = 0; i < 500 && FilesIn("processed").size() < kFiles; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(FilesIn("processed").size(), static_cast<size_t>(kFiles));
  const size_t events_at_signal = EventLines().size();
  EXPECT_EQ(TerminateDaemon(), 0) << ReadLog();

  EXPECT_LT(events_at_signal, static_cast<size_t>(kFiles));
  const std::vector<std::string> events = EventLines();
  EXPECT_EQ(events.size(), static_cast<size_t>(kFiles));
  for (const std::string& name : FilesIn("processed")) {
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [&](const std::string& event) {
                              return event.find("\"source\":\"" + name +
                                                "\"") != std::string::npos;
                            }),
              1)
        << name;
  }
  EXPECT_NE(ReadLog().find(std::to_string(kFiles) + " snapshots processed, " +
                           std::to_string(kFiles) + " from the spool"),
            std::string::npos)
      << ReadLog();
}

// A spool-fed stream is a queryable record over HTTP like a POST-fed one.
TEST_F(MonitordSpoolTest, ServesTheDeviationOfASpoolFedStream) {
  std::stringstream good;
  io::SaveTransactionDb(SmallDb(8, 30), good);
  WriteSpoolFile("s1__000.txns", good.str());
  Spawn({"--spool", (root_ / "spool").string(), "--reference",
         reference_path_, "--port", "0", "--port-file", port_file_,
         "--calibration", "1", "--replicates", "1", "--threads", "2",
         "--poll-ms", "20"});
  ASSERT_TRUE(WaitForPort(400));
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));
  std::string body;
  for (int i = 0; i < 200; ++i) {
    const auto deviation = client.Get("/v1/streams/s1/deviation");
    ASSERT_TRUE(deviation.has_value());
    body = deviation->body;
    if (deviation->status == 200 &&
        body.find("\"processed\":1") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_NE(body.find("\"processed\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"deviation\":"), std::string::npos) << body;
  EXPECT_EQ(TerminateDaemon(), 0) << ReadLog();
}

// An --ooc snapshot is cached block-backed, with no index to compare
// through. POSTing the same bytes hits that entry, and a compare of its
// hash answers 404 instead of crashing the worker; the daemon keeps
// serving.
TEST_F(MonitordSpoolTest, CompareOfABlockBackedSnapshotAnswers404) {
  std::stringstream good;
  io::SaveTransactionDb(SmallDb(8, 30), good);
  WriteSpoolFile("s1__000.txns", good.str());
  Spawn({"--spool", (root_ / "spool").string(), "--reference",
         reference_path_, "--port", "0", "--port-file", port_file_,
         "--ooc", "1", "--block-size-kib", "4", "--calibration", "1",
         "--replicates", "1", "--threads", "2", "--poll-ms", "20"});
  ASSERT_TRUE(WaitForPort(400));
  const auto wait_for_events = [&](size_t n) {
    for (int i = 0; i < 400 && EventLines().size() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return EventLines().size() == n;
  };
  ASSERT_TRUE(wait_for_events(1));

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));
  const auto ingest =
      client.Post("/v1/streams/s1/snapshots", good.str(), "text/plain");
  ASSERT_TRUE(ingest.has_value());
  ASSERT_EQ(ingest->status, 202) << ingest->body;
  const std::string key = "\"content_hash\":\"";
  const size_t at = ingest->body.find(key);
  ASSERT_NE(at, std::string::npos) << ingest->body;
  const std::string hash = ingest->body.substr(at + key.size(), 16);
  ASSERT_TRUE(wait_for_events(2));
  EXPECT_NE(EventLines()[1].find("\"cache_hit\":true"), std::string::npos)
      << EventLines()[1];

  const auto compare = client.Post(
      "/v1/compare", "left=" + hash + "&right=" + hash,
      "application/x-www-form-urlencoded");
  ASSERT_TRUE(compare.has_value());
  EXPECT_EQ(compare->status, 404) << compare->body;
  EXPECT_NE(compare->body.find("block-backed"), std::string::npos)
      << compare->body;
  const auto deviation = client.Get("/v1/streams/s1/deviation");
  ASSERT_TRUE(deviation.has_value());
  EXPECT_EQ(deviation->status, 200) << deviation->body;
  EXPECT_EQ(deviation->body.find("\"deviation\":"), std::string::npos)
      << deviation->body;
  const auto health = client.Get("/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(TerminateDaemon(), 0) << ReadLog();
}

TEST(DataIoErrorReasons, LoaderReportsSpecificReasons) {
  // The loader's out-param carries the same reasons the daemon logs.
  for (const MalformedFixture& fixture : kMalformed) {
    std::istringstream in(fixture.content);
    std::string error;
    if (fixture.loads) {
      EXPECT_TRUE(io::LoadTransactionDb(in).has_value()) << fixture.name;
      continue;
    }
    ASSERT_FALSE(io::LoadTransactionDb(in, &error).has_value())
        << fixture.name;
    EXPECT_NE(error.find(fixture.reason_substring), std::string::npos)
        << fixture.name << ": got '" << error << "'";
  }
  // A clean load leaves no reason behind and the error param is optional.
  std::stringstream good;
  io::SaveTransactionDb(SmallDb(4, 5), good);
  EXPECT_TRUE(io::LoadTransactionDb(good).has_value());
}

}  // namespace
}  // namespace focus
