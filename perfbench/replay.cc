// perfbench_replay — the benchmark's in-process side.
//
// Runs a job file, one command per line, through the library's public free
// functions in the order the daemon's served path calls them, and records a
// span around every call. It never touches LitsChangeMonitor, HttpApi,
// ShardedApi or MonitorService: the replay must keep working while those
// classes are split or deleted.
//
//   perfbench_replay JOBS SPANS
//
// Commands (fields separated by single spaces):
//   gen PATH TRANSACTIONS SEED PATTERN_SEED ITEMS AVG_LENGTH PATTERNS
//       writes one Quest draw (datagen::GenerateQuest) as focus-txns-v1 text
//   reference PATH
//       registers the baseline as a stream's first ingest would: vertical
//       index, Apriori through it, and the bootstrap calibration of the
//       delta* threshold
//   pool ID PATH
//       keeps a generated file's transaction lines for snapshot windows
//   snapshot ID POOL OFFSET N STREAM STAGE2
//       replays the ingest of the body the load generator posts for this
//       window: HTTP parse, load, content hash, index, mine, delta* screen,
//       and, when the screen fires, the exact deviation plus (STAGE2 = 1)
//       the bootstrap significance
//   qualify ID
//       the stage-2 significance of a snapshot against the baseline, run
//       even when the screen did not fire (a probe of the layer's cost)
//   deviation ID F G
//       a stream's deviation route: reference vs snapshot, through indexes
//   compare LEFT RIGHT F G
//       the compare route between two replayed snapshots, plus the shard
//       wire round trip of the compare's region list
//   summary F G ID...
//       the summary route over the streams whose latest snapshots are ID...
//
// Results go to stdout, one line per command; numbers use %.17g so they
// read back bit-exactly. Spans go to SPANS when the job file ends, one line
// each: "span ID PARENT OP NAME START_NS END_NS".

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/functions.h"
#include "core/lits_deviation.h"
#include "core/lits_upper_bound.h"
#include "core/monitor.h"
#include "core/significance.h"
#include "data/sampling.h"
#include "data/transaction_db.h"
#include "data/vertical_index.h"
#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "itemsets/apriori.h"
#include "net/http_parser.h"
#include "serve/api_util.h"
#include "serve/model_cache.h"
#include "shard/wire.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"

namespace {

using namespace focus;

// ----------------------------------------------------------------- spans

struct Span {
  int parent = -1;
  int op = -1;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  void BeginOp() { ++op_; }

  int Open(const char* name) {
    Span span;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op_;
    span.name = name;
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start_ns = NowNs();
    return stack_.back();
  }

  void Close(int id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "span " << i << ' ' << s.parent << ' ' << s.op << ' ' << s.name
          << ' ' << s.start_ns << ' ' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int op_ = -1;
};

Tracer g_tracer;

class Scoped {
 public:
  explicit Scoped(const char* name) : id_(g_tracer.Open(name)) {}
  ~Scoped() { g_tracer.Close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  int id_;
};

// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto Traced(const char* name, Fn&& fn) {
  Scoped span(name);
  return fn();
}

// ------------------------------------------------------- daemon defaults

// focus_served's monitor defaults (tools/focus_served.cc ServiceOptions):
// the benchmark runs the daemon without monitor flags, so the replay must
// use the same values to reproduce its numbers bit for bit.
core::MonitorOptions DaemonMonitorOptions() {
  core::MonitorOptions options;
  options.apriori.min_support = 0.01;
  options.alert_factor = 2.0;
  options.calibration_replicates = 5;
  options.significance.num_replicates = 9;
  return options;
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench_replay: %s\n", why.c_str());
  std::exit(1);
}

// ------------------------------------------------------------- the replay

struct Baseline {
  data::TransactionDb db;
  std::unique_ptr<data::VerticalIndex> index;
  std::unique_ptr<lits::LitsModel> model;
  double threshold = 0.0;
};

struct Replayed {
  data::TransactionDb db;
  std::unique_ptr<data::VerticalIndex> index;
  std::unique_ptr<lits::LitsModel> model;
};

struct Pool {
  int32_t num_items = 0;
  std::vector<std::string> lines;  // each ends in '\n'
};

class Replay {
 public:
  void Run(const std::vector<std::string>& args);

 private:
  void Gen(const std::vector<std::string>& args);
  void Reference(const std::vector<std::string>& args);
  void LoadPool(const std::vector<std::string>& args);
  void Snapshot(const std::vector<std::string>& args);
  void Qualify(const std::vector<std::string>& args);
  void Deviation(const std::vector<std::string>& args);
  void Compare(const std::vector<std::string>& args);
  void Summary(const std::vector<std::string>& args);

  core::SignificanceResult Significance(const data::TransactionDb& snapshot);
  const Replayed& Find(const std::string& id) const;
  void ParseRequest(const std::string& bytes);

  const core::MonitorOptions options_ = DaemonMonitorOptions();
  std::unique_ptr<Baseline> baseline_;
  std::map<std::string, Pool> pools_;
  std::map<std::string, Replayed> snapshots_;
};

void Replay::Run(const std::vector<std::string>& args) {
  const std::string& cmd = args[0];
  g_tracer.BeginOp();
  if (cmd == "gen") return Gen(args);
  if (cmd == "reference") return Reference(args);
  if (cmd == "pool") return LoadPool(args);
  if (baseline_ == nullptr) Fail(cmd + " before reference");
  if (cmd == "snapshot") return Snapshot(args);
  if (cmd == "qualify") return Qualify(args);
  if (cmd == "deviation") return Deviation(args);
  if (cmd == "compare") return Compare(args);
  if (cmd == "summary") return Summary(args);
  Fail("unknown command " + cmd);
}

void Replay::Gen(const std::vector<std::string>& args) {
  if (args.size() != 8) {
    Fail("usage: gen PATH TRANSACTIONS SEED PATTERN_SEED ITEMS AVG_LENGTH "
         "PATTERNS");
  }
  datagen::QuestParams params;
  params.num_transactions = std::stoll(args[2]);
  params.seed = std::stoull(args[3]);
  params.pattern_seed = std::stoull(args[4]);
  params.num_items = std::stoi(args[5]);
  params.avg_transaction_length = std::stod(args[6]);
  params.num_patterns = std::stoi(args[7]);
  if (!io::SaveTransactionDbToFile(datagen::GenerateQuest(params), args[1])) {
    Fail("cannot write " + args[1]);
  }
  std::printf("gen %s\n", args[1].c_str());
}

void Replay::Reference(const std::vector<std::string>& args) {
  if (args.size() != 2) Fail("usage: reference PATH");
  auto db = io::LoadTransactionDbFromFile(args[1]);
  if (!db.has_value()) Fail("cannot read " + args[1]);
  baseline_ = std::make_unique<Baseline>();
  Baseline& b = *baseline_;
  b.db = std::move(*db);
  {
    // What registering a stream costs: the baseline's index and model,
    // then delta* of the baseline against bootstrap replicates of itself.
    Scoped add("serve.add_stream");
    b.index = Traced("data.index_build", [&] {
      return std::make_unique<data::VerticalIndex>(b.db);
    });
    b.model = Traced("itemsets.mine_indexed", [&] {
      return std::make_unique<lits::LitsModel>(
          lits::Apriori(b.db, options_.apriori, b.index.get()));
    });
    std::mt19937_64 rng = stats::MakeRng(options_.seed);
    const int64_t n = b.db.num_transactions();
    double level = 0.0;
    for (int r = 0; r < options_.calibration_replicates; ++r) {
      const data::TransactionDb replicate =
          Traced("data.calibration_resample", [&] {
            return data::TakeTransactions(
                b.db, data::SampleIndicesWithReplacement(n, n, rng));
          });
      const data::VerticalIndex replicate_index = Traced(
          "data.index_build", [&] { return data::VerticalIndex(replicate); });
      const lits::LitsModel replicate_model =
          Traced("itemsets.mine_indexed", [&] {
            return lits::Apriori(replicate, options_.apriori,
                                 &replicate_index);
          });
      level = std::max(level, Traced("core.upper_bound", [&] {
                         return core::LitsUpperBound(*b.model, replicate_model,
                                                     options_.fn.g);
                       }));
    }
    b.threshold = options_.alert_factor * level;
  }
  std::printf("reference n=%lld itemsets=%lld threshold=%s\n",
              static_cast<long long>(b.db.num_transactions()),
              static_cast<long long>(b.model->size()),
              Num(b.threshold).c_str());
}

void Replay::LoadPool(const std::vector<std::string>& args) {
  if (args.size() != 3) Fail("usage: pool ID PATH");
  std::ifstream in(args[2]);
  std::string magic, line;
  Pool pool;
  int64_t count = 0;
  if (!std::getline(in, magic) || !(in >> pool.num_items >> count) ||
      !std::getline(in, line)) {
    Fail("cannot read pool " + args[2]);
  }
  while (std::getline(in, line)) pool.lines.push_back(line + '\n');
  if (static_cast<int64_t>(pool.lines.size()) != count) {
    Fail("short pool " + args[2]);
  }
  pools_[args[1]] = std::move(pool);
  std::printf("pool %s %lld\n", args[1].c_str(),
              static_cast<long long>(count));
}

void Replay::ParseRequest(const std::string& bytes) {
  Traced("net.http_parse", [&] {
    net::HttpParser parser;
    if (parser.Consume(bytes) != net::HttpParser::Status::kComplete) {
      Fail("replayed request did not parse: " + parser.error());
    }
    return 0;
  });
}

void Replay::Snapshot(const std::vector<std::string>& args) {
  if (args.size() != 7) {
    Fail("usage: snapshot ID POOL OFFSET N STREAM STAGE2");
  }
  const auto pool_it = pools_.find(args[2]);
  if (pool_it == pools_.end()) Fail("unknown pool " + args[2]);
  const Pool& pool = pool_it->second;
  const int64_t offset = std::stoll(args[3]);
  const int64_t n = std::stoll(args[4]);
  const bool stage2 = args[6] == "1";

  // The exact body the load generator posts for this window (run.py
  // builds it the same way).
  std::string body = "focus-txns-v1\n" + std::to_string(pool.num_items) +
                     " " + std::to_string(n) + "\n";
  const int64_t size = static_cast<int64_t>(pool.lines.size());
  for (int64_t i = 0; i < n; ++i) {
    body += pool.lines[static_cast<size_t>((offset + i) % size)];
  }
  const std::string request = "POST /v1/streams/" + args[5] +
                              "/snapshots HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;

  Replayed snap;
  double delta_star = 0.0, deviation = 0.0;
  core::SignificanceResult sig;
  bool screened = false;
  uint64_t hash = 0;
  {
    Scoped op("op.ingest");
    ParseRequest(request);
    // Sharded, the front end forwards the body to its shard verbatim.
    Traced("shard.wire_roundtrip", [&] {
      shard::SubmitSnapshotBody submit;
      submit.stream = args[5];
      submit.source = "http";
      submit.snapshot = body;
      shard::Frame frame;
      frame.type = shard::MessageType::kSubmitSnapshot;
      frame.payload = submit.Encode();
      shard::WireDecoder decoder;
      shard::SubmitSnapshotBody decoded;
      if (decoder.Consume(shard::EncodeFrame(frame)) !=
              shard::WireDecoder::Status::kComplete ||
          !decoded.Decode(decoder.frame().payload)) {
        Fail("wire round trip failed");
      }
      return 0;
    });
    auto db = Traced("io.load_txns", [&] {
      std::istringstream in(body);
      return io::LoadTransactionDb(in);
    });
    if (!db.has_value()) Fail("replayed body did not load");
    snap.db = std::move(*db);
    hash = Traced("serve.content_hash",
                  [&] { return serve::TransactionDbContentHash(snap.db); });
    snap.index = Traced("data.index_build", [&] {
      return std::make_unique<data::VerticalIndex>(snap.db);
    });
    snap.model = Traced("itemsets.mine_indexed", [&] {
      return std::make_unique<lits::LitsModel>(
          lits::Apriori(snap.db, options_.apriori, snap.index.get()));
    });
    delta_star = Traced("core.upper_bound", [&] {
      return core::LitsUpperBound(*baseline_->model, *snap.model,
                                  options_.fn.g);
    });
    screened = delta_star < baseline_->threshold;
    if (!screened) {
      deviation = Traced("core.deviation_indexed", [&] {
        return core::LitsDeviation(*baseline_->model, baseline_->index.get(),
                                   *snap.model, snap.index.get(),
                                   options_.fn);
      });
      if (stage2) sig = Significance(snap.db);
    }
  }
  std::printf(
      "snapshot %s hash=%s delta_star=%s screened=%d deviation=%s sig=%s "
      "itemsets=%lld\n",
      args[1].c_str(), serve::HashHex(hash).c_str(), Num(delta_star).c_str(),
      screened ? 1 : 0, Num(deviation).c_str(),
      stage2 && !screened ? Num(sig.significance_percent).c_str() : "-",
      static_cast<long long>(snap.model->size()));
  snapshots_[args[1]] = std::move(snap);
}

// core::LitsDeviationSignificance, call by call, so each layer it reaches
// gets its own span. run.py checks the result against the daemon's
// sig_pct, so a drift between this copy and the library shows as a
// failed run rather than as wrong timings.
core::SignificanceResult Replay::Significance(
    const data::TransactionDb& snapshot) {
  Scoped sig_span("core.significance");
  const data::TransactionDb& reference = baseline_->db;
  const lits::AprioriOptions& apriori = options_.apriori;
  const core::DeviationFunction& fn = options_.fn;
  const data::TxnSourceRef d1(reference), d2(snapshot);

  const lits::LitsModel m1 =
      Traced("itemsets.mine_horizontal",
             [&] { return lits::Apriori(d1, apriori); });
  const lits::LitsModel m2 =
      Traced("itemsets.mine_horizontal",
             [&] { return lits::Apriori(d2, apriori); });
  core::SignificanceResult result;
  result.deviation = Traced("core.deviation_horizontal", [&] {
    return core::LitsDeviation(m1, d1, m2, d2, fn);
  });

  const int64_t n1 = d1.num_transactions(), n2 = d2.num_transactions();
  std::mt19937_64 rng = stats::MakeRng(options_.significance.seed);
  std::vector<double> null_values;
  for (int r = 0; r < options_.significance.num_replicates; ++r) {
    const data::TransactionDb b1 = Traced("data.resample", [&] {
      return data::TakeTransactionsPooled(
          d1, d2, data::SampleIndicesWithReplacement(n1 + n2, n1, rng));
    });
    const data::TransactionDb b2 = Traced("data.resample", [&] {
      return data::TakeTransactionsPooled(
          d1, d2, data::SampleIndicesWithReplacement(n1 + n2, n2, rng));
    });
    const lits::LitsModel bm1 = Traced(
        "itemsets.mine_horizontal", [&] { return lits::Apriori(b1, apriori); });
    const lits::LitsModel bm2 = Traced(
        "itemsets.mine_horizontal", [&] { return lits::Apriori(b2, apriori); });
    null_values.push_back(Traced("core.deviation_horizontal", [&] {
      return core::LitsDeviation(bm1, b1, bm2, b2, fn);
    }));
  }
  result.significance_percent = Traced("stats.significance_percent", [&] {
    return stats::SignificancePercent(result.deviation, null_values);
  });
  return result;
}

void Replay::Qualify(const std::vector<std::string>& args) {
  if (args.size() != 2) Fail("usage: qualify ID");
  const Replayed& snap = Find(args[1]);
  core::SignificanceResult sig;
  {
    Scoped op("op.qualify");
    sig = Significance(snap.db);
  }
  std::printf("qualify %s sig=%s\n", args[1].c_str(),
              Num(sig.significance_percent).c_str());
}

const Replayed& Replay::Find(const std::string& id) const {
  const auto it = snapshots_.find(id);
  if (it == snapshots_.end()) Fail("unknown snapshot " + id);
  return it->second;
}

bool Function(const std::string& f, const std::string& g,
              core::DeviationFunction* fn) {
  std::string f_name, g_name;
  return serve::ParseDeviationFunction({{"f", f}, {"g", g}}, fn, &f_name,
                                       &g_name);
}

void Replay::Deviation(const std::vector<std::string>& args) {
  if (args.size() != 4) Fail("usage: deviation ID F G");
  const Replayed& snap = Find(args[1]);
  core::DeviationFunction fn;
  if (!Function(args[2], args[3], &fn)) Fail("bad f/g");
  double value = 0.0;
  {
    Scoped op("op.deviation");
    ParseRequest("GET /v1/streams/s/deviation?f=" + args[2] + "&g=" +
                 args[3] + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                 "Content-Length: 0\r\n\r\n");
    value = Traced("core.deviation_indexed", [&] {
      return core::LitsDeviation(*baseline_->model, baseline_->index.get(),
                                 *snap.model, snap.index.get(), fn);
    });
  }
  std::printf("deviation %s %s %s %s\n", args[1].c_str(), args[2].c_str(),
              args[3].c_str(), Num(value).c_str());
}

void Replay::Compare(const std::vector<std::string>& args) {
  if (args.size() != 5) Fail("usage: compare LEFT RIGHT F G");
  const Replayed& left = Find(args[1]);
  const Replayed& right = Find(args[2]);
  core::DeviationFunction fn;
  if (!Function(args[3], args[4], &fn)) Fail("bad f/g");
  double value = 0.0;
  {
    Scoped op("op.compare");
    ParseRequest("POST /v1/compare?left=0&right=0&f=" + args[3] + "&g=" +
                 args[4] + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                 "Content-Length: 0\r\n\r\n");
    value = Traced("core.deviation_indexed", [&] {
      return core::LitsDeviation(*left.model, left.index.get(), *right.model,
                                 right.index.get(), fn);
    });
    // A cross-shard compare ships the union of both models' regions over
    // the wire; time encoding and decoding that frame.
    const std::vector<lits::Itemset> regions =
        core::LitsGcr(*left.model, *right.model);
    Traced("shard.wire_roundtrip", [&] {
      shard::PayloadWriter writer;
      writer.PutRegions(regions);
      shard::Frame frame;
      frame.type = shard::MessageType::kModelRegionsResult;
      frame.payload = writer.Take();
      shard::WireDecoder decoder;
      std::vector<lits::Itemset> decoded;
      if (decoder.Consume(shard::EncodeFrame(frame)) !=
              shard::WireDecoder::Status::kComplete ||
          !shard::PayloadReader(decoder.frame().payload)
               .GetRegions(&decoded) ||
          decoded.size() != regions.size()) {
        Fail("wire round trip failed");
      }
      return 0;
    });
  }
  std::printf("compare %s %s %s %s %s\n", args[1].c_str(), args[2].c_str(),
              args[3].c_str(), args[4].c_str(), Num(value).c_str());
}

void Replay::Summary(const std::vector<std::string>& args) {
  if (args.size() < 4) Fail("usage: summary F G ID...");
  core::DeviationFunction fn;
  if (!Function(args[1], args[2], &fn)) Fail("bad f/g");
  serve::SummaryResult result;
  {
    Scoped op("op.summary");
    ParseRequest("GET /v1/deviation/summary?f=" + args[1] + "&g=" + args[2] +
                 " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                 "Content-Length: 0\r\n\r\n");
    std::vector<serve::SummaryEntry> entries;
    for (size_t i = 3; i < args.size(); ++i) {
      const Replayed& snap = Find(args[i]);
      serve::SummaryEntry entry;
      entry.stream = args[i];
      entry.has_deviation = true;
      entry.deviation = Traced("core.deviation_indexed", [&] {
        return core::LitsDeviation(*baseline_->model, baseline_->index.get(),
                                   *snap.model, snap.index.get(), fn);
      });
      entries.push_back(std::move(entry));
    }
    result = Traced("serve.aggregate_summary", [&] {
      return serve::AggregateSummary(&entries, fn.g);
    });
  }
  std::printf("summary %s %s %s\n", args[1].c_str(), args[2].c_str(),
              Num(result.aggregate).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_replay JOBS SPANS\n");
    return 1;
  }
  std::ifstream jobs(argv[1]);
  if (!jobs) Fail(std::string("cannot read ") + argv[1]);
  Replay replay;
  std::string line;
  while (std::getline(jobs, line)) {
    std::vector<std::string> args;
    std::istringstream fields(line);
    for (std::string field; fields >> field;) args.push_back(field);
    if (args.empty()) continue;
    replay.Run(args);
    std::fflush(stdout);
  }
  if (!g_tracer.Write(argv[2])) Fail(std::string("cannot write ") + argv[2]);
  return 0;
}
