// focus_cli — command-line front end to the FOCUS library.
//
// Workflows mirror the paper's deployment story: generate or import data,
// mine/persist models, measure deviations (with the fast delta* bound),
// and qualify them statistically.
//
//   focus_cli gen-quest  --out D.txns [--transactions N] [--items I]
//                        [--patterns P] [--patlen L] [--txnlen T]
//                        [--seed S] [--pattern-seed S2]
//   focus_cli gen-class  --out D.data [--rows N] [--function 1..7]
//                        [--noise p] [--seed S]
//   focus_cli mine       --db D.txns --out M.model [--minsup s] [--maxk k]
//   focus_cli train      --data D.data --out T.tree [--max-depth d]
//                        [--min-leaf n]
//   focus_cli deviate    --db1 A.txns --db2 B.txns [--minsup s]
//                        [--f fa|fs] [--g sum|max] [--replicates R]
//   focus_cli deviate-dt --data1 A.data --data2 B.data [--max-depth d]
//                        [--f fa|fs] [--g sum|max] [--replicates R]
//   focus_cli bound      --model1 A.model --model2 B.model [--g sum|max]
//   focus_cli rank       --db1 A.txns --db2 B.txns [--minsup s] [--top n]
//
// A numeric flag must be entirely a number in its command's range (counts
// >= 1, seeds >= 0, --minsup in (0, 1], …); "10x" or "abc" is a usage
// error whose one stderr line names the flag and the range.
//
// Exit status: 0 on success, 1 on usage errors, 2 on I/O failures.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "focus/focus.h"
#include "io/data_io.h"

namespace focus::cli {
namespace {

// Shared hardened parser (also used by focus_served): unknown flags and
// flags missing their value are hard errors, not silently ignored.
using common::Flags;
using common::ReadDoubleFlag;
using common::ReadIntFlag;

bool Positive(double v) { return v > 0.0; }

// Prints a numeric flag's error; returns the usage status.
int UsageError(const std::string& error) {
  std::fprintf(stderr, "%s\n", error.c_str());
  return 1;
}

// --minsup, the Apriori support threshold.
bool ReadMinsup(const Flags& flags, double* out, std::string* error) {
  return ReadDoubleFlag(
      flags, "minsup", 0.01, [](double v) { return v > 0.0 && v <= 1.0; },
      "in (0, 1]", out, error);
}

// --max-depth and --min-leaf of the CART builder.
bool ReadCartFlags(const Flags& flags, dt::CartOptions* options,
                   std::string* error) {
  int min_leaf = 0;
  if (!ReadIntFlag(flags, "max-depth", 8, 0, &options->max_depth, error) ||
      !ReadIntFlag(flags, "min-leaf", 50, 1, &min_leaf, error)) {
    return false;
  }
  options->min_leaf_size = min_leaf;
  return true;
}

core::DeviationFunction ParseDeviationFunction(const Flags& flags) {
  core::DeviationFunction fn;
  const std::string f = flags.Get("f", "fa");
  fn.f = (f == "fs") ? core::ScaledDiff() : core::AbsoluteDiff();
  const std::string g = flags.Get("g", "sum");
  fn.g = (g == "max") ? core::AggregateKind::kMax : core::AggregateKind::kSum;
  return fn;
}

int GenQuest(const Flags& flags) {
  datagen::QuestParams params;
  int transactions = 0, items = 0, patterns = 0, seed = 0, pattern_seed = 0;
  std::string error;
  if (!ReadIntFlag(flags, "transactions", 10000, 1, &transactions, &error) ||
      !ReadIntFlag(flags, "items", 1000, 1, &items, &error) ||
      !ReadIntFlag(flags, "patterns", 4000, 1, &patterns, &error) ||
      !ReadDoubleFlag(flags, "patlen", 4, Positive, "> 0",
                      &params.avg_pattern_length, &error) ||
      !ReadDoubleFlag(flags, "txnlen", 20, Positive, "> 0",
                      &params.avg_transaction_length, &error) ||
      !ReadIntFlag(flags, "seed", 1, 0, &seed, &error) ||
      !ReadIntFlag(flags, "pattern-seed", 0, 0, &pattern_seed, &error)) {
    return UsageError(error);
  }
  params.num_transactions = transactions;
  params.num_items = items;
  params.num_patterns = patterns;
  params.seed = static_cast<uint64_t>(seed);
  params.pattern_seed = static_cast<uint64_t>(pattern_seed);
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen-quest requires --out\n");
    return 1;
  }
  const data::TransactionDb db = datagen::GenerateQuest(params);
  if (!io::SaveTransactionDbToFile(db, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 2;
  }
  std::printf("wrote %s: %lld transactions (%s)\n", out.c_str(),
              static_cast<long long>(db.num_transactions()),
              params.Name().c_str());
  return 0;
}

int GenClass(const Flags& flags) {
  datagen::ClassGenParams params;
  int rows = 0, function = 0, seed = 0;
  std::string error;
  if (!ReadIntFlag(flags, "rows", 10000, 1, &rows, &error) ||
      !ReadIntFlag(flags, "function", 1, 1, &function, &error, 7) ||
      !ReadDoubleFlag(
          flags, "noise", 0.0, [](double v) { return v >= 0.0 && v <= 1.0; },
          "in [0, 1]", &params.label_noise, &error) ||
      !ReadIntFlag(flags, "seed", 1, 0, &seed, &error)) {
    return UsageError(error);
  }
  params.num_rows = rows;
  params.function = static_cast<datagen::ClassFunction>(function);
  params.seed = static_cast<uint64_t>(seed);
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen-class requires --out\n");
    return 1;
  }
  const data::Dataset dataset = datagen::GenerateClassification(params);
  if (!io::SaveDatasetToFile(dataset, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 2;
  }
  std::printf("wrote %s: %lld rows (%s)\n", out.c_str(),
              static_cast<long long>(dataset.num_rows()),
              params.Name().c_str());
  return 0;
}

int Mine(const Flags& flags) {
  lits::AprioriOptions options;
  std::string error;
  if (!ReadMinsup(flags, &options.min_support, &error) ||
      !ReadIntFlag(flags, "maxk", 0, 0, &options.max_itemset_size, &error)) {
    return UsageError(error);
  }
  const auto db = io::LoadTransactionDbFromFile(flags.Get("db", ""));
  if (!db.has_value()) {
    std::fprintf(stderr, "cannot read --db\n");
    return 2;
  }
  const std::string miner = flags.Get("miner", "apriori");
  if (miner != "apriori" && miner != "fpgrowth") {
    std::fprintf(stderr, "--miner must be apriori or fpgrowth\n");
    return 1;
  }
  const lits::LitsModel model = miner == "fpgrowth"
                                    ? lits::FpGrowth(*db, options)
                                    : lits::Apriori(*db, options);
  const std::string out = flags.Get("out", "");
  if (out.empty() || !io::SaveLitsModelToFile(model, out)) {
    std::fprintf(stderr, "cannot write --out\n");
    return 2;
  }
  std::printf("mined %lld frequent itemsets at minsup %.4f -> %s\n",
              static_cast<long long>(model.size()), options.min_support,
              out.c_str());
  return 0;
}

int Train(const Flags& flags) {
  dt::CartOptions options;
  std::string error;
  if (!ReadCartFlags(flags, &options, &error)) return UsageError(error);
  const auto dataset = io::LoadDatasetFromFile(flags.Get("data", ""));
  if (!dataset.has_value()) {
    std::fprintf(stderr, "cannot read --data\n");
    return 2;
  }
  if (flags.Get("criterion", "gini") == "entropy") {
    options.criterion = dt::SplitCriterion::kEntropy;
  }
  const dt::DecisionTree tree = flags.Get("builder", "recursive") == "presorted"
                                    ? dt::BuildCartPresorted(*dataset, options)
                                    : dt::BuildCart(*dataset, options);
  const std::string out = flags.Get("out", "");
  if (out.empty() || !io::SaveDecisionTreeToFile(tree, out)) {
    std::fprintf(stderr, "cannot write --out\n");
    return 2;
  }
  std::printf("trained tree: %d leaves, depth %d, training ME %.4f -> %s\n",
              tree.num_leaves(), tree.Depth(),
              core::MisclassificationError(tree, *dataset), out.c_str());
  return 0;
}

int Deviate(const Flags& flags) {
  lits::AprioriOptions apriori;
  int replicates = 0;
  std::string error;
  if (!ReadMinsup(flags, &apriori.min_support, &error) ||
      !ReadIntFlag(flags, "replicates", 0, 0, &replicates, &error)) {
    return UsageError(error);
  }
  const auto d1 = io::LoadTransactionDbFromFile(flags.Get("db1", ""));
  const auto d2 = io::LoadTransactionDbFromFile(flags.Get("db2", ""));
  if (!d1.has_value() || !d2.has_value()) {
    std::fprintf(stderr, "cannot read --db1/--db2\n");
    return 2;
  }
  const core::DeviationFunction fn = ParseDeviationFunction(flags);

  const lits::LitsModel m1 = lits::Apriori(*d1, apriori);
  const lits::LitsModel m2 = lits::Apriori(*d2, apriori);
  std::printf("delta  = %.6f\n", core::LitsDeviation(m1, *d1, m2, *d2, fn));
  std::printf("delta* = %.6f\n", core::LitsUpperBound(m1, m2, fn.g));

  if (replicates > 0) {
    core::SignificanceOptions options;
    options.num_replicates = replicates;
    const auto result =
        core::LitsDeviationSignificance(*d1, *d2, apriori, fn, options);
    std::printf("sig(delta) = %.1f%% over %d bootstrap replicates\n",
                result.significance_percent, replicates);
  }
  return 0;
}

int DeviateDt(const Flags& flags) {
  dt::CartOptions cart;
  int replicates = 0;
  std::string error;
  if (!ReadCartFlags(flags, &cart, &error) ||
      !ReadIntFlag(flags, "replicates", 0, 0, &replicates, &error)) {
    return UsageError(error);
  }
  const auto d1 = io::LoadDatasetFromFile(flags.Get("data1", ""));
  const auto d2 = io::LoadDatasetFromFile(flags.Get("data2", ""));
  if (!d1.has_value() || !d2.has_value()) {
    std::fprintf(stderr, "cannot read --data1/--data2\n");
    return 2;
  }
  const core::DeviationFunction fn = ParseDeviationFunction(flags);

  const core::DtModel m1(dt::BuildCart(*d1, cart), *d1);
  const core::DtModel m2(dt::BuildCart(*d2, cart), *d2);
  core::DtDeviationOptions options;
  options.fn = fn;
  std::printf("delta = %.6f\n", core::DtDeviation(m1, *d1, m2, *d2, options));
  std::printf("ME(tree(D1), D2) = %.4f\n",
              core::MisclassificationError(m1.tree(), *d2));

  if (replicates > 0) {
    core::SignificanceOptions sig_options;
    sig_options.num_replicates = replicates;
    const auto result =
        core::DtDeviationSignificance(*d1, *d2, cart, fn, sig_options);
    std::printf("sig(delta) = %.1f%% over %d bootstrap replicates\n",
                result.significance_percent, replicates);
  }
  return 0;
}

int Bound(const Flags& flags) {
  const auto m1 = io::LoadLitsModelFromFile(flags.Get("model1", ""));
  const auto m2 = io::LoadLitsModelFromFile(flags.Get("model2", ""));
  if (!m1.has_value() || !m2.has_value()) {
    std::fprintf(stderr, "cannot read --model1/--model2\n");
    return 2;
  }
  const core::AggregateKind g = flags.Get("g", "sum") == "max"
                                    ? core::AggregateKind::kMax
                                    : core::AggregateKind::kSum;
  std::printf("delta* = %.6f\n", core::LitsUpperBound(*m1, *m2, g));
  return 0;
}

int Rank(const Flags& flags) {
  lits::AprioriOptions apriori;
  int top = 0;
  std::string error;
  if (!ReadMinsup(flags, &apriori.min_support, &error) ||
      !ReadIntFlag(flags, "top", 10, 1, &top, &error)) {
    return UsageError(error);
  }
  const auto d1 = io::LoadTransactionDbFromFile(flags.Get("db1", ""));
  const auto d2 = io::LoadTransactionDbFromFile(flags.Get("db2", ""));
  if (!d1.has_value() || !d2.has_value()) {
    std::fprintf(stderr, "cannot read --db1/--db2\n");
    return 2;
  }
  const lits::LitsModel m1 = lits::Apriori(*d1, apriori);
  const lits::LitsModel m2 = lits::Apriori(*d2, apriori);
  const auto ranked = core::RankLitsRegions(core::LitsGcr(m1, m2), m1, *d1,
                                            m2, *d2, core::AbsoluteDiff());
  for (const auto& entry :
       core::SelectTopN(ranked, static_cast<size_t>(top))) {
    std::printf("%-24s %.4f -> %.4f  |diff| %.4f\n",
                entry.itemset.ToString().c_str(), entry.support1,
                entry.support2, entry.deviation);
  }
  return 0;
}

// focus_cli embed --models a.model,b.model,... [--dims 2]
// FastMap embedding of a model collection over the delta* metric
// (§4.1.1's visual-comparison use).
int Embed(const Flags& flags) {
  int dims = 0;
  std::string error;
  if (!ReadIntFlag(flags, "dims", 2, 1, &dims, &error)) {
    return UsageError(error);
  }
  const std::string list = flags.Get("models", "");
  if (list.empty()) {
    std::fprintf(stderr, "embed requires --models a.model,b.model,...\n");
    return 1;
  }
  std::vector<std::string> paths;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) paths.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (paths.size() < 2) {
    std::fprintf(stderr, "embed needs at least two models\n");
    return 1;
  }
  std::vector<lits::LitsModel> models;
  for (const std::string& path : paths) {
    auto model = io::LoadLitsModelFromFile(path);
    if (!model.has_value()) {
      std::fprintf(stderr, "cannot read model %s\n", path.c_str());
      return 2;
    }
    models.push_back(std::move(*model));
  }
  const auto matrix = core::LitsUpperBoundMatrix(models, core::AggregateKind::kSum);
  const core::FastMapResult embedded = core::FastMapEmbedding(matrix, dims);
  for (size_t i = 0; i < paths.size(); ++i) {
    std::printf("%s", paths[i].c_str());
    for (double c : embedded.coordinates[i]) std::printf(" %.6f", c);
    std::printf("\n");
  }
  return 0;
}

// focus_cli monitor --reference D.txns --snapshots a.txns,b.txns,...
//                   [--minsup s] [--factor 2.0] [--replicates 9]
// Two-stage snapshot monitoring (delta* screen, then exact deviation +
// significance) over a list of snapshot files.
int MonitorCmd(const Flags& flags) {
  core::MonitorOptions options;
  std::string error;
  if (!ReadMinsup(flags, &options.apriori.min_support, &error) ||
      !ReadDoubleFlag(flags, "factor", 2.0, Positive, "> 0",
                      &options.alert_factor, &error) ||
      !ReadIntFlag(flags, "replicates", 9, 1,
                   &options.significance.num_replicates, &error)) {
    return UsageError(error);
  }
  const auto reference =
      io::LoadTransactionDbFromFile(flags.Get("reference", ""));
  if (!reference.has_value()) {
    std::fprintf(stderr, "cannot read --reference\n");
    return 2;
  }
  const std::string list = flags.Get("snapshots", "");
  std::vector<std::string> paths;
  size_t start = 0;
  while (start <= list.size() && !list.empty()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) paths.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (paths.empty()) {
    std::fprintf(stderr, "monitor requires --snapshots a.txns,b.txns,...\n");
    return 1;
  }
  const core::LitsChangeMonitor monitor(*reference, options);
  std::printf("alert threshold (delta*): %.4f\n", monitor.alert_threshold());
  std::printf("%-24s %10s %8s %10s %6s %s\n", "snapshot", "delta*", "screen",
              "delta", "sig%", "verdict");
  for (const std::string& path : paths) {
    const auto snapshot = io::LoadTransactionDbFromFile(path);
    if (!snapshot.has_value()) {
      std::fprintf(stderr, "cannot read snapshot %s\n", path.c_str());
      return 2;
    }
    const core::MonitorReport report = monitor.Inspect(*snapshot);
    if (report.screened_out) {
      std::printf("%-24s %10.4f %8s %10s %6s %s\n", path.c_str(),
                  report.upper_bound, "skip", "-", "-", "quiet");
    } else {
      std::printf("%-24s %10.4f %8s %10.4f %6.0f %s\n", path.c_str(),
                  report.upper_bound, "test", report.deviation,
                  report.significance_percent,
                  report.alert ? "ALERT" : "within noise");
    }
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: focus_cli <gen-quest|gen-class|mine|train|deviate|"
               "deviate-dt|bound|rank|embed|monitor> [--flag value ...]\n"
               "see the header of tools/focus_cli.cc for full flag lists\n");
  return 1;
}

struct Command {
  const char* name;
  std::vector<std::string> allowed_flags;
  int (*run)(const Flags&);
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"gen-quest",
       {"out", "transactions", "items", "patterns", "patlen", "txnlen", "seed",
        "pattern-seed"},
       GenQuest},
      {"gen-class", {"out", "rows", "function", "noise", "seed"}, GenClass},
      {"mine", {"db", "out", "minsup", "maxk", "miner"}, Mine},
      {"train",
       {"data", "out", "max-depth", "min-leaf", "criterion", "builder"},
       Train},
      {"deviate", {"db1", "db2", "minsup", "f", "g", "replicates"}, Deviate},
      {"deviate-dt",
       {"data1", "data2", "max-depth", "min-leaf", "f", "g", "replicates"},
       DeviateDt},
      {"bound", {"model1", "model2", "g"}, Bound},
      {"rank", {"db1", "db2", "minsup", "top"}, Rank},
      {"embed", {"models", "dims"}, Embed},
      {"monitor",
       {"reference", "snapshots", "minsup", "factor", "replicates"},
       MonitorCmd},
  };
  return commands;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  for (const Command& candidate : Commands()) {
    if (command != candidate.name) continue;
    const auto flags =
        Flags::Parse(argc, argv, 2, candidate.allowed_flags);
    if (!flags.has_value()) return 1;
    return candidate.run(*flags);
  }
  return Usage();
}

}  // namespace
}  // namespace focus::cli

int main(int argc, char** argv) { return focus::cli::Main(argc, argv); }
