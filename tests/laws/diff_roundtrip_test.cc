// Differential oracles for the io layer: save → load must be the
// identity for every substrate and model family (all doubles are written
// with setprecision(17), so equality below is EXACT), and loaders fed
// randomly mutated bytes must reject or load cleanly — never crash.
// Round-trip fidelity is what lets a monitor compare a freshly mined
// model against a reference persisted by an earlier process.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dt_deviation.h"
#include "core/lits_upper_bound.h"
#include "io/data_io.h"
#include "io/model_io.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "proptest/txns_oracle.h"
#include "serve/model_cache.h"

namespace focus::io {
namespace {

using proptest::Check;
using proptest::PropResult;
using proptest::Rng;

bool SameDb(const data::TransactionDb& x, const data::TransactionDb& y) {
  if (x.num_items() != y.num_items()) return false;
  if (x.num_transactions() != y.num_transactions()) return false;
  for (int64_t t = 0; t < x.num_transactions(); ++t) {
    const auto tx = x.Transaction(t);
    const auto ty = y.Transaction(t);
    if (!std::equal(tx.begin(), tx.end(), ty.begin(), ty.end())) return false;
  }
  return true;
}

TEST(DiffRoundtrip, TransactionDbSaveLoadIsIdentity) {
  EXPECT_TRUE(Check<proptest::LitsWorkload>(
      "diff/txndb-roundtrip", proptest::LitsWorkloadDomain(),
      [](const proptest::LitsWorkload& workload) {
        const data::TransactionDb db = proptest::MaterializeDb(workload);
        std::stringstream buffer;
        SaveTransactionDb(db, buffer);
        const std::optional<data::TransactionDb> loaded =
            LoadTransactionDb(buffer);
        if (!loaded.has_value())
          return PropResult::Fail("loader rejected its own output");
        if (!SameDb(db, *loaded))
          return PropResult::Fail("loaded db differs from the original");
        if (serve::TransactionDbContentHash(db) !=
            serve::TransactionDbContentHash(*loaded))
          return PropResult::Fail("content hash changed across round-trip");
        return PropResult::Ok();
      }));
}

TEST(DiffRoundtrip, DatasetSaveLoadIsIdentity) {
  EXPECT_TRUE(Check<proptest::DtWorkload>(
      "diff/dataset-roundtrip", proptest::DtWorkloadDomain(),
      [](const proptest::DtWorkload& workload) {
        const data::Dataset dataset = proptest::MaterializeDataset(workload);
        std::stringstream buffer;
        SaveDataset(dataset, buffer);
        const std::optional<data::Dataset> loaded = LoadDataset(buffer);
        if (!loaded.has_value())
          return PropResult::Fail("loader rejected its own output");
        if (loaded->num_rows() != dataset.num_rows() ||
            loaded->num_attributes() != dataset.num_attributes() ||
            loaded->schema().num_classes() != dataset.schema().num_classes())
          return PropResult::Fail("shape changed across round-trip");
        for (int64_t row = 0; row < dataset.num_rows(); ++row) {
          if (loaded->Label(row) != dataset.Label(row))
            return PropResult::Fail("label changed across round-trip");
          for (int attr = 0; attr < dataset.num_attributes(); ++attr) {
            // setprecision(17) makes this exact, not approximate.
            if (loaded->At(row, attr) != dataset.At(row, attr))
              return PropResult::Fail("value changed across round-trip");
          }
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(10)));
}

TEST(DiffRoundtrip, LitsModelSaveLoadPreservesDeviations) {
  EXPECT_TRUE(Check<proptest::LitsWorkload>(
      "diff/lits-model-roundtrip", proptest::LitsWorkloadDomain(),
      [](const proptest::LitsWorkload& workload) {
        const data::TransactionDb db = proptest::MaterializeDb(workload);
        const lits::LitsModel model = proptest::Mine(workload, db);
        std::stringstream buffer;
        SaveLitsModel(model, buffer);
        const std::optional<lits::LitsModel> loaded = LoadLitsModel(buffer);
        if (!loaded.has_value()) {
          // Empty models (no frequent itemsets) still carry a valid header
          // and must round-trip too.
          return PropResult::Fail("loader rejected its own output");
        }
        if (loaded->size() != model.size() ||
            loaded->num_items() != model.num_items() ||
            loaded->num_transactions() != model.num_transactions() ||
            loaded->min_support() != model.min_support())
          return PropResult::Fail("model header changed across round-trip");
        for (const lits::Itemset& itemset : model.StructuralComponent()) {
          if (loaded->SupportOr(itemset, -1.0) !=
              model.SupportOr(itemset, -1.0))
            return PropResult::Fail("support changed across round-trip");
        }
        // delta*(original, loaded) = 0: equal models are deviation-free
        // without any dataset scan (Theorem 4.2's self-distance axiom).
        for (const core::AggregateKind g :
             {core::AggregateKind::kSum, core::AggregateKind::kMax}) {
          if (core::LitsUpperBound(model, *loaded, g) != 0.0)
            return PropResult::Fail("delta*(M, load(save(M))) != 0");
        }
        return PropResult::Ok();
      }));
}

TEST(DiffRoundtrip, DecisionTreeSaveLoadPreservesRouting) {
  EXPECT_TRUE(Check<proptest::DtPair>(
      "diff/dt-tree-roundtrip", proptest::DtPairDomain(),
      [](const proptest::DtPair& pair) {
        const data::Dataset d1 = proptest::MaterializeDataset(pair.a);
        const data::Dataset d2 = proptest::MaterializeDataset(pair.b);
        const dt::DecisionTree tree = proptest::BuildTree(pair.a, d1);
        std::stringstream buffer;
        SaveDecisionTree(tree, buffer);
        const std::optional<dt::DecisionTree> loaded =
            LoadDecisionTree(buffer);
        if (!loaded.has_value())
          return PropResult::Fail("loader rejected its own output");
        if (loaded->num_nodes() != tree.num_nodes() ||
            loaded->num_leaves() != tree.num_leaves())
          return PropResult::Fail("tree shape changed across round-trip");
        // The loaded tree must route every tuple of an UNRELATED dataset
        // exactly as the original: measures over d2 are bit-identical.
        if (core::DtMeasuresOverTree(*loaded, d2) !=
            core::DtMeasuresOverTree(tree, d2))
          return PropResult::Fail("routing changed across round-trip");
        // And the derived 2-component models are deviation-free twins.
        const core::DtModel m(tree, d1);
        const core::DtModel m_loaded(*loaded, d1);
        core::DtDeviationOptions options;
        const double dev = core::DtDeviation(m, d1, m_loaded, d1, options);
        if (dev != 0.0)
          return PropResult::Fail("deviation(M, load(save(M))) != 0");
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(8)));
}

// Flip/insert/delete random bytes in a valid serialized artifact and run
// the loader. It must never crash; when it still accepts the input, a
// second save→load must be stable (load is a retraction: load∘save∘load
// = load). A mutated transaction text is also loaded three ways (over a
// string_view, over a stream, and by the istringstream reference parser),
// which must agree on accepting, on the reason and on the rows.
TEST(DiffRoundtrip, LoadersSurviveRandomByteMutations) {
  EXPECT_TRUE(Check<proptest::LitsWorkload>(
      "diff/loader-mutation-robustness", proptest::LitsWorkloadDomain(),
      [](const proptest::LitsWorkload& workload) {
        const data::TransactionDb db = proptest::MaterializeDb(workload);
        const lits::LitsModel model = proptest::Mine(workload, db);
        std::stringstream db_bytes;
        SaveTransactionDb(db, db_bytes);
        std::stringstream model_bytes;
        SaveLitsModel(model, model_bytes);

        Rng mutate_rng(workload.quest.seed * 31 + 7);
        for (const std::string& pristine :
             {db_bytes.str(), model_bytes.str()}) {
          for (int round = 0; round < 8; ++round) {
            std::string bytes = pristine;
            const int edits = static_cast<int>(mutate_rng.IntIn(1, 4));
            for (int e = 0; e < edits && !bytes.empty(); ++e) {
              const size_t pos = static_cast<size_t>(
                  mutate_rng.IntIn(0, static_cast<int64_t>(bytes.size()) - 1));
              switch (mutate_rng.IntIn(0, 2)) {
                case 0:
                  bytes[pos] = static_cast<char>(mutate_rng.IntIn(0, 255));
                  break;
                case 1:
                  bytes.erase(pos, 1);
                  break;
                default:
                  bytes.insert(pos, 1,
                               static_cast<char>(mutate_rng.IntIn(32, 126)));
              }
            }
            std::istringstream mutated(bytes);
            if (pristine == db_bytes.str()) {
              if (const auto differs = proptest::TxnsLoadersDisagree(bytes)) {
                return PropResult::Fail("txns loaders disagree: " + *differs);
              }
              const auto result = LoadTransactionDb(mutated);
              if (result.has_value()) {
                std::stringstream resaved;
                SaveTransactionDb(*result, resaved);
                const auto again = LoadTransactionDb(resaved);
                if (!again.has_value() || !SameDb(*result, *again))
                  return PropResult::Fail("accepted mutant is not stable");
              }
            } else {
              const auto result = LoadLitsModel(mutated);
              if (result.has_value()) {
                std::stringstream resaved;
                SaveLitsModel(*result, resaved);
                if (!LoadLitsModel(resaved).has_value())
                  return PropResult::Fail("accepted mutant is not stable");
              }
            }
          }
        }
        return PropResult::Ok();
      },
      proptest::Config::FromEnv(10)));
}

}  // namespace
}  // namespace focus::io
