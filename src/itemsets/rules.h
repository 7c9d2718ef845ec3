#ifndef FOCUS_ITEMSETS_RULES_H_
#define FOCUS_ITEMSETS_RULES_H_

#include <string>
#include <vector>

#include "itemsets/apriori.h"
#include "itemsets/itemset.h"

namespace focus::lits {

// Association rules A => C derived from a lits-model (the second phase of
// Agrawal-Srikant [5]): for every frequent itemset X and non-empty proper
// subset A, confidence(A => X\A) = sup(X) / sup(A). All supports come
// from the model itself — anti-monotonicity guarantees every subset of a
// frequent itemset is in the model.
struct AssociationRule {
  Itemset antecedent;
  Itemset consequent;
  double support = 0.0;     // sup(A ∪ C)
  double confidence = 0.0;  // sup(A ∪ C) / sup(A)
  double lift = 0.0;        // confidence / sup(C)

  std::string ToString() const;
};

struct RuleOptions {
  double min_confidence = 0.5;
  // Itemsets larger than this are skipped (2^size subset enumeration).
  int max_itemset_size = 12;
};

// All rules meeting the confidence threshold, sorted by descending
// confidence then descending support (deterministic).
std::vector<AssociationRule> GenerateRules(const LitsModel& model,
                                           const RuleOptions& options);

// FOCUS over rule sets: a rule is a region identified by its
// (antecedent, consequent) pair whose measure is its CONFIDENCE under a
// model. The GCR of two rule sets is their union; a rule absent from a
// model gets the confidence its itemsets imply there (0 when the
// underlying itemsets fell below the support threshold). With f_a/g_sum
// this quantifies how much the implication structure — not just the
// supports — changed between two datasets.
double RuleDeviation(const std::vector<AssociationRule>& rules1,
                     const LitsModel& m1,
                     const std::vector<AssociationRule>& rules2,
                     const LitsModel& m2);

// Confidence of an arbitrary rule under a model; 0 when the union or the
// antecedent is not frequent in the model.
double ConfidenceUnder(const LitsModel& model, const Itemset& antecedent,
                       const Itemset& consequent);

}  // namespace focus::lits

#endif  // FOCUS_ITEMSETS_RULES_H_
