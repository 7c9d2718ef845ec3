#include "itemsets/rules.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace focus::lits {

std::string AssociationRule::ToString() const {
  std::ostringstream out;
  out << antecedent.ToString() << " => " << consequent.ToString()
      << " (sup " << support << ", conf " << confidence << ", lift " << lift
      << ")";
  return out.str();
}

std::vector<AssociationRule> GenerateRules(const LitsModel& model,
                                           const RuleOptions& options) {
  FOCUS_CHECK_GT(options.min_confidence, 0.0);
  FOCUS_CHECK_LE(options.min_confidence, 1.0);
  std::vector<AssociationRule> rules;

  for (const auto& [itemset, support] : model.supports()) {
    const int k = itemset.size();
    if (k < 2 || k > options.max_itemset_size) continue;
    // Enumerate non-empty proper subsets as antecedents.
    const uint32_t full = (1u << k) - 1u;
    for (uint32_t mask = 1; mask < full; ++mask) {
      std::vector<int32_t> antecedent_items;
      std::vector<int32_t> consequent_items;
      for (int i = 0; i < k; ++i) {
        if (mask & (1u << i)) {
          antecedent_items.push_back(itemset.item(i));
        } else {
          consequent_items.push_back(itemset.item(i));
        }
      }
      AssociationRule rule;
      rule.antecedent = Itemset(std::move(antecedent_items));
      rule.consequent = Itemset(std::move(consequent_items));
      const double antecedent_support = model.SupportOr(rule.antecedent, -1.0);
      FOCUS_CHECK_GT(antecedent_support, 0.0)
          << "anti-monotonicity violated for " << rule.antecedent.ToString();
      rule.support = support;
      rule.confidence = support / antecedent_support;
      if (rule.confidence < options.min_confidence) continue;
      const double consequent_support = model.SupportOr(rule.consequent, -1.0);
      rule.lift = consequent_support > 0.0
                      ? rule.confidence / consequent_support
                      : 0.0;
      rules.push_back(std::move(rule));
    }
  }
  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.support != b.support) return a.support > b.support;
              if (!(a.antecedent == b.antecedent)) {
                return a.antecedent < b.antecedent;
              }
              return a.consequent < b.consequent;
            });
  return rules;
}

double ConfidenceUnder(const LitsModel& model, const Itemset& antecedent,
                       const Itemset& consequent) {
  const double antecedent_support = model.SupportOr(antecedent, 0.0);
  if (antecedent_support <= 0.0) return 0.0;
  const double union_support =
      model.SupportOr(antecedent.Union(consequent), 0.0);
  return union_support / antecedent_support;
}

double RuleDeviation(const std::vector<AssociationRule>& rules1,
                     const LitsModel& m1,
                     const std::vector<AssociationRule>& rules2,
                     const LitsModel& m2) {
  // GCR: the union of the two rule sets, keyed by (antecedent,
  // consequent).
  std::map<std::pair<Itemset, Itemset>, std::pair<double, double>> regions;
  for (const AssociationRule& rule : rules1) {
    regions[{rule.antecedent, rule.consequent}].first = rule.confidence;
  }
  for (const AssociationRule& rule : rules2) {
    regions[{rule.antecedent, rule.consequent}].second = rule.confidence;
  }
  double total = 0.0;
  for (auto& [key, confidences] : regions) {
    // Extend the models: a rule missing from one side gets the confidence
    // that side's model implies (0 when its itemsets are not frequent).
    if (confidences.first == 0.0) {
      confidences.first = ConfidenceUnder(m1, key.first, key.second);
    }
    if (confidences.second == 0.0) {
      confidences.second = ConfidenceUnder(m2, key.first, key.second);
    }
    total += std::fabs(confidences.first - confidences.second);
  }
  return total;
}

}  // namespace focus::lits
