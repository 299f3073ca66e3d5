#include "trust/reputation_policy.hpp"

#include <string>

namespace gridtrust::trust {

void ReputationPolicy::record_recommendation(const Recommendation& rec) {
  // RTT == DTT (§2.2's practical-systems assumption): a recommendation is
  // the recommender's own direct record made visible to third parties.
  record_transaction(Transaction{rec.recommender, rec.target, rec.context,
                                 rec.time, rec.score});
}

TrustLevel ReputationPolicy::offered_level(EntityId truster, EntityId trustee,
                                           ContextId context,
                                           double now) const {
  const TrustLevel level =
      quantize_level(evaluate(truster, trustee, context, now));
  return min_level(level, kMaxOfferedLevel);
}

void ReputationPolicy::counters_to_report(obs::RunReport& report) const {
  const std::string prefix = "trust." + name() + ".";
  for (const auto& [counter, value] : counters()) {
    report.set_count(prefix + counter, value);
  }
}

}  // namespace gridtrust::trust
