#include "trust/agents.hpp"

#include "common/error.hpp"

namespace gridtrust::trust {

DomainTrustBridge::DomainTrustBridge(std::unique_ptr<ReputationPolicy> policy,
                                     std::size_t client_domains,
                                     std::size_t resource_domains,
                                     std::size_t activities,
                                     std::uint64_t min_transactions)
    : n_cd_(client_domains),
      n_rd_(resource_domains),
      n_act_(activities),
      min_transactions_(min_transactions),
      policy_(std::move(policy)) {
  GT_REQUIRE(policy_ != nullptr, "bridge needs a reputation policy");
  GT_REQUIRE(min_transactions >= 1,
             "table updates need at least one observation");
  GT_REQUIRE(policy_->entity_count() == client_domains + resource_domains,
             "policy entity count must cover every CD and RD");
  GT_REQUIRE(policy_->context_count() == activities,
             "policy context count must match the activity count");
}

EntityId DomainTrustBridge::cd_entity(std::size_t cd) const {
  GT_REQUIRE(cd < n_cd_, "client domain index out of range");
  return static_cast<EntityId>(cd);
}

EntityId DomainTrustBridge::rd_entity(std::size_t rd) const {
  GT_REQUIRE(rd < n_rd_, "resource domain index out of range");
  return static_cast<EntityId>(n_cd_ + rd);
}

void DomainTrustBridge::observe_client_side(std::size_t cd, std::size_t rd,
                                            std::size_t activity, double time,
                                            double score) {
  GT_REQUIRE(activity < n_act_, "activity index out of range");
  policy_->record_recommendation(Recommendation{
      cd_entity(cd), rd_entity(rd), static_cast<ContextId>(activity), time,
      score});
}

void DomainTrustBridge::observe_resource_side(std::size_t rd, std::size_t cd,
                                              std::size_t activity,
                                              double time, double score) {
  GT_REQUIRE(activity < n_act_, "activity index out of range");
  policy_->record_recommendation(Recommendation{
      rd_entity(rd), cd_entity(cd), static_cast<ContextId>(activity), time,
      score});
}

std::size_t DomainTrustBridge::refresh(TrustLevelTable& table,
                                       double now) const {
  GT_REQUIRE(table.client_domains() == n_cd_ &&
                 table.resource_domains() == n_rd_ &&
                 table.activities() == n_act_,
             "table dimensions do not match the bridge");
  std::size_t updated = 0;
  for (std::size_t cd = 0; cd < n_cd_; ++cd) {
    for (std::size_t rd = 0; rd < n_rd_; ++rd) {
      for (std::size_t act = 0; act < n_act_; ++act) {
        const auto ctx = static_cast<ContextId>(act);
        const std::uint64_t observations =
            policy_->observation_count(cd_entity(cd), rd_entity(rd), ctx) +
            policy_->observation_count(rd_entity(rd), cd_entity(cd), ctx);
        if (observations < min_transactions_) continue;
        const TrustLevel forward =
            policy_->offered_level(cd_entity(cd), rd_entity(rd), ctx, now);
        const TrustLevel reverse =
            policy_->offered_level(rd_entity(rd), cd_entity(cd), ctx, now);
        const TrustLevel symmetric = min_level(forward, reverse);
        if (table.get(cd, rd, act) != symmetric) {
          table.set(cd, rd, act, symmetric);
          ++updated;
        }
      }
    }
  }
  return updated;
}

}  // namespace gridtrust::trust
