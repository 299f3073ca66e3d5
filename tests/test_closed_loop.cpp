// Tests for the closed-loop TRMS (trust evolution in the scheduling loop),
// run as chaos campaigns whose resource domains are pinned to known
// conduct.
#include <gtest/gtest.h>

#include <vector>

#include "chaos/campaign.hpp"
#include "common/error.hpp"
#include "sim/scenario_builder.hpp"

namespace gridtrust::chaos {
namespace {

/// A 6-machine Grid with 2 client domains and one resource domain per
/// entry of `rd_conduct`, each pinned to that conduct mean.
sim::Scenario pinned_scenario(
    const std::vector<double>& rd_conduct = {5.6, 3.4, 1.6}) {
  return sim::ScenarioBuilder()
      .machines(6)
      .client_domains(2, 2)
      .resource_domains(rd_conduct.size(), rd_conduct.size())
      .with_adversaries(pinned_rd_conduct(rd_conduct))
      .build();
}

CampaignRunConfig small_config(bool adaptive) {
  CampaignRunConfig config;
  config.rounds = 8;
  config.tasks_per_round = 30;
  config.adaptive = adaptive;
  config.initial_level = trust::TrustLevel::kE;
  config.honest_cd_mean = 5.0;
  config.conduct_sigma = 0.3;
  return config;
}

TEST(ClosedLoop, RunsAllRoundsAndCountsTransactions) {
  const CampaignResult result =
      run_campaign(pinned_scenario(), small_config(true), 1);
  ASSERT_EQ(result.rounds.size(), 8u);
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_EQ(result.rounds[i].round, i);
    EXPECT_GT(result.rounds[i].makespan, 0.0);
    EXPECT_GE(result.rounds[i].mean_table_trust_cost, 0.0);
  }
  // Every request generates one client-side and one resource-side
  // transaction per activity; activities are 1-4 per request.
  EXPECT_GE(result.transactions, 2u * 8u * 30u);
  EXPECT_LE(result.transactions, 8u * 8u * 30u);
}

TEST(ClosedLoop, FrozenArmNeverTouchesTheTable) {
  const CampaignResult result =
      run_campaign(pinned_scenario(), small_config(false), 1);
  EXPECT_EQ(result.transactions, 0u);
  for (const CampaignRoundMetrics& round : result.rounds) {
    EXPECT_EQ(round.table_updates, 0u);
  }
  for (std::size_t rd = 0; rd < 3; ++rd) {
    EXPECT_EQ(result.final_table.get(0, rd, 0), trust::TrustLevel::kE);
  }
}

TEST(ClosedLoop, LearnsTheConductOrdering) {
  CampaignRunConfig config = small_config(true);
  config.rounds = 10;
  const CampaignResult result = run_campaign(pinned_scenario(), config, 2);
  const int learned0 = trust::to_numeric(result.final_table.get(0, 0, 0));
  const int learned1 = trust::to_numeric(result.final_table.get(0, 1, 0));
  const int learned2 = trust::to_numeric(result.final_table.get(0, 2, 0));
  EXPECT_GT(learned0, learned1);
  EXPECT_GT(learned1, learned2);
  EXPECT_GE(learned0, 5);  // exemplary stays E
  EXPECT_LE(learned2, 2);  // hostile drops to A/B
}

TEST(ClosedLoop, AdaptationReducesResidualExposure) {
  CampaignRunConfig config = small_config(true);
  config.rounds = 10;
  const CampaignResult adaptive = run_campaign(pinned_scenario(), config, 3);
  config.adaptive = false;
  const CampaignResult frozen = run_campaign(pinned_scenario(), config, 3);
  // Identical first round (the table has not been refreshed yet).
  EXPECT_NEAR(adaptive.rounds[0].mean_residual_exposure,
              frozen.rounds[0].mean_residual_exposure, 1e-9);
  // From the back half of the run, adaptive residual exposure must sit far
  // below frozen.
  double adaptive_tail = 0.0;
  double frozen_tail = 0.0;
  for (std::size_t i = 5; i < 10; ++i) {
    adaptive_tail += adaptive.rounds[i].mean_residual_exposure;
    frozen_tail += frozen.rounds[i].mean_residual_exposure;
  }
  EXPECT_LT(adaptive_tail, 0.4 * frozen_tail);
}

TEST(ClosedLoop, ResidualExposureIsNonNegative) {
  const CampaignResult result =
      run_campaign(pinned_scenario(), small_config(true), 4);
  for (const CampaignRoundMetrics& round : result.rounds) {
    EXPECT_GE(round.mean_residual_exposure, 0.0);
    EXPECT_GE(round.misplaced_sensitive_fraction, 0.0);
    EXPECT_LE(round.misplaced_sensitive_fraction, 1.0);
  }
}

TEST(ClosedLoop, DeterministicForSeed) {
  const CampaignResult a =
      run_campaign(pinned_scenario(), small_config(true), 9);
  const CampaignResult b =
      run_campaign(pinned_scenario(), small_config(true), 9);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].makespan, b.rounds[i].makespan);
    EXPECT_EQ(a.rounds[i].mean_residual_exposure,
              b.rounds[i].mean_residual_exposure);
  }
}

TEST(ClosedLoop, BatchModeWorksInTheLoop) {
  sim::Scenario scenario = pinned_scenario();
  scenario.rms.mode = sim::SchedulingMode::kBatch;
  scenario.rms.heuristic = "sufferage";
  const CampaignRunConfig config = small_config(true);
  const CampaignResult result = run_campaign(scenario, config, 5);
  EXPECT_EQ(result.rounds.size(), config.rounds);
  EXPECT_GT(result.transactions, 0u);
}

TEST(ClosedLoop, ReplicaStalenessDelaysButDoesNotPreventAdaptation) {
  CampaignRunConfig config = small_config(true);
  config.rounds = 12;
  const CampaignResult fresh = run_campaign(pinned_scenario(), config, 8);
  config.replica_staleness_rounds = 4;
  const CampaignResult stale = run_campaign(pinned_scenario(), config, 8);
  // Early rounds: the stale replica still shows the optimistic prior, so
  // uncovered exposure stays high while the fresh reader has adapted.
  double fresh_early = 0.0;
  double stale_early = 0.0;
  for (std::size_t i = 1; i < 4; ++i) {
    fresh_early += fresh.rounds[i].mean_residual_exposure;
    stale_early += stale.rounds[i].mean_residual_exposure;
  }
  EXPECT_LT(fresh_early, stale_early);
  // Late rounds: both have converged.
  EXPECT_LT(stale.rounds.back().mean_residual_exposure, 0.3);
}

TEST(ClosedLoop, CompromiseSpikesExposureAndRecovers) {
  // rd0 behaves for 6 rounds, then is compromised for the rest of the run.
  sim::Scenario scenario = pinned_scenario({5.6, 4.5, 4.5});
  AdversarySpec& rd0 = scenario.chaos.adversaries[0];
  rd0.kind = BehaviorKind::kOscillating;
  rd0.malicious_mean = 1.4;
  rd0.rounds_on = 6;
  rd0.rounds_off = 8;
  CampaignRunConfig config = small_config(true);
  config.rounds = 14;
  config.tasks_per_round = 50;
  config.engine.learning_rate = 0.5;
  const CampaignResult run = run_campaign(scenario, config, 11);
  // Pre-compromise steady state is near zero; the compromise round spikes;
  // the tail recovers as the agents re-learn.
  const double before = run.rounds[5].mean_residual_exposure;
  const double spike = run.rounds[6].mean_residual_exposure;
  const double after = run.rounds[13].mean_residual_exposure;
  EXPECT_GT(spike, before + 0.3);
  EXPECT_LT(after, spike * 0.5);
  // The learned table reflects the compromise.
  EXPECT_LE(trust::to_numeric(run.final_table.get(0, 0, 0)), 2);
}

TEST(ClosedLoop, ConductChangeValidation) {
  sim::Scenario scenario = pinned_scenario();
  AdversarySpec change;
  change.domain = 9;  // unknown RD
  change.kind = BehaviorKind::kOscillating;
  scenario.chaos.adversaries = {change};
  EXPECT_THROW((void)run_campaign(scenario, small_config(true), 1),
               PreconditionError);
  change.domain = 0;
  change.rounds_off = 0;  // an empty compromise phase
  scenario.chaos.adversaries = {change};
  EXPECT_THROW((void)run_campaign(scenario, small_config(true), 1),
               PreconditionError);
  change.rounds_off = 3;
  change.malicious_mean = 9.0;  // off the trust scale
  scenario.chaos.adversaries = {change};
  EXPECT_THROW((void)run_campaign(scenario, small_config(true), 1),
               PreconditionError);
}

TEST(ClosedLoop, BetaMaintainerAlsoLearnsWithoutCollusion) {
  CampaignRunConfig config = small_config(true);
  config.rounds = 10;
  sim::Scenario scenario = pinned_scenario();
  scenario.reputation.name = "beta";
  const CampaignResult result = run_campaign(scenario, config, 12);
  // The pooled table still learns the conduct ordering honestly.
  EXPECT_GT(trust::to_numeric(result.final_table.get(0, 0, 0)),
            trust::to_numeric(result.final_table.get(0, 2, 0)));
  EXPECT_LT(result.rounds.back().mean_residual_exposure, 0.35);
  EXPECT_GT(result.transactions, 0u);
}

TEST(ClosedLoop, CollusionPoisonsBetaButNotGammaForHonestDomains) {
  // cd1 is allied with the hostile rd2: it ballot-stuffs rd2 (and badmouths
  // the other domains) whatever it observes.
  sim::Scenario scenario = pinned_scenario({5.6, 4.4, 1.6});
  scenario.chaos.adversaries[2].kind = BehaviorKind::kCollusive;
  AdversarySpec ally;
  ally.side = AdversarySide::kClientDomain;
  ally.domain = 1;
  ally.kind = BehaviorKind::kCollusive;
  scenario.chaos.adversaries.push_back(ally);
  const auto run_with = [&](const char* backend) {
    CampaignRunConfig config = small_config(true);
    config.rounds = 12;
    config.tasks_per_round = 60;
    config.engine.alliance_discount = 0.1;
    sim::Scenario arm = scenario;
    arm.reputation.name = backend;
    return run_campaign(arm, config, 13);
  };
  const CampaignResult gamma = run_with("gamma");
  const CampaignResult beta = run_with("beta");
  // Honest cd0's view of the hostile rd2: Γ learns the truth; the pooled
  // Beta view is inflated by the colluder.
  EXPECT_LT(trust::to_numeric(gamma.final_table.get(0, 2, 0)),
            trust::to_numeric(beta.final_table.get(0, 2, 0)));
  // Honest-domain exposure in the tail: Γ below Beta.
  double gamma_tail = 0.0;
  double beta_tail = 0.0;
  for (std::size_t i = 8; i < 12; ++i) {
    gamma_tail += gamma.rounds[i].mean_residual_exposure_honest;
    beta_tail += beta.rounds[i].mean_residual_exposure_honest;
  }
  EXPECT_LT(gamma_tail, beta_tail);
}

TEST(ClosedLoop, HonestExposureEqualsTotalWithoutCollusion) {
  const CampaignResult result =
      run_campaign(pinned_scenario(), small_config(true), 14);
  for (const CampaignRoundMetrics& round : result.rounds) {
    EXPECT_NEAR(round.mean_residual_exposure,
                round.mean_residual_exposure_honest, 1e-12);
  }
}

TEST(ClosedLoop, CollusionPairValidation) {
  sim::Scenario scenario = pinned_scenario();
  AdversarySpec ally;
  ally.side = AdversarySide::kClientDomain;
  ally.domain = 9;  // unknown CD
  ally.kind = BehaviorKind::kCollusive;
  scenario.chaos.adversaries.push_back(ally);
  EXPECT_THROW((void)run_campaign(scenario, small_config(true), 1),
               PreconditionError);
}

TEST(ClosedLoop, Validation) {
  // Conduct pinned for an RD or a CD the Grid does not have.
  sim::Scenario extra_rd = pinned_scenario({5.6, 3.4, 1.6, 5.0});
  extra_rd.grid.min_resource_domains = 3;
  extra_rd.grid.max_resource_domains = 3;
  EXPECT_THROW((void)run_campaign(extra_rd, small_config(true), 1),
               PreconditionError);
  sim::Scenario extra_cd = pinned_scenario();
  AdversarySpec cd;
  cd.side = AdversarySide::kClientDomain;
  cd.domain = 2;
  cd.kind = BehaviorKind::kHonest;
  extra_cd.chaos.adversaries.push_back(cd);
  EXPECT_THROW((void)run_campaign(extra_cd, small_config(true), 1),
               PreconditionError);
  CampaignRunConfig bad = small_config(true);
  bad.rounds = 0;
  EXPECT_THROW((void)run_campaign(pinned_scenario(), bad, 1),
               PreconditionError);
  bad = small_config(true);
  bad.initial_level = trust::TrustLevel::kF;
  EXPECT_THROW((void)run_campaign(pinned_scenario(), bad, 1),
               PreconditionError);
}

}  // namespace
}  // namespace gridtrust::chaos
