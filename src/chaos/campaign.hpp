// Chaos campaigns: adversarial closed-loop runs with robustness metrics.
//
// A campaign runs the closed-loop TRMS (generate -> schedule -> observe ->
// refresh) on sim::run_campaign_loop, clearing each round with run_trms,
// while the scenario's CampaignConfig perturbs it: adversarial domains
// misbehave per their BehaviorEngine strategy, a FaultInjector crashes and
// slows machines and drops or delays recommendation reports as first-class
// "chaos_fault" events, and collusive alliances forge recommendations
// through the very path the paper's recommender factor R is designed to
// police.
//
// The output answers the robustness question the clean experiments cannot:
// how quickly does the trust machinery *detect* misbehaving domains
// (detection latency, misclassification rate), and how much of the damage
// does trust-aware scheduling absorb (true trust cost and makespan
// degradation vs a clean baseline)?  Everything is a pure function of
// (scenario, config, seed).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/config.hpp"
#include "obs/report.hpp"
#include "sim/campaign_loop.hpp"
#include "sim/experiment.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust::chaos {

/// How the campaign's closed loop runs (the clean-loop knobs; the
/// adversarial knobs live in the scenario's CampaignConfig).
struct CampaignRunConfig : sim::CampaignLoopConfig {};

/// Per-round robustness metrics.
struct CampaignRoundMetrics {
  std::size_t round = 0;
  double makespan = 0.0;
  /// Mean trust cost priced against each chosen domain's *true* conduct this
  /// round — what the placements actually expose, whatever the table says.
  double mean_true_trust_cost = 0.0;
  /// Mean trust cost the table believed for the same placements.
  double mean_table_trust_cost = 0.0;
  /// Fraction of resource domains whose adversary label the table gets
  /// wrong (believed mean level < 3 <=> ground-truth adversarial).
  double misclassification_rate = 0.0;
  std::size_t table_updates = 0;
  /// Machines inside a crash window when the round was scheduled.
  std::size_t machines_down = 0;
  /// Fraction of sensitive requests (effective RTL >= D) placed on domains
  /// whose true conduct is below 3 ("misplaced" work).
  double misplaced_sensitive_fraction = 0.0;
  /// Mean residual (uncovered) exposure: the ETS supplement protects the
  /// gap between RTL and the priced table's offered level, so whatever
  /// trust the table over-credits relative to true conduct stays
  /// unprotected: residual = max(0, min(RTL, OTL_table) - true conduct).
  /// This is the quantity an adaptive table drives to zero.
  double mean_residual_exposure = 0.0;
  /// Residual exposure over requests from honest (non-adversarial) client
  /// domains only; equal to mean_residual_exposure without client-side
  /// adversaries.  The victim-side metric of collusion studies.
  double mean_residual_exposure_honest = 0.0;
};

/// Outcome of one campaign.
struct CampaignResult {
  std::vector<CampaignRoundMetrics> rounds;
  ChaosCounters counters;
  /// First round from which the misclassification rate stays zero;
  /// -1 when the table never converges on the ground truth.
  int detection_latency_rounds = -1;
  /// Means over the last half of the rounds (the learned steady state).
  double steady_true_trust_cost = 0.0;
  double steady_makespan = 0.0;
  double steady_misclassification = 0.0;
  trust::TrustLevelTable final_table{1, 1, 1};
  std::uint64_t transactions = 0;
  /// Which reputation backend formed trust (the scenario's selection).
  std::string reputation_backend = "gamma";
  /// The backend's own counters (gamma_evals, purged_recommendations,
  /// rule_firings, ...) snapshotted at campaign end.
  std::vector<std::pair<std::string, std::uint64_t>> backend_counters;

  /// Scalars as a uniform obs::RunReport: rounds, detection_latency_rounds,
  /// steady_true_trust_cost, steady_makespan, steady_misclassification,
  /// transactions, the chaos.* counters, plus one
  /// `trust.<backend>.<counter>` entry per backend counter.
  obs::RunReport report() const;
};

/// Runs one campaign: draws the topology from `scenario` (its `chaos` field
/// supplies adversaries and faults; empty means a clean control run), then
/// plays `config.rounds` scheduling rounds on a DES clock.  Identical
/// (scenario, config, seed) triples produce identical results.
CampaignResult run_campaign(const sim::Scenario& scenario,
                            const CampaignRunConfig& config,
                            std::uint64_t seed);

}  // namespace gridtrust::chaos
