// Market campaigns: the closed trust loop with money flowing through it.
//
// A market campaign runs the same closed loop as chaos::run_campaign,
// sim::run_campaign_loop (generate -> clear -> observe -> refresh on a DES
// clock, with the scenario's CampaignConfig supplying adversaries and
// faults), but its clearing stage is a market instead of the
// cost-minimizing mapper: machines post per-second rates from the
// scenario's PriceModel, requests carry drawn deadlines / budgets /
// valuations, and one of the run_market mechanisms allocates.  Its
// round-end stage folds realized utilization and the table's current trust
// levels into the price model, closing a second loop: trust moves prices,
// prices move placements, placements generate the evidence trust is formed
// from.
//
// This is where the cartel question becomes measurable: a collusive
// alliance ballot-stuffs the very trust levels a trust-weighted price model
// pays a premium for, so the adversary price premium (cartel rates over
// honest rates) quantifies how much revenue the manipulation buys before
// the recommender factor claws it back.  Everything is a pure function of
// (scenario, config, seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "econ/config.hpp"
#include "obs/report.hpp"
#include "sim/campaign_loop.hpp"
#include "sim/experiment.hpp"

namespace gridtrust::econ {

/// Closed-loop knobs of one market campaign (the economic knobs live in
/// the scenario's EconomyConfig, the adversarial ones in its CampaignConfig).
struct MarketRunConfig : sim::CampaignLoopConfig {
  MarketRunConfig() {
    rounds = 12;
    tasks_per_round = 30;
  }
};

/// Per-round market metrics.
struct MarketRoundMetrics {
  std::size_t round = 0;
  std::size_t served = 0;
  std::size_t rejected = 0;
  double total_spend = 0.0;
  double welfare = 0.0;
  double makespan = 0.0;
  /// sum(rate) / sum(base rate) *after* this round's price update — the
  /// price level the next round will trade at.
  double price_index = 0.0;
  /// Mean rate of machines in ground-truth adversarial domains over the
  /// mean rate of honest-domain machines; 1.0 when either set is empty.
  /// Under trust pricing an undetected cartel holds this at or above 1.
  double adversary_premium = 1.0;
  std::size_t budget_overruns = 0;
  std::size_t deadline_misses = 0;
};

/// Outcome of one market campaign.
struct MarketCampaignResult {
  std::vector<MarketRoundMetrics> rounds;
  EconCounters counters;
  /// Requests served over requests offered, whole campaign.
  double served_fraction = 0.0;
  /// Budget overruns / deadline misses per *served* request.
  double budget_overrun_rate = 0.0;
  double deadline_miss_rate = 0.0;
  /// Means over the last half of the rounds (the learned steady state).
  double steady_spend = 0.0;
  double steady_welfare = 0.0;
  double steady_price_index = 0.0;
  double steady_adversary_premium = 0.0;
  std::uint64_t transactions = 0;
  /// Which reputation backend, price model, and mechanism ran.
  std::string reputation_backend = "gamma";
  std::string pricing = "flat";
  std::string mechanism = "posted-cost";

  /// Scalars as a uniform obs::RunReport: rounds, served_fraction,
  /// budget_overrun_rate, deadline_miss_rate, the steady_* means,
  /// transactions, and the econ.* counters.
  obs::RunReport report() const;
};

/// Runs one market campaign over `scenario` (whose economy must be
/// enabled; its `chaos` field supplies adversaries and faults, empty means
/// an honest market).  Identical (scenario, config, seed) triples produce
/// identical results.
MarketCampaignResult run_market_campaign(const sim::Scenario& scenario,
                                         const MarketRunConfig& config,
                                         std::uint64_t seed);

}  // namespace gridtrust::econ
