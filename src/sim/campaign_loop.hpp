// The campaign loop: the paper's Fig. 1 cycle as one driver.
//
// Every round, on a DES clock, the loop generates a workload (perturbed by
// the scenario's live machine faults), prices it against the current
// trust-level table, hands it to a clearing stage that places requests,
// observes every placed request through the domain agents (forged, dropped,
// and delayed reports included), refreshes the table, lets whitewashing
// adversaries reset their identity, and finally runs a round-end stage.
//
// The two campaign drivers are two pairs of stages over this one loop:
//   - chaos::run_campaign clears with run_trms and measures
//     misclassification at round end;
//   - econ::run_market_campaign clears with run_market and reprices at
//     round end.
// RNG streams 0..3 of the seed (topology, workload, conduct, chaos) belong
// to the loop; a stage that needs randomness of its own draws it from a
// higher stream so it never shifts the loop's draws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/behavior.hpp"
#include "chaos/config.hpp"
#include "chaos/faults.hpp"
#include "grid/grid_system.hpp"
#include "grid/request.hpp"
#include "sched/problem.hpp"
#include "sched/schedule.hpp"
#include "sim/experiment.hpp"
#include "trust/trust_engine.hpp"
#include "trust/trust_level.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust::sim {

/// Closed-loop knobs shared by every campaign driver (the adversarial knobs
/// live in the scenario's CampaignConfig, the economic ones in its
/// EconomyConfig).
struct CampaignLoopConfig {
  /// Rounds; each lasts round_period seconds of DES time.
  std::size_t rounds = 16;
  std::size_t tasks_per_round = 40;
  double round_period = 60.0;
  /// Trust-aware (TC-priced, table-driven) vs trust-unaware (EEC-only
  /// decisions, blanket security) arm.
  bool trust_aware = true;
  /// When false the table never updates (ablation: how much of the
  /// robustness comes from trust *evolution* rather than trust *pricing*).
  bool adaptive = true;
  /// Every table entry starts here — strangers get the benefit of the doubt,
  /// which is exactly what whitewashing exploits.
  trust::TrustLevel initial_level = trust::TrustLevel::kE;
  /// Observations required before an agent may update a table entry.
  std::uint64_t min_transactions = 3;
  /// Read-replica staleness: §3.1 lets the central table be "replicated at
  /// different domains for reading purposes".  Round k is priced against
  /// the master table as of round k - replica_staleness_rounds (0 = the
  /// master itself); agents always write the master.
  std::size_t replica_staleness_rounds = 0;
  trust::TrustEngineConfig engine;
  /// Latent conduct means of domains without an adversary spec.
  double honest_rd_mean = 5.4;
  double honest_cd_mean = 5.2;
  /// Observation noise around the latent conduct mean.
  double conduct_sigma = 0.3;
};

/// What the stages see of one round.
struct CampaignRound {
  std::size_t index = 0;
  const grid::GridSystem& grid;
  const chaos::BehaviorEngine& behavior;
  const chaos::FaultInjector& faults;
  /// This round's requests; the clearing stage may draw terms into them.
  std::vector<grid::Request>& requests;
  /// The fault-perturbed, table-priced instance of `requests`.
  const sched::SchedulingProblem& problem;
  /// The replica `problem` was priced against (the master table itself
  /// when replica_staleness_rounds is 0).
  const trust::TrustLevelTable& priced;
  /// The live master table: refreshed and whitewashed by the time the
  /// round-end stage runs.
  const trust::TrustLevelTable& table;
  /// Entries the refresh rewrote (0 until then, and when not adaptive).
  std::size_t table_updates = 0;
};

/// The driver-specific halves of a round.
struct CampaignStages {
  /// DES event type of a round; names its des.event_ns.<type> histogram.
  const char* round_event = "campaign_round";
  /// Places every request: its machine, or sched::kUnassigned when it is
  /// not served.  Only placed requests generate transaction evidence.
  std::function<std::vector<std::size_t>(CampaignRound&)> clear;
  /// Runs after the refresh and whitewashing.
  std::function<void(const CampaignRound&)> end_round;
};

/// What the loop itself learned over a campaign.
struct CampaignLoopResult {
  /// Fault windows opened and evidence perturbations applied.
  chaos::ChaosCounters counters;
  trust::TrustLevelTable final_table{1, 1, 1};
  std::uint64_t transactions = 0;
  /// Which reputation backend formed trust, and its counters at the end.
  std::string reputation_backend;
  std::vector<std::pair<std::string, std::uint64_t>> backend_counters;
};

/// Runs `config.rounds` rounds of the campaign loop over `scenario`, calling
/// `stages` once each per round.  Identical (scenario, config, seed, stage
/// behaviour) produce identical results.
CampaignLoopResult run_campaign_loop(const Scenario& scenario,
                                     const CampaignLoopConfig& config,
                                     std::uint64_t seed,
                                     const CampaignStages& stages);

/// Mean numeric table level of resource domain `rd` over all (CD, activity)
/// entries: the whitewash trigger, and what the round-end stages read as
/// the table's verdict on a domain.
double mean_table_level(const trust::TrustLevelTable& table, std::size_t rd);

/// Mean of `field` over the last half of `rounds` (the learned steady
/// state).  `rounds` must not be empty.
template <typename Round>
double steady_state_mean(const std::vector<Round>& rounds,
                         double Round::*field) {
  const std::size_t half = rounds.size() / 2;
  double sum = 0.0;
  for (std::size_t i = half; i < rounds.size(); ++i) sum += rounds[i].*field;
  return sum / static_cast<double>(rounds.size() - half);
}

}  // namespace gridtrust::sim
