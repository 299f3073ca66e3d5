#include "chaos/campaign.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/trm_simulation.hpp"

namespace gridtrust::chaos {

namespace {

const obs::Counter kCampaignRounds("chaos.campaign_rounds");

}  // namespace

obs::RunReport CampaignResult::report() const {
  obs::RunReport out;
  out.set("rounds", static_cast<double>(rounds.size()));
  out.set("detection_latency_rounds",
          static_cast<double>(detection_latency_rounds));
  out.set("steady_true_trust_cost", steady_true_trust_cost);
  out.set("steady_makespan", steady_makespan);
  out.set("steady_misclassification", steady_misclassification);
  out.set_count("transactions", transactions);
  counters.to_report(out);
  const std::string prefix = "trust." + reputation_backend + ".";
  for (const auto& [name, value] : backend_counters) {
    out.set_count(prefix + name, value);
  }
  return out;
}

CampaignResult run_campaign(const sim::Scenario& scenario,
                            const CampaignRunConfig& config,
                            std::uint64_t seed) {
  CampaignResult result;
  result.rounds.reserve(config.rounds);
  CampaignRoundMetrics metrics;

  sim::CampaignStages stages;
  stages.round_event = "chaos_round";
  // Schedule the round, then price the placements against true conduct
  // (what they actually expose) and against the priced table (what it
  // believed), and measure the exposure the table left uncovered.
  stages.clear = [&](sim::CampaignRound& round) {
    kCampaignRounds.add();
    metrics = CampaignRoundMetrics{};
    metrics.round = round.index;
    metrics.machines_down = round.faults.machines_down();
    const sim::SimulationResult trms =
        sim::run_trms(round.problem, scenario.rms);
    metrics.makespan = trms.makespan;
    const sched::SecurityCostModel& model = round.problem.security_model();
    double true_tc_sum = 0.0;
    double table_tc_sum = 0.0;
    double exposure_sum = 0.0;
    double honest_exposure_sum = 0.0;
    std::size_t honest_requests = 0;
    std::size_t sensitive = 0;
    std::size_t misplaced = 0;
    for (std::size_t r = 0; r < round.requests.size(); ++r) {
      const grid::Request& request = round.requests[r];
      const std::size_t m = trms.schedule.machine_of[r];
      const grid::ResourceDomainId rd = round.grid.domain_of_machine(m);
      const double rd_mean = round.behavior.rd_conduct_mean(
          rd, round.index, config.honest_rd_mean);
      const trust::TrustLevel rtl = request.effective_rtl();
      const trust::TrustLevel true_offered = trust::min_level(
          trust::quantize_level(rd_mean), trust::kMaxOfferedLevel);
      true_tc_sum += static_cast<double>(model.trust_cost(rtl, true_offered));
      table_tc_sum += static_cast<double>(round.problem.trust_cost(r, m));

      // The supplement covers RTL - OTL_table, so whatever trust the priced
      // table over-credits relative to true conduct stays unprotected.
      const trust::TrustLevel believed = round.priced.offered_trust_level(
          request.client_domain, rd,
          std::span<const std::size_t>(request.activities));
      const int covered =
          std::min(trust::to_numeric(rtl), trust::to_numeric(believed));
      const double residual =
          std::max(0.0, static_cast<double>(covered) - rd_mean);
      exposure_sum += residual;
      if (!round.behavior.adversarial_cd(request.client_domain)) {
        honest_exposure_sum += residual;
        ++honest_requests;
      }
      if (trust::to_numeric(rtl) >= trust::to_numeric(trust::TrustLevel::kD)) {
        ++sensitive;
        if (rd_mean < 3.0) ++misplaced;
      }
    }
    const auto n = static_cast<double>(round.requests.size());
    metrics.mean_true_trust_cost = true_tc_sum / n;
    metrics.mean_table_trust_cost = table_tc_sum / n;
    metrics.mean_residual_exposure = exposure_sum / n;
    metrics.mean_residual_exposure_honest =
        honest_requests == 0
            ? 0.0
            : honest_exposure_sum / static_cast<double>(honest_requests);
    metrics.misplaced_sensitive_fraction =
        sensitive == 0 ? 0.0
                       : static_cast<double>(misplaced) /
                             static_cast<double>(sensitive);
    return trms.schedule.machine_of;
  };
  // Misclassification against ground truth, post-refresh/reset.
  stages.end_round = [&](const sim::CampaignRound& round) {
    metrics.table_updates = round.table_updates;
    const std::size_t n_rd = round.table.resource_domains();
    std::size_t wrong = 0;
    for (std::size_t rd = 0; rd < n_rd; ++rd) {
      const bool believed_bad = sim::mean_table_level(round.table, rd) < 3.0;
      if (believed_bad != round.behavior.adversarial_rd(rd)) ++wrong;
    }
    metrics.misclassification_rate =
        static_cast<double>(wrong) / static_cast<double>(n_rd);
    result.rounds.push_back(metrics);
  };

  sim::CampaignLoopResult loop =
      sim::run_campaign_loop(scenario, config, seed, stages);

  // Detection latency: the first round from which the table's adversary
  // labels stay correct.  A clean campaign detects at round 0 by definition.
  int latency = 0;
  for (std::size_t i = result.rounds.size(); i-- > 0;) {
    if (result.rounds[i].misclassification_rate > 0.0) {
      latency = static_cast<int>(i) + 1;
      break;
    }
  }
  result.detection_latency_rounds =
      latency >= static_cast<int>(result.rounds.size()) ? -1 : latency;

  result.steady_true_trust_cost = sim::steady_state_mean(
      result.rounds, &CampaignRoundMetrics::mean_true_trust_cost);
  result.steady_makespan =
      sim::steady_state_mean(result.rounds, &CampaignRoundMetrics::makespan);
  result.steady_misclassification = sim::steady_state_mean(
      result.rounds, &CampaignRoundMetrics::misclassification_rate);

  result.counters = loop.counters;
  result.final_table = std::move(loop.final_table);
  result.transactions = loop.transactions;
  result.reputation_backend = std::move(loop.reputation_backend);
  result.backend_counters = std::move(loop.backend_counters);
  return result;
}

}  // namespace gridtrust::chaos
