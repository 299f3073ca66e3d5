#include "econ/campaign.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "econ/market.hpp"
#include "econ/price_model.hpp"
#include "obs/metrics.hpp"
#include "sched/schedule.hpp"

namespace gridtrust::econ {

namespace {

const obs::Counter kMarketRounds("econ.market_rounds");
const obs::Counter kServed("econ.served");
const obs::Counter kRejectedBudget("econ.rejected_budget");
const obs::Counter kRejectedDeadline("econ.rejected_deadline");
const obs::Counter kBudgetOverruns("econ.budget_overruns");
const obs::Counter kDeadlineMisses("econ.deadline_misses");

}  // namespace

obs::RunReport MarketCampaignResult::report() const {
  obs::RunReport out;
  out.set("rounds", static_cast<double>(rounds.size()));
  out.set("served_fraction", served_fraction);
  out.set("budget_overrun_rate", budget_overrun_rate);
  out.set("deadline_miss_rate", deadline_miss_rate);
  out.set("steady_spend", steady_spend);
  out.set("steady_welfare", steady_welfare);
  out.set("steady_price_index", steady_price_index);
  out.set("steady_adversary_premium", steady_adversary_premium);
  out.set_count("transactions", transactions);
  counters.to_report(out);
  return out;
}

MarketCampaignResult run_market_campaign(const sim::Scenario& scenario,
                                         const MarketRunConfig& config,
                                         std::uint64_t seed) {
  GT_REQUIRE(scenario.economy.enabled,
             "market campaign needs an enabled economy "
             "(ScenarioBuilder::with_economy)");
  scenario.economy.validate();
  const MechanismKind mechanism =
      mechanism_from_string(scenario.economy.mechanism);

  // The loop owns streams 0..3, so the topology, workload, and conduct
  // draws of a market campaign agree with the chaos campaign on the same
  // seed; the economy's own draws live on stream 4, where they cannot shift
  // anything the un-priced loop consumes.
  Rng econ_rng = Rng(seed).stream(4);
  std::unique_ptr<PriceModel> prices;

  MarketCampaignResult result;
  result.rounds.reserve(config.rounds);
  result.mechanism = scenario.economy.mechanism;
  std::uint64_t offered = 0;
  MarketRoundMetrics metrics;
  MarketResult cleared;

  sim::CampaignStages stages;
  stages.round_event = "econ_round";
  stages.clear = [&](sim::CampaignRound& round) {
    kMarketRounds.add();
    const std::size_t n_machines = round.grid.machines().size();
    if (!prices) {  // base rates are the first stream-4 draw
      prices = make_price_model(
          scenario.economy,
          draw_base_rates(scenario.economy, n_machines, econ_rng));
    }
    // QoS terms anchor on the *clean* decision costs and current rates, so
    // a buyer's budget reflects what it believed the market charges.
    draw_qos_terms(round.requests, round.problem.eec_matrix(),
                   prices->rates(), scenario.economy, econ_rng);

    // Round-local time; arrivals are intra-round.
    const MarketProblem market(round.problem, round.requests,
                               prices->rates());
    cleared = run_market(market, mechanism);
    offered += round.requests.size();
    metrics = MarketRoundMetrics{};
    metrics.round = round.index;
    metrics.served = static_cast<std::size_t>(cleared.counters.served);
    metrics.rejected =
        static_cast<std::size_t>(cleared.counters.rejected_budget +
                                 cleared.counters.rejected_deadline);
    metrics.total_spend = cleared.total_spend;
    metrics.welfare = cleared.welfare;
    metrics.budget_overruns =
        static_cast<std::size_t>(cleared.counters.budget_overruns);
    metrics.deadline_misses =
        static_cast<std::size_t>(cleared.counters.deadline_misses);
    result.counters += cleared.counters;
    kServed.add(static_cast<double>(cleared.counters.served));
    kRejectedBudget.add(static_cast<double>(cleared.counters.rejected_budget));
    kRejectedDeadline.add(
        static_cast<double>(cleared.counters.rejected_deadline));
    kBudgetOverruns.add(static_cast<double>(cleared.counters.budget_overruns));
    kDeadlineMisses.add(static_cast<double>(cleared.counters.deadline_misses));

    // A rejected request never touches a machine, so the trust machinery
    // learns nothing from it.
    std::vector<std::size_t> placement(cleared.outcomes.size());
    for (std::size_t r = 0; r < placement.size(); ++r) {
      placement[r] = cleared.outcomes[r].served ? cleared.outcomes[r].machine
                                                : sched::kUnassigned;
    }
    return placement;
  };
  // Reprice for the next round from realized utilization and the refreshed
  // table: trust moved, so trust-weighted rates move too.
  stages.end_round = [&](const sim::CampaignRound& round) {
    const std::size_t n_machines = round.grid.machines().size();
    double makespan = 0.0;
    for (std::size_t m = 0; m < n_machines; ++m) {
      makespan = std::max(makespan, cleared.schedule.machine_available[m]);
    }
    metrics.makespan = makespan;
    RoundSignals signals;
    signals.utilization.resize(n_machines, 0.0);
    signals.trust_level.resize(n_machines, 0.0);
    for (std::size_t m = 0; m < n_machines; ++m) {
      signals.utilization[m] =
          makespan > 0.0 ? cleared.schedule.machine_available[m] / makespan
                         : 0.0;
      signals.trust_level[m] = sim::mean_table_level(
          round.table, round.grid.domain_of_machine(m));
    }
    prices->update_round(signals);
    metrics.price_index = prices->price_index();

    // Adversary price premium: what the cartel's machines charge relative
    // to honest machines after this round's repricing.
    double adv_sum = 0.0;
    double hon_sum = 0.0;
    std::size_t adv_n = 0;
    std::size_t hon_n = 0;
    for (std::size_t m = 0; m < n_machines; ++m) {
      if (round.behavior.adversarial_rd(round.grid.domain_of_machine(m))) {
        adv_sum += prices->rate(m);
        ++adv_n;
      } else {
        hon_sum += prices->rate(m);
        ++hon_n;
      }
    }
    if (adv_n > 0 && hon_n > 0 && hon_sum > 0.0) {
      metrics.adversary_premium =
          (adv_sum / static_cast<double>(adv_n)) /
          (hon_sum / static_cast<double>(hon_n));
    }
    result.rounds.push_back(metrics);
  };

  const sim::CampaignLoopResult loop =
      sim::run_campaign_loop(scenario, config, seed, stages);

  result.pricing = prices->name();
  result.served_fraction =
      offered > 0 ? static_cast<double>(result.counters.served) /
                        static_cast<double>(offered)
                  : 0.0;
  if (result.counters.served > 0) {
    result.budget_overrun_rate =
        static_cast<double>(result.counters.budget_overruns) /
        static_cast<double>(result.counters.served);
    result.deadline_miss_rate =
        static_cast<double>(result.counters.deadline_misses) /
        static_cast<double>(result.counters.served);
  }
  result.steady_spend =
      sim::steady_state_mean(result.rounds, &MarketRoundMetrics::total_spend);
  result.steady_welfare =
      sim::steady_state_mean(result.rounds, &MarketRoundMetrics::welfare);
  result.steady_price_index =
      sim::steady_state_mean(result.rounds, &MarketRoundMetrics::price_index);
  result.steady_adversary_premium = sim::steady_state_mean(
      result.rounds, &MarketRoundMetrics::adversary_premium);
  result.transactions = loop.transactions;
  result.reputation_backend = loop.reputation_backend;
  return result;
}

}  // namespace gridtrust::econ
