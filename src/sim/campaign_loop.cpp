#include "sim/campaign_loop.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "common/error.hpp"
#include "des/simulator.hpp"
#include "obs/metrics.hpp"
#include "trust/agents.hpp"
#include "trust/reputation_registry.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/request_gen.hpp"

namespace gridtrust::sim {

namespace {

const obs::Counter kOutcomesFlipped("chaos.outcomes_flipped");
const obs::Counter kRecsForged("chaos.recommendations_forged");
const obs::Counter kRecsDropped("chaos.recommendations_dropped");
const obs::Counter kRecsDelayed("chaos.recommendations_delayed");
const obs::Counter kWhitewashResets("chaos.whitewash_resets");

/// One recommendation held back by an active report-delay fault.
struct PendingReport {
  std::size_t cd = 0;
  std::size_t rd = 0;
  std::size_t activity = 0;
  double score = 0.0;
};

double observe(double mean, double sigma, Rng& rng) {
  return std::clamp(mean + rng.normal(0.0, sigma), 1.0, 6.0);
}

/// Resets every table entry of `rd` to `level`.
void reset_domain(trust::TrustLevelTable& table, std::size_t rd,
                  trust::TrustLevel level) {
  for (std::size_t cd = 0; cd < table.client_domains(); ++cd) {
    for (std::size_t act = 0; act < table.activities(); ++act) {
      table.set(cd, rd, act, level);
    }
  }
}

}  // namespace

double mean_table_level(const trust::TrustLevelTable& table, std::size_t rd) {
  double sum = 0.0;
  for (std::size_t cd = 0; cd < table.client_domains(); ++cd) {
    for (std::size_t act = 0; act < table.activities(); ++act) {
      sum += static_cast<double>(trust::to_numeric(table.get(cd, rd, act)));
    }
  }
  return sum / static_cast<double>(table.client_domains() *
                                   table.activities());
}

CampaignLoopResult run_campaign_loop(const Scenario& scenario,
                                     const CampaignLoopConfig& config,
                                     std::uint64_t seed,
                                     const CampaignStages& stages) {
  GT_REQUIRE(config.rounds >= 1, "need at least one round");
  GT_REQUIRE(config.tasks_per_round >= 1, "need at least one task per round");
  GT_REQUIRE(config.round_period > 0.0, "round period must be positive");
  GT_REQUIRE(trust::to_numeric(config.initial_level) <=
                 trust::to_numeric(trust::kMaxOfferedLevel),
             "initial level must be an offered level (A..E)");
  GT_REQUIRE(config.honest_rd_mean >= 1.0 && config.honest_rd_mean <= 6.0 &&
                 config.honest_cd_mean >= 1.0 && config.honest_cd_mean <= 6.0,
             "honest conduct means must be on the [1, 6] trust scale");
  GT_REQUIRE(config.conduct_sigma >= 0.0,
             "conduct noise must be non-negative");
  GT_REQUIRE(stages.clear && stages.end_round,
             "a campaign needs a clearing and a round-end stage");
  scenario.chaos.validate();

  // Independent substreams so adding chaos randomness never shifts the
  // topology or workload draws of the clean arm.
  const Rng master(seed);
  Rng topo_rng = master.stream(0);
  Rng workload_rng = master.stream(1);
  Rng conduct_rng = master.stream(2);
  Rng chaos_rng = master.stream(3);

  const grid::GridSystem grid = grid::make_random_grid(scenario.grid, topo_rng);
  const std::size_t n_rd = grid.resource_domains().size();
  const std::size_t n_cd = grid.client_domains().size();
  const std::size_t n_act = grid.activities().size();
  const std::size_t n_machines = grid.machines().size();

  const chaos::BehaviorEngine behavior(scenario.chaos.adversaries, n_rd, n_cd);
  for (const chaos::FaultSpec& spec : scenario.chaos.faults) {
    if (spec.kind == chaos::FaultKind::kReportDrop ||
        spec.kind == chaos::FaultKind::kReportDelay) {
      GT_REQUIRE(spec.target == chaos::kAllTargets || spec.target < n_cd,
                 "report fault targets an unknown client domain");
    }
  }

  trust::TrustLevelTable table(n_cd, n_rd, n_act);
  for (std::size_t rd = 0; rd < n_rd; ++rd) {
    reset_domain(table, rd, config.initial_level);
  }
  trust::ReputationParams params;
  params.entities = n_cd + n_rd;
  params.contexts = n_act;
  params.gamma = config.engine;
  trust::DomainTrustBridge bridge(
      trust::make_reputation_policy(scenario.reputation.name, params), n_cd,
      n_rd, n_act, config.min_transactions);
  // Register collusive alliances so the recommender factor R can discount
  // ballot-stuffed recommendations (§2.2's collusion defence).  Backends
  // without an alliance notion (beta, fuzzy) face the same forged stream
  // with no structural hint — exactly the handicap the tournament measures.
  if (trust::AllianceGraph* alliances = bridge.policy().alliance_graph()) {
    for (const auto& [cd, rd] : behavior.collusive_pairs()) {
      alliances->ally(bridge.cd_entity(cd), bridge.rd_entity(rd));
    }
  }

  chaos::FaultInjector injector(scenario.chaos.faults, n_machines);
  des::Simulator des;
  injector.install(des);

  const sched::SecurityCostModel model(scenario.security);
  const sched::SchedulingPolicy policy = config.trust_aware
                                             ? sched::trust_aware_policy()
                                             : sched::trust_unaware_policy();

  CampaignLoopResult result;
  chaos::ChaosCounters& counters = result.counters;
  // Reports held back by delay faults, keyed by delivery round.
  std::map<std::size_t, std::vector<PendingReport>> delayed;
  // Stale read replicas, oldest first: the front prices this round, and
  // the master is pushed at the end of every round.  Empty when rounds
  // read the master directly.
  std::deque<trust::TrustLevelTable> replicas;
  if (config.replica_staleness_rounds > 0) {
    replicas.assign(config.replica_staleness_rounds + 1, table);
  }
  double clock = 0.0;  // transaction clock, monotone across rounds

  const auto run_round = [&](std::size_t round) {
    // Delayed recommendations arrive at the top of their delivery round,
    // stamped with the *current* clock (the engine requires non-decreasing
    // transaction times; the delay is exactly why the evidence is stale).
    if (const auto it = delayed.find(round); it != delayed.end()) {
      if (config.adaptive) {
        for (const PendingReport& report : it->second) {
          bridge.observe_client_side(report.cd, report.rd, report.activity,
                                     clock, report.score);
        }
      }
      delayed.erase(it);
    }

    // --- Generate this round's workload; live faults perturb the costs. ---
    auto requests = workload::generate_requests(
        grid, config.tasks_per_round, scenario.requests, workload_rng);
    auto eec = workload::generate_eec(requests.size(), n_machines,
                                      scenario.heterogeneity, workload_rng);
    for (std::size_t m = 0; m < n_machines; ++m) {
      const double factor = injector.slowdown(m);
      const bool up = injector.machine_up(m);
      if (factor == 1.0 && up) continue;
      for (std::size_t r = 0; r < requests.size(); ++r) {
        double cost = eec.get(r, m) * factor;
        if (!up) cost += scenario.chaos.crash_penalty;
        eec.at(r, m) = cost;
      }
    }
    const trust::TrustLevelTable& priced =
        replicas.empty() ? table : replicas.front();
    auto tc = sched::compute_trust_costs(grid, requests, priced, model);
    std::vector<double> arrivals;
    arrivals.reserve(requests.size());
    for (const auto& r : requests) arrivals.push_back(r.arrival_time);
    const sched::SchedulingProblem problem(std::move(eec), std::move(tc),
                                           policy, model, std::move(arrivals));

    CampaignRound view{round, grid, behavior, injector, requests, problem,
                       priced, table};
    const std::vector<std::size_t> placement = stages.clear(view);
    GT_REQUIRE(placement.size() == requests.size(),
               "the clearing stage must place every request or reject it");

    // --- Observe: every placed request is a transaction on both sides,
    // subject to forged, dropped, and delayed reports. ---
    for (std::size_t r = 0; r < requests.size(); ++r) {
      if (placement[r] == sched::kUnassigned) continue;
      const grid::ResourceDomainId rd = grid.domain_of_machine(placement[r]);
      const std::size_t cd = requests[r].client_domain;
      const double rd_mean =
          behavior.rd_conduct_mean(rd, round, config.honest_rd_mean);
      clock += 1.0;
      const bool misbehaving = behavior.rd_misbehaving(rd, round);
      for (const grid::ActivityId act : requests[r].activities) {
        if (misbehaving) {
          ++counters.outcomes_flipped;
          kOutcomesFlipped.add();
        }
        double client_score;
        if (const auto forged = behavior.forged_report(cd, rd)) {
          client_score = *forged;
          ++counters.recommendations_forged;
          kRecsForged.add();
        } else {
          client_score = observe(rd_mean, config.conduct_sigma, conduct_rng);
        }
        const double resource_score = observe(
            behavior.cd_conduct_mean(cd, round, config.honest_cd_mean),
            config.conduct_sigma, conduct_rng);
        if (config.adaptive) {
          // Report-channel faults act on the CD -> table path only; the
          // resource-side agent reports through a different channel.
          const double drop_p = injector.report_drop_probability(cd);
          const std::size_t delay = injector.report_delay_rounds(cd);
          if (drop_p > 0.0 && chaos_rng.bernoulli(drop_p)) {
            ++counters.recommendations_dropped;
            kRecsDropped.add();
          } else if (delay > 0) {
            delayed[round + delay].push_back({cd, rd, act, client_score});
            ++counters.recommendations_delayed;
            kRecsDelayed.add();
          } else {
            bridge.observe_client_side(cd, rd, act, clock, client_score);
          }
          bridge.observe_resource_side(rd, cd, act, clock, resource_score);
        }
      }
    }

    if (config.adaptive) {
      view.table_updates = bridge.refresh(table, clock);
    }

    // --- Whitewashing: a collapsed adversary resets its identity.  The
    // policy forgets every record involving the domain and the table snaps
    // back to the stranger level — the cost of admitting newcomers. ---
    for (std::size_t rd = 0; rd < n_rd; ++rd) {
      if (!behavior.should_whitewash(rd, mean_table_level(table, rd))) {
        continue;
      }
      bridge.policy().forget(bridge.rd_entity(rd));
      reset_domain(table, rd, config.initial_level);
      ++counters.whitewash_resets;
      kWhitewashResets.add();
    }

    stages.end_round(view);
    if (!replicas.empty()) {
      replicas.pop_front();
      replicas.push_back(table);
    }
  };

  for (std::size_t round = 0; round < config.rounds; ++round) {
    des.schedule_at(static_cast<double>(round) * config.round_period,
                    [&run_round, round] { run_round(round); },
                    stages.round_event);
  }
  des.run();

  counters.faults_injected = injector.faults_injected();
  result.final_table = table;
  result.transactions = bridge.policy().transaction_count();
  result.reputation_backend = bridge.policy().name();
  result.backend_counters = bridge.policy().counters();
  return result;
}

}  // namespace gridtrust::sim
