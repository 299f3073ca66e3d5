#include "sim/closed_loop.hpp"

#include <algorithm>
#include <deque>
#include <memory>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "sched/problem.hpp"
#include "trust/beta_reputation.hpp"
#include "trust/gamma_policy.hpp"

namespace gridtrust::sim {

namespace {
const obs::Counter kClosedLoopRounds("sim.closed_loop_rounds");
}  // namespace

obs::RunReport RoundMetrics::report() const {
  obs::RunReport out;
  out.set("round", static_cast<double>(round));
  out.set("makespan", makespan);
  out.set("mean_chosen_tc", mean_chosen_tc);
  out.set("misplaced_sensitive_fraction", misplaced_sensitive_fraction);
  out.set("mean_residual_exposure", mean_residual_exposure);
  out.set("mean_residual_exposure_honest", mean_residual_exposure_honest);
  out.set("table_updates", static_cast<double>(table_updates));
  return out;
}

double DomainBehavior::worst_mean(
    const std::vector<grid::ActivityId>& activities) const {
  GT_REQUIRE(!activities.empty(), "worst_mean needs at least one activity");
  double worst = mean_for(activities.front());
  for (const grid::ActivityId act : activities) {
    worst = std::min(worst, mean_for(act));
  }
  return worst;
}

namespace {

/// Residual (uncovered) exposure of one placement: the supplement covers
/// RTL - OTL_table, so trust over-credited by the table stays unprotected.
/// The binding conduct is the worst one over the request's activities.
double residual_exposure(const grid::Request& req,
                         trust::TrustLevel table_otl,
                         const DomainBehavior& behavior) {
  const double required =
      static_cast<double>(trust::to_numeric(req.effective_rtl()));
  const double believed =
      static_cast<double>(trust::to_numeric(table_otl));
  return std::max(0.0, std::min(required, believed) -
                           behavior.worst_mean(req.activities));
}

double observe(const DomainBehavior& behavior, grid::ActivityId activity,
               Rng& rng) {
  return std::clamp(behavior.mean_for(activity) + rng.normal(0.0, behavior.sigma),
                    1.0, 6.0);
}

}  // namespace

ClosedLoopResult run_closed_loop(const grid::GridSystem& grid,
                                 const std::vector<DomainBehavior>& rd_conduct,
                                 const std::vector<DomainBehavior>& cd_conduct,
                                 const ClosedLoopConfig& config, Rng rng) {
  const std::size_t n_rd = grid.resource_domains().size();
  const std::size_t n_cd = grid.client_domains().size();
  GT_REQUIRE(rd_conduct.size() == n_rd,
             "need one behaviour profile per resource domain");
  GT_REQUIRE(cd_conduct.size() == n_cd,
             "need one behaviour profile per client domain");
  GT_REQUIRE(config.rounds >= 1, "need at least one round");
  GT_REQUIRE(config.tasks_per_round >= 1, "need at least one task per round");
  GT_REQUIRE(trust::to_numeric(config.initial_level) <=
                 trust::to_numeric(trust::kMaxOfferedLevel),
             "initial level must be an offered level (A..E)");

  trust::TrustLevelTable table(n_cd, n_rd, grid.activities().size());
  if (config.initial_table) {
    GT_REQUIRE(config.initial_table->client_domains() == n_cd &&
                   config.initial_table->resource_domains() == n_rd &&
                   config.initial_table->activities() ==
                       grid.activities().size(),
               "warm-start table does not match the grid");
    table = *config.initial_table;
  } else {
    for (std::size_t cd = 0; cd < n_cd; ++cd) {
      for (std::size_t rd = 0; rd < n_rd; ++rd) {
        for (std::size_t act = 0; act < grid.activities().size(); ++act) {
          table.set(cd, rd, act, config.initial_level);
        }
      }
    }
  }
  trust::DomainTrustBridge bridge(
      std::make_unique<trust::GammaReputationPolicy>(
          config.engine, n_cd + n_rd, grid.activities().size()),
      n_cd, n_rd, grid.activities().size(), config.min_transactions);
  trust::BetaReputationEngine beta({}, n_cd + n_rd,
                                   grid.activities().size());

  // Collusion attack wiring.
  for (const auto& [cd, rd] : config.colluding_pairs) {
    GT_REQUIRE(cd < n_cd && rd < n_rd,
               "colluding pair references unknown domains");
    if (config.maintainer == ClosedLoopConfig::TableMaintainer::kGammaBridge) {
      bridge.policy().alliance_graph()->ally(bridge.cd_entity(cd),
                                             bridge.rd_entity(rd));
    }
  }
  const auto colludes = [&](std::size_t cd, std::size_t rd) {
    for (const auto& pair : config.colluding_pairs) {
      if (pair.first == cd && pair.second == rd) return true;
    }
    return false;
  };

  const sched::SecurityCostModel model(config.security);
  ClosedLoopResult result;
  result.rounds.reserve(config.rounds);
  double clock = 0.0;  // global transaction clock across rounds

  // Read replicas: snapshots[0] is what the scheduler sees this round;
  // the master (`table`) is pushed after each round's refresh.
  std::deque<trust::TrustLevelTable> snapshots(
      config.replica_staleness_rounds + 1, table);

  // Conduct evolves if changes are configured.
  std::vector<DomainBehavior> live_rd_conduct = rd_conduct;
  for (const auto& change : config.conduct_changes) {
    GT_REQUIRE(change.rd < n_rd, "conduct change names an unknown RD");
    GT_REQUIRE(change.round < config.rounds,
               "conduct change scheduled past the last round");
    GT_REQUIRE(change.new_mean >= 1.0 && change.new_mean <= 6.0,
               "conduct mean must be on the [1, 6] scale");
  }

  for (std::size_t round = 0; round < config.rounds; ++round) {
    kClosedLoopRounds.add();
    for (const auto& change : config.conduct_changes) {
      if (change.round == round) {
        live_rd_conduct[change.rd].mean = change.new_mean;
      }
    }
    const trust::TrustLevelTable& visible = snapshots.front();
    // --- Generate this round's workload against the visible replica. ---
    auto requests = workload::generate_requests(grid, config.tasks_per_round,
                                                config.requests, rng);
    const auto eec =
        workload::generate_eec(requests.size(), grid.machines().size(),
                               config.heterogeneity, rng);
    const auto tc =
        sched::compute_trust_costs(grid, requests, visible, model);
    std::vector<double> arrivals;
    arrivals.reserve(requests.size());
    for (const auto& r : requests) arrivals.push_back(r.arrival_time);
    const sched::SchedulingProblem problem(
        eec, tc, sched::trust_aware_policy(), model, arrivals);

    // --- Schedule the round. ---
    const SimulationResult sim = run_trms(problem, config.rms);

    // --- Observe: every execution is a transaction on both sides. ---
    RoundMetrics metrics;
    metrics.round = round;
    metrics.makespan = sim.makespan;
    std::size_t sensitive = 0;
    std::size_t misplaced = 0;
    double tc_sum = 0.0;
    double exposure_sum = 0.0;
    double honest_exposure_sum = 0.0;
    std::size_t honest_requests = 0;
    const auto cd_is_honest = [&](std::size_t cd) {
      for (const auto& pair : config.colluding_pairs) {
        if (pair.first == cd) return false;
      }
      return true;
    };
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const std::size_t m = sim.schedule.machine_of[r];
      const grid::ResourceDomainId rd = grid.domain_of_machine(m);
      const std::size_t cd = requests[r].client_domain;
      tc_sum += static_cast<double>(tc.get(r, m));
      const trust::TrustLevel otl = visible.offered_trust_level(
          cd, rd, std::span<const std::size_t>(requests[r].activities));
      const double residual =
          residual_exposure(requests[r], otl, live_rd_conduct[rd]);
      exposure_sum += residual;
      if (cd_is_honest(cd)) {
        honest_exposure_sum += residual;
        ++honest_requests;
      }
      const bool is_sensitive =
          trust::to_numeric(requests[r].effective_rtl()) >=
          trust::to_numeric(trust::TrustLevel::kD);
      if (is_sensitive) {
        ++sensitive;
        if (live_rd_conduct[rd].mean < 3.0) ++misplaced;
      }
      if (config.adaptive) {
        // Transactions are stamped in completion order on a global clock so
        // the engine's monotone-time requirement holds across rounds.
        clock += 1.0;
        for (const grid::ActivityId act : requests[r].activities) {
          // A colluding client domain whitewashes its ally's conduct.
          const double client_score =
              colludes(cd, rd) ? 6.0
                               : observe(live_rd_conduct[rd], act, rng);
          const double resource_score = observe(cd_conduct[cd], act, rng);
          switch (config.maintainer) {
            case ClosedLoopConfig::TableMaintainer::kGammaBridge:
              bridge.observe_client_side(cd, rd, act, clock, client_score);
              bridge.observe_resource_side(rd, cd, act, clock,
                                           resource_score);
              break;
            case ClosedLoopConfig::TableMaintainer::kBetaPooled:
              beta.record_transaction({bridge.cd_entity(cd),
                                       bridge.rd_entity(rd),
                                       static_cast<trust::ContextId>(act),
                                       clock, client_score});
              beta.record_transaction({bridge.rd_entity(rd),
                                       bridge.cd_entity(cd),
                                       static_cast<trust::ContextId>(act),
                                       clock, resource_score});
              break;
          }
        }
      }
    }
    metrics.mean_chosen_tc = tc_sum / static_cast<double>(requests.size());
    metrics.mean_residual_exposure =
        exposure_sum / static_cast<double>(requests.size());
    metrics.mean_residual_exposure_honest =
        honest_requests == 0
            ? 0.0
            : honest_exposure_sum / static_cast<double>(honest_requests);
    metrics.misplaced_sensitive_fraction =
        sensitive == 0 ? 0.0
                       : static_cast<double>(misplaced) /
                             static_cast<double>(sensitive);
    if (config.adaptive) {
      switch (config.maintainer) {
        case ClosedLoopConfig::TableMaintainer::kGammaBridge:
          metrics.table_updates = bridge.refresh(table, clock);
          break;
        case ClosedLoopConfig::TableMaintainer::kBetaPooled: {
          // Pooled refresh: one global opinion per (domain, activity),
          // written into every client domain's row (symmetric quantifier
          // via the min of the two directions, as in the bridge).
          std::size_t updates = 0;
          for (std::size_t rd = 0; rd < n_rd; ++rd) {
            for (std::size_t act = 0; act < grid.activities().size(); ++act) {
              const auto ctx = static_cast<trust::ContextId>(act);
              const auto fwd =
                  beta.evidence(bridge.rd_entity(rd), ctx, clock);
              if (!fwd ||
                  fwd->first + fwd->second <
                      static_cast<double>(config.min_transactions)) {
                continue;
              }
              const trust::TrustLevel rd_level =
                  beta.offered_level(bridge.rd_entity(rd), ctx, clock);
              for (std::size_t cd = 0; cd < n_cd; ++cd) {
                const trust::TrustLevel cd_level =
                    beta.offered_level(bridge.cd_entity(cd), ctx, clock);
                const trust::TrustLevel level =
                    trust::min_level(rd_level, cd_level);
                if (table.get(cd, rd, act) != level) {
                  table.set(cd, rd, act, level);
                  ++updates;
                }
              }
            }
          }
          metrics.table_updates = updates;
          break;
        }
      }
    }
    // Rotate the replica window: the scheduler's next view ages forward.
    snapshots.pop_front();
    snapshots.push_back(table);
    result.rounds.push_back(metrics);
  }

  result.final_table = table;
  result.transactions =
      bridge.policy().transaction_count() + beta.transaction_count();
  return result;
}

}  // namespace gridtrust::sim
