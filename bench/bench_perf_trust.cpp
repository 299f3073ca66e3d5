// Microbenchmarks (google-benchmark): reputation-backend operation costs —
// transaction folding, trust evaluation across every registered backend,
// one Fig. 1 table refresh at campaign scale, and the trust-cost matrix
// construction the scheduler performs per meta-request.  Backends are
// constructed through the registry, so the numbers measure exactly what
// campaign code pays.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "sched/problem.hpp"
#include "trust/agents.hpp"
#include "trust/reputation_registry.hpp"
#include "trust/trust_table.hpp"
#include "workload/request_gen.hpp"

namespace {

using namespace gridtrust;

std::unique_ptr<trust::ReputationPolicy> seeded_policy(
    const std::string& backend, std::size_t entities, std::size_t contexts,
    std::size_t transactions) {
  trust::ReputationParams params;
  params.entities = entities;
  params.contexts = contexts;
  auto policy = trust::make_reputation_policy(backend, params);
  Rng rng(7);
  for (std::size_t i = 0; i < transactions; ++i) {
    const auto a = static_cast<trust::EntityId>(rng.index(entities));
    auto b = static_cast<trust::EntityId>(rng.index(entities));
    if (a == b) b = static_cast<trust::EntityId>((b + 1) % entities);
    policy->record_transaction({a, b,
                                static_cast<trust::ContextId>(
                                    rng.index(contexts)),
                                static_cast<double>(i),
                                rng.uniform(1.0, 6.0)});
  }
  return policy;
}

void BM_RecordTransaction(benchmark::State& state, const std::string& backend) {
  const auto entities = static_cast<std::size_t>(state.range(0));
  trust::ReputationParams params;
  params.entities = entities;
  params.contexts = 4;
  const auto policy = trust::make_reputation_policy(backend, params);
  Rng rng(3);
  double t = 0.0;
  for (auto _ : state) {
    const auto a = static_cast<trust::EntityId>(rng.index(entities));
    auto b = static_cast<trust::EntityId>(rng.index(entities));
    if (a == b) b = static_cast<trust::EntityId>((b + 1) % entities);
    t += 1.0;
    policy->record_transaction({a, b, 0, t, 3.0});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Evaluate(benchmark::State& state, const std::string& backend) {
  const auto entities = static_cast<std::size_t>(state.range(0));
  const auto policy = seeded_policy(backend, entities, 4, entities * 50);
  Rng rng(9);
  const double now = static_cast<double>(entities * 50);
  for (auto _ : state) {
    const auto a = static_cast<trust::EntityId>(rng.index(entities));
    auto b = static_cast<trust::EntityId>(rng.index(entities));
    if (a == b) b = static_cast<trust::EntityId>((b + 1) % entities);
    benchmark::DoNotOptimize(policy->evaluate(a, b, 0, now));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// One DomainTrustBridge::refresh sized like a chaos_robustness campaign:
// 3 CDs, 10 RDs, the 8 standard activities, the gamma backend, and a seeded
// history of `range(0)` observations per side that populates every
// (CD, RD, activity) entry in both directions.  Each refresh re-evaluates Γ
// for all 240 entries twice (forward and reverse).
void BM_BridgeRefresh(benchmark::State& state) {
  constexpr std::size_t kCds = 3;
  constexpr std::size_t kRds = 10;
  constexpr std::size_t kActivities = 8;
  const auto observations = static_cast<std::size_t>(state.range(0));
  trust::ReputationParams params;
  params.entities = kCds + kRds;
  params.contexts = kActivities;
  trust::DomainTrustBridge bridge(
      trust::make_reputation_policy("gamma", params), kCds, kRds, kActivities);
  Rng rng(13);
  double t = 0.0;
  for (std::size_t i = 0; i < observations; ++i) {
    const std::size_t cd = rng.index(kCds);
    const std::size_t rd = rng.index(kRds);
    const std::size_t act = rng.index(kActivities);
    t += 1.0;
    bridge.observe_client_side(cd, rd, act, t, rng.uniform(1.0, 6.0));
    bridge.observe_resource_side(rd, cd, act, t, rng.uniform(1.0, 6.0));
  }
  trust::TrustLevelTable table(kCds, kRds, kActivities);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bridge.refresh(table, t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCds * kRds * kActivities));
}

void BM_TrustCostMatrix(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  grid::RandomGridParams params;
  params.machines = 16;
  params.max_resource_domains = 8;
  const grid::GridSystem grid = grid::make_random_grid(params, rng);
  const trust::TrustLevelTable table = workload::random_trust_table(grid, rng);
  const auto requests = workload::generate_requests(grid, tasks, {}, rng);
  const sched::SecurityCostModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::compute_trust_costs(grid, requests, table, model));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}

}  // namespace

BENCHMARK_CAPTURE(BM_RecordTransaction, gamma, "gamma")->Arg(16)->Arg(128);
BENCHMARK_CAPTURE(BM_RecordTransaction, beta, "beta")->Arg(16)->Arg(128);
BENCHMARK_CAPTURE(BM_Evaluate, gamma, "gamma")->Arg(16)->Arg(128);
BENCHMARK_CAPTURE(BM_Evaluate, beta, "beta")->Arg(16)->Arg(128);
BENCHMARK_CAPTURE(BM_Evaluate, fuzzy, "fuzzy")->Arg(16)->Arg(128);
BENCHMARK_CAPTURE(BM_Evaluate, purge_gamma, "purge:gamma")->Arg(16)->Arg(128);
BENCHMARK(BM_BridgeRefresh)->Arg(2000);
BENCHMARK(BM_TrustCostMatrix)->Arg(100)->Arg(1000);

BENCHMARK_MAIN();
