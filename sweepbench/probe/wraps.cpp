// Name-transparent layer decorators for the traced probe.
//
// Linked with `--wrap=<symbol>` for every symbol in wrapped_symbols.txt: the
// linker resolves each library call to `__wrap_<symbol>` below, and
// `__real_<symbol>` to the original definition.  The library, the catalog
// and every registry name stay exactly as they are, so the traced run
// drives the same traffic as gridtrust_lab.  Member functions take `this`
// as their first parameter, as in the Itanium C++ ABI.
#include <cstdint>
#include <vector>

#include "chaos/campaign.hpp"
#include "des/simulator.hpp"
#include "econ/campaign.hpp"
#include "econ/market.hpp"
#include "sched/executor.hpp"
#include "sched/problem.hpp"
#include "sim/experiment.hpp"
#include "sim/trm_simulation.hpp"
#include "spans.hpp"
#include "trust/agents.hpp"
#include "trust/trust_engine.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/request_gen.hpp"

namespace {

using namespace gridtrust;
using sweepbench::Layer;
using sweepbench::Probe;
using Requests = std::vector<grid::Request>;
using Batch = std::vector<std::size_t>;

}  // namespace

// Declares __real_<sym> and defines __wrap_<sym> as one span of `layer`.
#define TIMED_WRAP(layer, sym, Ret, PARAMS, ARGS) \
  Ret __real_##sym PARAMS;                        \
  Ret __wrap_##sym PARAMS {                       \
    const sweepbench::Span span(layer);           \
    return __real_##sym ARGS;                     \
  }

extern "C" {

TIMED_WRAP(Layer::kWorkload,
           _ZN9gridtrust8workload17generate_requestsERKNS_4grid10GridSystemEmRKNS0_16RequestGenParamsERNS_3RngE,
           Requests,
           (const grid::GridSystem& grid, std::size_t count,
            const workload::RequestGenParams& params, Rng& rng),
           (grid, count, params, rng))

TIMED_WRAP(Layer::kWorkload,
           _ZN9gridtrust8workload12generate_eecEmmRKNS0_19HeterogeneityParamsERNS_3RngE,
           sched::CostMatrix,
           (std::size_t tasks, std::size_t machines,
            const workload::HeterogeneityParams& params, Rng& rng),
           (tasks, machines, params, rng))

TIMED_WRAP(Layer::kWorkload,
           _ZN9gridtrust3sim13draw_instanceERKNS0_8ScenarioERKNS_5sched16SchedulingPolicyERNS_3RngE,
           sim::Instance,
           (const sim::Scenario& scenario,
            const sched::SchedulingPolicy& policy, Rng& rng),
           (scenario, policy, rng))

TIMED_WRAP(Layer::kTrustCosts,
           _ZN9gridtrust5sched19compute_trust_costsERKNS_4grid10GridSystemERKSt6vectorINS1_7RequestESaIS6_EERKNS_5trust15TrustLevelTableERKNS0_17SecurityCostModelEi,
           sched::TrustCostMatrix,
           (const grid::GridSystem& grid, const Requests& requests,
            const trust::TrustLevelTable& table,
            const sched::SecurityCostModel& model, int penalty),
           (grid, requests, table, model, penalty))

TIMED_WRAP(Layer::kTrustCosts,
           _ZN9gridtrust5sched19compute_trust_costsERKNS_4grid10GridSystemERKSt6vectorINS1_7RequestESaIS6_EERKNS_5trust17DomainTrustBridgeEdRKNS0_17SecurityCostModelEi,
           sched::TrustCostMatrix,
           (const grid::GridSystem& grid, const Requests& requests,
            const trust::DomainTrustBridge& bridge, double now,
            const sched::SecurityCostModel& model, int penalty),
           (grid, requests, bridge, now, model, penalty))

TIMED_WRAP(Layer::kTrms,
           _ZN9gridtrust3sim8run_trmsERKNS_5sched17SchedulingProblemERKNS0_10TrmsConfigE,
           sim::SimulationResult,
           (const sched::SchedulingProblem& problem,
            const sim::TrmsConfig& config),
           (problem, config))

TIMED_WRAP(Layer::kTrustObserve,
           _ZN9gridtrust5trust17DomainTrustBridge19observe_client_sideEmmmdd,
           void,
           (trust::DomainTrustBridge* self, std::size_t cd, std::size_t rd,
            std::size_t activity, double time, double score),
           (self, cd, rd, activity, time, score))

TIMED_WRAP(Layer::kTrustObserve,
           _ZN9gridtrust5trust17DomainTrustBridge21observe_resource_sideEmmmdd,
           void,
           (trust::DomainTrustBridge* self, std::size_t rd, std::size_t cd,
            std::size_t activity, double time, double score),
           (self, rd, cd, activity, time, score))

TIMED_WRAP(Layer::kTrustRefresh,
           _ZNK9gridtrust5trust17DomainTrustBridge7refreshERNS0_15TrustLevelTableEd,
           std::size_t,
           (const trust::DomainTrustBridge* self,
            trust::TrustLevelTable& table, double now),
           (self, table, now))

TIMED_WRAP(Layer::kTrustEvaluate,
           _ZNK9gridtrust5trust11TrustEngine14eventual_trustEjjjd,
           double,
           (const trust::TrustEngine* self, trust::EntityId truster,
            trust::EntityId trustee, trust::ContextId context, double now),
           (self, truster, trustee, context, now))

TIMED_WRAP(Layer::kEconClear,
           _ZN9gridtrust4econ10run_marketERKNS0_13MarketProblemENS0_13MechanismKindEd,
           econ::MarketResult,
           (const econ::MarketProblem& problem, econ::MechanismKind mechanism,
            double ready),
           (problem, mechanism, ready))

TIMED_WRAP(Layer::kEconRound,
           _ZN9gridtrust4econ19run_market_campaignERKNS_3sim8ScenarioERKNS0_15MarketRunConfigEm,
           econ::MarketCampaignResult,
           (const sim::Scenario& scenario, const econ::MarketRunConfig& config,
            std::uint64_t seed),
           (scenario, config, seed))

TIMED_WRAP(Layer::kChaosRound,
           _ZN9gridtrust5chaos12run_campaignERKNS_3sim8ScenarioERKNS0_17CampaignRunConfigEm,
           chaos::CampaignResult,
           (const sim::Scenario& scenario,
            const chaos::CampaignRunConfig& config, std::uint64_t seed),
           (scenario, config, seed))

// Counted, not timed: per-transaction timing would cost more than the
// record itself; their time stays in the enclosing trust.observe span.
void __real__ZN9gridtrust5trust11TrustEngine18record_transactionERKNS0_11TransactionE(
    trust::TrustEngine* self, const trust::Transaction& tx);
void __wrap__ZN9gridtrust5trust11TrustEngine18record_transactionERKNS0_11TransactionE(
    trust::TrustEngine* self, const trust::Transaction& tx) {
  sweepbench::count(Probe::kRecordTransaction);
  __real__ZN9gridtrust5trust11TrustEngine18record_transactionERKNS0_11TransactionE(
      self, tx);
}

// Mapping and selection carry their own histograms (sched.map_batch_ns,
// sched.select_machine_ns); the probe only checks they run inside run_trms.
void __real__ZN9gridtrust5sched22map_batch_instrumentedERNS0_14BatchHeuristicERKNS0_17SchedulingProblemERKSt6vectorImSaImEEdRNS0_8ScheduleE(
    sched::BatchHeuristic& h, const sched::SchedulingProblem& p,
    const Batch& batch, double ready, sched::Schedule& schedule);
void __wrap__ZN9gridtrust5sched22map_batch_instrumentedERNS0_14BatchHeuristicERKNS0_17SchedulingProblemERKSt6vectorImSaImEEdRNS0_8ScheduleE(
    sched::BatchHeuristic& h, const sched::SchedulingProblem& p,
    const Batch& batch, double ready, sched::Schedule& schedule) {
  sweepbench::count(Probe::kMapBatch);
  if (!sweepbench::innermost_is(Layer::kTrms)) {
    sweepbench::count(Probe::kMapBatchOutside);
  }
  __real__ZN9gridtrust5sched22map_batch_instrumentedERNS0_14BatchHeuristicERKNS0_17SchedulingProblemERKSt6vectorImSaImEEdRNS0_8ScheduleE(
      h, p, batch, ready, schedule);
}

std::size_t __real__ZN9gridtrust5sched27select_machine_instrumentedERNS0_18ImmediateHeuristicERKNS0_17SchedulingProblemEmdRKNS0_8ScheduleE(
    sched::ImmediateHeuristic& h, const sched::SchedulingProblem& p,
    std::size_t r, double ready, const sched::Schedule& schedule);
std::size_t __wrap__ZN9gridtrust5sched27select_machine_instrumentedERNS0_18ImmediateHeuristicERKNS0_17SchedulingProblemEmdRKNS0_8ScheduleE(
    sched::ImmediateHeuristic& h, const sched::SchedulingProblem& p,
    std::size_t r, double ready, const sched::Schedule& schedule) {
  sweepbench::count(Probe::kSelectMachine);
  if (!sweepbench::innermost_is(Layer::kTrms)) {
    sweepbench::count(Probe::kSelectMachineOutside);
  }
  return __real__ZN9gridtrust5sched27select_machine_instrumentedERNS0_18ImmediateHeuristicERKNS0_17SchedulingProblemEmdRKNS0_8ScheduleE(
      h, p, r, ready, schedule);
}

// Executed-event deltas per simulator add up to des.events_executed, which
// each simulator publishes as the same deltas from run()/run_until().
void __real__ZN9gridtrust3des9Simulator3runEm(des::Simulator* self,
                                              std::uint64_t max_events);
void __wrap__ZN9gridtrust3des9Simulator3runEm(des::Simulator* self,
                                              std::uint64_t max_events) {
  const std::uint64_t before = self->executed_events();
  __real__ZN9gridtrust3des9Simulator3runEm(self, max_events);
  sweepbench::count(Probe::kDesExecuted, self->executed_events() - before);
}

void __real__ZN9gridtrust3des9Simulator9run_untilEd(des::Simulator* self,
                                                   double until);
void __wrap__ZN9gridtrust3des9Simulator9run_untilEd(des::Simulator* self,
                                                   double until) {
  const std::uint64_t before = self->executed_events();
  __real__ZN9gridtrust3des9Simulator9run_untilEd(self, until);
  sweepbench::count(Probe::kDesExecuted, self->executed_events() - before);
}

}  // extern "C"
