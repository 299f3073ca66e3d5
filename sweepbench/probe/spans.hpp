// In-memory layer spans for the sweep benchmark's traced run.
//
// A unit (one SweepSpec::run call) owns a UnitTrace.  Spans opened while a
// unit is active on the calling thread nest on a thread-local stack; each
// span's *self* time (its duration minus the durations of the spans nested
// directly inside it) is added to its layer.  So for every unit
//
//   sum over layers of self_ns  +  (unit ns - covered_ns)  ==  unit ns
//
// where covered_ns is the time under the unit's top-level spans and the
// remainder is time no layer span covers.  Probes are plain call counters
// for functions that are counted but not timed.  Nothing is written while
// units run; the probe serializes the traces after the sweep.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sweepbench {

enum class Layer : std::size_t {
  kWorkload,      ///< generate_requests, generate_eec, sim::draw_instance
  kTrustCosts,    ///< sched::compute_trust_costs (both overloads)
  kTrms,          ///< sim::run_trms (mapping and selection are counted inside)
  kTrustObserve,  ///< DomainTrustBridge::observe_{client,resource}_side
  kTrustRefresh,  ///< DomainTrustBridge::refresh, minus Γ evaluations
  kTrustEvaluate, ///< TrustEngine::eventual_trust (Θ + Ω), wherever called
  kEconClear,     ///< econ::run_market
  kEconRound,     ///< econ::run_market_campaign, self time
  kChaosRound,    ///< chaos::run_campaign, self time
  kCount
};

enum class Probe : std::size_t {
  kRecordTransaction,   ///< TrustEngine::record_transaction calls
  kMapBatch,            ///< sched::map_batch_instrumented calls
  kMapBatchOutside,     ///< ... of those, calls not directly under run_trms
  kSelectMachine,       ///< sched::select_machine_instrumented calls
  kSelectMachineOutside,
  kDesExecuted,         ///< events executed by des::Simulator::run/run_until
  kCount
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
constexpr std::size_t kProbeCount = static_cast<std::size_t>(Probe::kCount);

struct LayerTotals {
  std::uint64_t self_ns = 0;
  std::uint64_t calls = 0;
};

struct UnitTrace {
  std::array<LayerTotals, kLayerCount> layers{};
  std::array<std::uint64_t, kProbeCount> probes{};
  std::uint64_t covered_ns = 0;  ///< time under the unit's top-level spans

  /// {"layers":{...},"probes":{...},"covered_ns":N} (no unit time).
  std::string to_json() const;
};

/// CLOCK_MONOTONIC in nanoseconds (the clock Python's time.monotonic_ns
/// reads, so launch and first-unit stamps compare across processes).
std::uint64_t now_ns();

/// Makes `unit` the calling thread's active trace (nullptr stops tracing).
void set_active_unit(UnitTrace* unit);

/// RAII layer span; inert when no unit is active on this thread.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Layer layer() const { return layer_; }

 private:
  UnitTrace* unit_;
  Layer layer_;
  Span* parent_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t child_ns_ = 0;
};

/// Adds `n` to a probe of the active unit (no-op when tracing is off).
void count(Probe probe, std::uint64_t n = 1);

/// True when the innermost open span on this thread belongs to `layer`.
bool innermost_is(Layer layer);

}  // namespace sweepbench
