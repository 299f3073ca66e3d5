#include "spans.hpp"

#include <time.h>

namespace sweepbench {

namespace {

thread_local UnitTrace* t_unit = nullptr;
thread_local Span* t_innermost = nullptr;

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "workload",       "sched.trust_costs", "sim.trms",
    "trust.observe",  "trust.refresh",     "trust.evaluate",
    "econ.clear",     "econ.round",        "chaos.round"};

constexpr std::array<const char*, kProbeCount> kProbeNames = {
    "record_transaction",     "map_batch", "map_batch_outside_trms",
    "select_machine",         "select_machine_outside_trms",
    "des_events_executed"};

}  // namespace

std::string UnitTrace::to_json() const {
  std::string out = "{\"layers\":{";
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (i > 0) out += ",";
    out += "\"" + std::string(kLayerNames[i]) + "\":{\"self_ns\":" +
           std::to_string(layers[i].self_ns) +
           ",\"calls\":" + std::to_string(layers[i].calls) + "}";
  }
  out += "},\"probes\":{";
  for (std::size_t i = 0; i < kProbeCount; ++i) {
    if (i > 0) out += ",";
    out += "\"" + std::string(kProbeNames[i]) +
           "\":" + std::to_string(probes[i]);
  }
  out += "},\"covered_ns\":" + std::to_string(covered_ns) + "}";
  return out;
}

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void set_active_unit(UnitTrace* unit) {
  t_unit = unit;
  t_innermost = nullptr;
}

Span::Span(Layer layer) : unit_(t_unit), layer_(layer) {
  if (unit_ == nullptr) return;
  parent_ = t_innermost;
  t_innermost = this;
  start_ = now_ns();
}

Span::~Span() {
  if (unit_ == nullptr) return;
  const std::uint64_t duration = now_ns() - start_;
  LayerTotals& totals = unit_->layers[static_cast<std::size_t>(layer_)];
  totals.self_ns += duration - child_ns_;
  ++totals.calls;
  if (parent_ != nullptr) {
    parent_->child_ns_ += duration;
  } else {
    unit_->covered_ns += duration;
  }
  t_innermost = parent_;
}

void count(Probe probe, std::uint64_t n) {
  if (t_unit != nullptr) t_unit->probes[static_cast<std::size_t>(probe)] += n;
}

bool innermost_is(Layer layer) {
  return t_innermost != nullptr && t_innermost->layer() == layer;
}

}  // namespace sweepbench
