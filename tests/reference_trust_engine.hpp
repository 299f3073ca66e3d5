// The map-based §2.2 engine, frozen as the executable specification of
// trust::TrustEngine (the same role des::ReferenceKernelSimulator plays for
// the calendar-queue kernel).
//
// This is the engine as it stood before the dense recommender index: one
// std::map<(truster, trustee, context), record>, an Ω scan that does one
// find per candidate recommender z in ascending z, and one registry add per
// counted event.  The production engine must agree with it exactly: every
// double bit-identical, every export in the same order, every published
// counter equal (tests/test_trust_oracle.cpp).  Do not optimize this file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "trust/alliance.hpp"
#include "trust/decay.hpp"
#include "trust/transaction.hpp"
#include "trust/trust_engine.hpp"

namespace gridtrust::trust::reference {

namespace detail {

// Engine-level metrics (all no-ops unless an obs registry is installed).
inline const obs::Counter kGammaEvals("trust.gamma_evals");
inline const obs::Counter kReputationScans("trust.reputation_scans");
inline const obs::Counter kReputationRecordsScanned(
    "trust.reputation_records_scanned");
inline const obs::Counter kDecayApplications("trust.decay_applications");
inline const obs::Counter kTransactions("trust.transactions");
inline const obs::Gauge kDirectRecords("trust.direct_records");

}  // namespace detail

/// The map-based Γ engine (reference only; see the file comment).
class ReferenceTrustEngine {
 public:
  using Entry = TrustEngine::Entry;

  ReferenceTrustEngine(TrustEngineConfig config, std::size_t entities,
                       std::size_t contexts)
      : config_(std::move(config)),
        entities_(entities),
        contexts_(contexts),
        alliances_(entities),
        learned_weight_(config_.learn_recommender_weights
                            ? entities * entities
                            : 0,
                        1.0) {
    GT_REQUIRE(entities > 0, "need at least one entity");
    GT_REQUIRE(contexts > 0, "need at least one context");
    GT_REQUIRE(config_.alpha >= 0.0 && config_.beta >= 0.0,
               "Γ weights must be non-negative");
    GT_REQUIRE(config_.alpha + config_.beta > 0.0,
               "at least one Γ weight must be positive");
    GT_REQUIRE(config_.learning_rate > 0.0 && config_.learning_rate <= 1.0,
               "learning rate must be in (0, 1]");
    GT_REQUIRE(config_.alliance_discount >= 0.0 &&
                   config_.alliance_discount <= 1.0,
               "alliance discount must be in [0, 1]");
    GT_REQUIRE(config_.independent_weight >= 0.0 &&
                   config_.independent_weight <= 1.0,
               "independent weight must be in [0, 1]");
    GT_REQUIRE(config_.recommender_learning_rate > 0.0 &&
                   config_.recommender_learning_rate <= 1.0,
               "recommender learning rate must be in (0, 1]");
    const double total = config_.alpha + config_.beta;
    config_.alpha /= total;
    config_.beta /= total;
    norm_alpha_ = config_.alpha;
    norm_beta_ = config_.beta;
    if (!config_.decay) config_.decay = make_no_decay();
    for (const auto& [context, fn] : config_.context_decay) {
      GT_REQUIRE(static_cast<std::size_t>(context) < contexts,
                 "context decay override for an unknown context");
      GT_REQUIRE(fn != nullptr, "context decay override must not be null");
    }
  }

  AllianceGraph& alliances() { return alliances_; }

  void record_transaction(const Transaction& tx) {
    check_entity(tx.truster);
    check_entity(tx.trustee);
    check_context(tx.context);
    GT_REQUIRE(tx.truster != tx.trustee,
               "an entity cannot record trust in itself");
    GT_REQUIRE(tx.observed_score >= 1.0 && tx.observed_score <= 6.0,
               "observed score must be on the [1, 6] trust scale");

    if (config_.learn_recommender_weights) learn_recommenders(tx);

    DirectTrustRecord& rec =
        direct_[TripleKey{tx.truster, tx.trustee, tx.context}];
    GT_REQUIRE(rec.count == 0 || tx.time >= rec.last_time,
               "transactions must arrive in non-decreasing time order");
    if (rec.count == 0) {
      rec.level = tx.observed_score;
    } else {
      const double aged =
          decayed(rec.level, tx.time - rec.last_time, tx.context);
      rec.level = (1.0 - config_.learning_rate) * aged +
                  config_.learning_rate * tx.observed_score;
    }
    rec.last_time = tx.time;
    ++rec.count;
    ++tx_count_;
    detail::kTransactions.add();
    detail::kDirectRecords.set(static_cast<double>(direct_.size()));
  }

  std::optional<DirectTrustRecord> direct_record(EntityId truster,
                                                 EntityId trustee,
                                                 ContextId context) const {
    check_entity(truster);
    check_entity(trustee);
    check_context(context);
    const auto it = direct_.find(TripleKey{truster, trustee, context});
    if (it == direct_.end()) return std::nullopt;
    return it->second;
  }

  std::optional<double> direct_trust(EntityId truster, EntityId trustee,
                                     ContextId context, double now) const {
    const auto rec = direct_record(truster, trustee, context);
    if (!rec) return std::nullopt;
    GT_REQUIRE(now >= rec->last_time, "query time precedes last transaction");
    return decayed(rec->level, now - rec->last_time, context);
  }

  std::optional<double> reputation(EntityId evaluator, EntityId target,
                                   ContextId context, double now) const {
    check_entity(evaluator);
    check_entity(target);
    check_context(context);
    detail::kReputationScans.add();
    double sum = 0.0;
    std::size_t n = 0;
    for (EntityId z = 0; z < entities_; ++z) {
      if (z == evaluator || z == target) continue;
      const auto it = direct_.find(TripleKey{z, target, context});
      if (it == direct_.end()) continue;
      const DirectTrustRecord& rec = it->second;
      GT_REQUIRE(now >= rec.last_time, "query time precedes last transaction");
      sum += decayed(rec.level, now - rec.last_time, context) *
             recommender_factor(evaluator, z, target);
      ++n;
    }
    detail::kReputationRecordsScanned.add(static_cast<double>(n));
    if (n == 0) return std::nullopt;
    return sum / static_cast<double>(n);
  }

  double eventual_trust(EntityId truster, EntityId trustee, ContextId context,
                        double now) const {
    detail::kGammaEvals.add();
    const auto theta = direct_trust(truster, trustee, context, now);
    const auto omega = reputation(truster, trustee, context, now);
    if (theta && omega) return norm_alpha_ * *theta + norm_beta_ * *omega;
    if (theta) return *theta;
    if (omega) return *omega;
    return config_.default_score;
  }

  double recommender_factor(EntityId evaluator, EntityId recommender,
                            EntityId target) const {
    check_entity(evaluator);
    check_entity(recommender);
    check_entity(target);
    const double base = alliances_.allied(recommender, target)
                            ? config_.alliance_discount
                            : config_.independent_weight;
    if (!config_.learn_recommender_weights) return base;
    return base * learned_weight_[evaluator * entities_ + recommender];
  }

  std::uint64_t transaction_count() const { return tx_count_; }

  std::vector<Entry> export_records() const {
    std::vector<Entry> out;
    out.reserve(direct_.size());
    for (const auto& [key, record] : direct_) {
      out.push_back(Entry{key.truster, key.trustee, key.context, record});
    }
    return out;
  }

  void import_record(const Entry& entry) {
    check_entity(entry.truster);
    check_entity(entry.trustee);
    check_context(entry.context);
    GT_REQUIRE(entry.truster != entry.trustee,
               "an entity cannot hold trust in itself");
    GT_REQUIRE(entry.record.count >= 1, "imported records need observations");
    GT_REQUIRE(entry.record.level >= 0.0 && entry.record.level <= 6.0,
               "imported trust level out of range");
    GT_REQUIRE(entry.record.last_time >= 0.0,
               "imported record has a negative timestamp");
    const TripleKey key{entry.truster, entry.trustee, entry.context};
    GT_REQUIRE(!direct_.count(key),
               "triple already holds data; refusing to overwrite");
    direct_[key] = entry.record;
    tx_count_ += entry.record.count;
  }

  std::size_t prune(double before) {
    std::size_t removed = 0;
    for (auto it = direct_.begin(); it != direct_.end();) {
      if (it->second.last_time < before) {
        it = direct_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  std::size_t forget(EntityId entity) {
    check_entity(entity);
    std::size_t removed = 0;
    for (auto it = direct_.begin(); it != direct_.end();) {
      if (it->first.truster == entity || it->first.trustee == entity) {
        it = direct_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    if (!learned_weight_.empty()) {
      for (EntityId x = 0; x < entities_; ++x) {
        learned_weight_[x * entities_ + entity] = 1.0;
        learned_weight_[entity * entities_ + x] = 1.0;
      }
    }
    detail::kDirectRecords.set(static_cast<double>(direct_.size()));
    return removed;
  }

 private:
  struct TripleKey {
    EntityId truster;
    EntityId trustee;
    ContextId context;
    auto operator<=>(const TripleKey&) const = default;
  };

  void check_entity(EntityId id) const {
    GT_REQUIRE(id < entities_, "entity id out of range");
  }

  void check_context(ContextId id) const {
    GT_REQUIRE(id < contexts_, "context id out of range");
  }

  const DecayFunction& decay_for(ContextId context) const {
    const auto it = config_.context_decay.find(context);
    return it != config_.context_decay.end() ? *it->second : *config_.decay;
  }

  double decayed(double level, double age, ContextId context) const {
    detail::kDecayApplications.add();
    return level * decay_for(context).value(age);
  }

  void learn_recommenders(const Transaction& tx) {
    constexpr double kScaleSpan = 5.0;  // |6 - 1|
    double* weights = &learned_weight_[tx.truster * entities_];
    for (EntityId z = 0; z < entities_; ++z) {
      if (z == tx.truster || z == tx.trustee) continue;
      const auto it = direct_.find(TripleKey{z, tx.trustee, tx.context});
      if (it == direct_.end()) continue;
      const double error =
          std::abs(it->second.level - tx.observed_score) / kScaleSpan;
      const double target_weight = 1.0 - error;
      weights[z] +=
          config_.recommender_learning_rate * (target_weight - weights[z]);
      weights[z] = std::clamp(weights[z], 0.0, 1.0);
    }
  }

  TrustEngineConfig config_;
  double norm_alpha_ = 0.0;
  double norm_beta_ = 0.0;
  std::size_t entities_;
  std::size_t contexts_;
  AllianceGraph alliances_;
  std::map<TripleKey, DirectTrustRecord> direct_;
  std::vector<double> learned_weight_;
  std::uint64_t tx_count_ = 0;
};

}  // namespace gridtrust::trust::reference
