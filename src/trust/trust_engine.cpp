#include "trust/trust_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace gridtrust::trust {

namespace {

// Engine-level metrics (all no-ops unless an obs registry is installed).
// Counts are batched in TrustEngine::pending_ and flushed by
// publish_metrics(), so an enabled registry costs nothing per evaluation.
const obs::Counter kGammaEvals("trust.gamma_evals");
const obs::Counter kReputationScans("trust.reputation_scans");
const obs::Counter kReputationRecordsScanned(
    "trust.reputation_records_scanned");
const obs::Counter kDecayApplications("trust.decay_applications");
const obs::Counter kTransactions("trust.transactions");
const obs::Gauge kDirectRecords("trust.direct_records");

}  // namespace

TrustEngine::TrustEngine(TrustEngineConfig config, std::size_t entities,
                         std::size_t contexts)
    : config_(std::move(config)),
      entities_(entities),
      contexts_(contexts),
      alliances_(entities),
      index_(entities, contexts),
      learned_weight_(config_.learn_recommender_weights ? entities * entities
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
  // Normalize the Γ weights once so evaluation is a plain blend of two
  // cached doubles (config_ keeps the normalized values for inspection).
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

TrustEngine::~TrustEngine() { publish_metrics(); }

void TrustEngine::check_entity(EntityId id) const {
  GT_REQUIRE(id < entities_, "entity id out of range");
}

void TrustEngine::check_context(ContextId id) const {
  GT_REQUIRE(id < contexts_, "context id out of range");
}

const DecayFunction& TrustEngine::decay_for(ContextId context) const {
  const auto it = config_.context_decay.find(context);
  return it != config_.context_decay.end() ? *it->second : *config_.decay;
}

double TrustEngine::factor(EntityId evaluator, EntityId recommender,
                           EntityId target) const {
  const double base = alliances_.allied(recommender, target)
                          ? config_.alliance_discount
                          : config_.independent_weight;
  if (!config_.learn_recommender_weights) return base;
  return base * learned_weight_[evaluator * entities_ + recommender];
}

void TrustEngine::note_record_count() {
  pending_.records_max = std::max(pending_.records_max, index_.size());
  pending_.records_set = true;
}

void TrustEngine::record_transaction(const Transaction& tx) {
  check_entity(tx.truster);
  check_entity(tx.trustee);
  check_context(tx.context);
  GT_REQUIRE(tx.truster != tx.trustee,
             "an entity cannot record trust in itself");
  GT_REQUIRE(tx.observed_score >= 1.0 && tx.observed_score <= 6.0,
             "observed score must be on the [1, 6] trust scale");

  if (config_.learn_recommender_weights) learn_recommenders(tx);

  DirectTrustRecord& rec =
      index_.find_or_insert(tx.truster, tx.trustee, tx.context);
  GT_REQUIRE(rec.count == 0 || tx.time >= rec.last_time,
             "transactions must arrive in non-decreasing time order");
  if (rec.count == 0) {
    rec.level = tx.observed_score;
  } else {
    // The stored level first decays to the current time, then blends with
    // the fresh observation (EWMA).
    ++pending_.decay_applications;
    const double aged =
        rec.level * decay_for(tx.context).value(tx.time - rec.last_time);
    rec.level = (1.0 - config_.learning_rate) * aged +
                config_.learning_rate * tx.observed_score;
  }
  rec.last_time = tx.time;
  ++rec.count;
  ++tx_count_;
  ++pending_.transactions;
  note_record_count();
}

const DirectTrustRecord* TrustEngine::find_record(EntityId truster,
                                                  EntityId trustee,
                                                  ContextId context) const {
  check_entity(truster);
  check_entity(trustee);
  check_context(context);
  return index_.find(truster, trustee, context);
}

std::optional<DirectTrustRecord> TrustEngine::direct_record(
    EntityId truster, EntityId trustee, ContextId context) const {
  const DirectTrustRecord* rec = find_record(truster, trustee, context);
  if (rec == nullptr) return std::nullopt;
  return *rec;
}

std::optional<double> TrustEngine::direct_trust(EntityId truster,
                                                EntityId trustee,
                                                ContextId context,
                                                double now) const {
  const DirectTrustRecord* rec = find_record(truster, trustee, context);
  if (rec == nullptr) return std::nullopt;
  GT_REQUIRE(now >= rec->last_time, "query time precedes last transaction");
  ++pending_.decay_applications;
  return rec->level * decay_for(context).value(now - rec->last_time);
}

std::optional<double> TrustEngine::reputation(EntityId evaluator,
                                              EntityId target,
                                              ContextId context,
                                              double now) const {
  check_entity(evaluator);
  check_entity(target);
  check_context(context);
  // Walk every recommender z != evaluator with a record about target, in
  // ascending z.  The target never appears: self-trust is never stored.
  ++pending_.reputation_scans;
  const DecayFunction& decay = decay_for(context);
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [z, rec] : index_.recommenders(target, context)) {
    if (z == evaluator) continue;
    GT_REQUIRE(now >= rec.last_time, "query time precedes last transaction");
    ++pending_.decay_applications;
    sum += rec.level * decay.value(now - rec.last_time) *
           factor(evaluator, z, target);
    ++n;
  }
  pending_.records_scanned += n;
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

double TrustEngine::eventual_trust(EntityId truster, EntityId trustee,
                                   ContextId context, double now) const {
  ++pending_.gamma_evals;
  const auto theta = direct_trust(truster, trustee, context, now);
  const auto omega = reputation(truster, trustee, context, now);
  if (theta && omega) return norm_alpha_ * *theta + norm_beta_ * *omega;
  if (theta) return *theta;
  if (omega) return *omega;
  return config_.default_score;
}

TrustLevel TrustEngine::eventual_offered_level(EntityId truster,
                                               EntityId trustee,
                                               ContextId context,
                                               double now) const {
  const TrustLevel level =
      quantize_level(eventual_trust(truster, trustee, context, now));
  return min_level(level, kMaxOfferedLevel);
}

double TrustEngine::recommender_factor(EntityId evaluator,
                                       EntityId recommender,
                                       EntityId target) const {
  check_entity(evaluator);
  check_entity(recommender);
  check_entity(target);
  return factor(evaluator, recommender, target);
}

std::vector<TrustEngine::Entry> TrustEngine::export_records() const {
  return index_.entries();
}

void TrustEngine::import_record(const Entry& entry) {
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
  GT_REQUIRE(!index_.find(entry.truster, entry.trustee, entry.context),
             "triple already holds data; refusing to overwrite");
  index_.find_or_insert(entry.truster, entry.trustee, entry.context) =
      entry.record;
  tx_count_ += entry.record.count;
}

std::size_t TrustEngine::prune(double before) {
  return index_.erase_if([before](const DirectTrustRecord& record) {
    return record.last_time < before;
  });
}

std::size_t TrustEngine::forget(EntityId entity) {
  check_entity(entity);
  publish_metrics();
  const std::size_t removed = index_.erase_entity(entity);
  if (!learned_weight_.empty()) {
    for (EntityId x = 0; x < entities_; ++x) {
      learned_weight_[x * entities_ + entity] = 1.0;
      learned_weight_[entity * entities_ + x] = 1.0;
    }
  }
  note_record_count();
  return removed;
}

void TrustEngine::publish_metrics() const {
  if (obs::registry() == nullptr) return;
  obs::PendingCounts<MetricCounts>& p = pending_;
  if (p.gamma_evals != 0) kGammaEvals.add(static_cast<double>(p.gamma_evals));
  if (p.reputation_scans != 0) {
    kReputationScans.add(static_cast<double>(p.reputation_scans));
    kReputationRecordsScanned.add(static_cast<double>(p.records_scanned));
  }
  if (p.decay_applications != 0) {
    kDecayApplications.add(static_cast<double>(p.decay_applications));
  }
  if (p.transactions != 0) {
    kTransactions.add(static_cast<double>(p.transactions));
  }
  if (p.records_set) kDirectRecords.set(static_cast<double>(p.records_max));
  p.clear();
}

void TrustEngine::learn_recommenders(const Transaction& tx) {
  // The evaluator just observed tx.observed_score first-hand.  Compare every
  // third party's stored opinion of the trustee against this ground truth
  // and move the evaluator's reliability weight for that recommender toward
  // 1 - normalized error.  A colluder that praises a misbehaving ally (or
  // badmouths a competitor) accumulates error and loses influence.
  constexpr double kScaleSpan = 5.0;  // |6 - 1|
  double* weights = &learned_weight_[tx.truster * entities_];
  for (const auto& [z, rec] : index_.recommenders(tx.trustee, tx.context)) {
    if (z == tx.truster) continue;
    const double error = std::abs(rec.level - tx.observed_score) / kScaleSpan;
    const double target_weight = 1.0 - error;
    weights[z] += config_.recommender_learning_rate * (target_weight - weights[z]);
    weights[z] = std::clamp(weights[z], 0.0, 1.0);
  }
}

}  // namespace gridtrust::trust
