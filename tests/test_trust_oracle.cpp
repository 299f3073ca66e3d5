// Differential and counter tests for the trust layer's dense storage and
// batched counters.
//
// trust::TrustEngine must behave exactly like the map-based engine frozen in
// reference_trust_engine.hpp.  Randomized scripts interleave transactions,
// record imports, identity resets (forget), pruning and alliances, and every
// query result is compared with exact == on doubles: the dense index visits
// recommenders in the same ascending order as the reference's per-z scan,
// so no result may move by a single bit.  The metrics the two engines
// publish are compared too.  The fuzzy backend, which shares the index, is
// checked against a per-z scan of its own public records.
//
// In the spirit of a randomized-test registry (MathGeoLib's
// AddRandomizedTest / RunTests(numTimes)), every named configuration runs
// over a fixed range of seeds, and a failure names the configuration and
// the seed that replays it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "reference_trust_engine.hpp"
#include "trust/decay.hpp"
#include "trust/fuzzy_policy.hpp"
#include "trust/trust_engine.hpp"
#include "trust/trust_table.hpp"

namespace gridtrust::trust {
namespace {

using reference::ReferenceTrustEngine;

// ------------------------------------------------------------ scripts

/// One step's observable outcome.  Doubles compare with exact ==.
struct Observation {
  std::string what;
  bool threw = false;
  std::vector<double> values;
  bool operator==(const Observation&) const = default;
};

void PrintTo(const Observation& o, std::ostream* os) {
  *os << o.what << (o.threw ? " threw" : "") << " [";
  for (const double v : o.values) *os << ' ' << std::hexfloat << v;
  *os << std::defaultfloat << " ]";
}

using Transcript = std::vector<Observation>;

void push_optional(std::vector<double>& out, const std::optional<double>& v) {
  out.push_back(v ? 1.0 : 0.0);
  if (v) out.push_back(*v);
}

/// A named engine configuration the scripts run under.
struct OracleCase {
  const char* name;
  TrustEngineConfig (*config)();
  bool alliances;  ///< scripts also ally random pairs
};

/// Drives `engine` through a script drawn from `seed`.  The script depends
/// only on the seed, never on the engine, so two engines see the same ops.
template <typename Engine>
Transcript run_script(Engine& engine, std::size_t entities,
                      std::size_t contexts, bool alliances,
                      std::uint64_t seed) {
  Rng rng(derive_seed(seed, {0x0a11ce}));
  Transcript out;
  double clock = 0.0;
  const auto entity = [&] {
    return static_cast<EntityId>(rng.index(entities));
  };
  const auto context = [&] {
    return static_cast<ContextId>(rng.index(contexts));
  };
  const auto attempt = [&](std::string what, auto&& op) {
    Observation observation{std::move(what), false, {}};
    try {
      op(observation.values);
    } catch (const PreconditionError&) {
      observation.threw = true;
      observation.values.clear();
    }
    out.push_back(std::move(observation));
  };
  const auto export_all = [&] {
    attempt("export", [&](std::vector<double>& v) {
      for (const auto& e : engine.export_records()) {
        v.insert(v.end(), {static_cast<double>(e.truster),
                           static_cast<double>(e.trustee),
                           static_cast<double>(e.context), e.record.level,
                           e.record.last_time,
                           static_cast<double>(e.record.count)});
      }
      v.push_back(static_cast<double>(engine.transaction_count()));
    });
  };

  for (int step = 0; step < 400; ++step) {
    const double pick = rng.uniform();
    std::ostringstream what;
    what << "step " << step << ": ";
    if (pick < 0.45) {
      // A transaction; mostly at the advancing clock, sometimes a tie,
      // occasionally out of order (which may be rejected).
      if (rng.bernoulli(0.8)) clock += rng.exponential(2.0);
      double time = clock;
      if (rng.bernoulli(0.04)) time = std::max(0.0, clock - rng.uniform(0, 6));
      const Transaction tx{entity(), entity(), context(), time,
                           rng.uniform(1.0, 6.0)};
      what << "record " << tx.truster << "->" << tx.trustee << " c"
           << tx.context << " t=" << tx.time;
      attempt(what.str(),
              [&](std::vector<double>&) { engine.record_transaction(tx); });
    } else if (pick < 0.80) {
      const EntityId x = entity();
      const EntityId y = entity();
      const ContextId c = context();
      const EntityId z = entity();
      what << "query " << x << "->" << y << " c" << c << " t=" << clock;
      attempt(what.str(), [&](std::vector<double>& v) {
        const auto rec = engine.direct_record(x, y, c);
        v.push_back(rec ? 1.0 : 0.0);
        if (rec) {
          v.insert(v.end(), {rec->level, rec->last_time,
                             static_cast<double>(rec->count)});
        }
        push_optional(v, engine.direct_trust(x, y, c, clock));
        push_optional(v, engine.reputation(x, y, c, clock));
        v.push_back(engine.eventual_trust(x, y, c, clock));
        v.push_back(engine.recommender_factor(x, z, y));
      });
    } else if (pick < 0.88) {
      TrustEngine::Entry entry{entity(), entity(), context(), {}};
      entry.record.level = rng.uniform(0.0, 6.0);
      entry.record.last_time = rng.uniform(0.0, clock);
      entry.record.count = 1 + rng.index(5);
      what << "import " << entry.truster << "->" << entry.trustee << " c"
           << entry.context;
      attempt(what.str(),
              [&](std::vector<double>&) { engine.import_record(entry); });
    } else if (pick < 0.91) {
      const EntityId e = entity();
      what << "forget " << e;
      attempt(what.str(), [&](std::vector<double>& v) {
        v.push_back(static_cast<double>(engine.forget(e)));
      });
      export_all();
    } else if (pick < 0.94) {
      const double before = clock - rng.uniform(0.0, 30.0);
      what << "prune before " << before;
      attempt(what.str(), [&](std::vector<double>& v) {
        v.push_back(static_cast<double>(engine.prune(before)));
      });
      export_all();
    } else if (alliances) {
      const EntityId a = entity();
      const EntityId b = entity();
      what << "ally " << a << " " << b;
      attempt(what.str(),
              [&](std::vector<double>&) { engine.alliances().ally(a, b); });
    }
  }
  export_all();
  return out;
}

struct Run {
  Transcript transcript;
  obs::Snapshot metrics;
};

/// Runs the seed's script on a fresh `Engine` under a private registry.
/// The engine is destroyed before the snapshot, so batched counts land.
template <typename Engine>
Run run_engine(const OracleCase& c, std::size_t entities, std::size_t contexts,
               std::uint64_t seed) {
  Run run;
  obs::MetricsRegistry registry;
  obs::install(&registry);
  {
    Engine engine(c.config(), entities, contexts);
    run.transcript = run_script(engine, entities, contexts, c.alliances, seed);
  }
  run.metrics = registry.snapshot();
  obs::install(nullptr);
  return run;
}

/// Compares the engine with the reference on one seed; a failure names the
/// case and the seed that replays it.
void check_seed(const OracleCase& c, std::uint64_t seed) {
  Rng sizes(derive_seed(seed, {0x5123}));
  const std::size_t entities = 2 + sizes.index(11);
  const std::size_t contexts = 3 + sizes.index(2);
  SCOPED_TRACE(testing::Message()
               << "replay: case \"" << c.name << "\" seed " << seed << " ("
               << entities << " entities, " << contexts << " contexts)");
  const Run want =
      run_engine<ReferenceTrustEngine>(c, entities, contexts, seed);
  const Run got = run_engine<TrustEngine>(c, entities, contexts, seed);
  ASSERT_EQ(got.transcript.size(), want.transcript.size());
  for (std::size_t i = 0; i < want.transcript.size(); ++i) {
    ASSERT_EQ(got.transcript[i], want.transcript[i])
        << "first divergence at " << want.transcript[i].what;
  }
  EXPECT_EQ(got.metrics.counters, want.metrics.counters);
  EXPECT_EQ(got.metrics.gauges, want.metrics.gauges);
}

constexpr std::uint64_t kSeeds = 40;

void run_randomized(const OracleCase& c) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    check_seed(c, seed);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TrustEngineConfig plain_config() { return {}; }

TrustEngineConfig learned_config() {
  TrustEngineConfig cfg;
  cfg.learn_recommender_weights = true;
  cfg.recommender_learning_rate = 0.35;
  return cfg;
}

TrustEngineConfig alliance_config() {
  TrustEngineConfig cfg;
  cfg.alliance_discount = 0.25;
  cfg.independent_weight = 0.9;
  return cfg;
}

TrustEngineConfig exponential_config() {
  TrustEngineConfig cfg;
  cfg.decay = make_exponential_decay(12.0);
  cfg.learning_rate = 0.45;
  return cfg;
}

TrustEngineConfig context_override_config() {
  TrustEngineConfig cfg = exponential_config();
  cfg.context_decay[1] = make_linear_decay(40.0);
  cfg.context_decay[2] = make_step_decay(6.0, 0.35);
  return cfg;
}

TrustEngineConfig everything_config() {
  TrustEngineConfig cfg = context_override_config();
  cfg.learn_recommender_weights = true;
  cfg.alliance_discount = 0.25;
  cfg.alpha = 0.7;
  cfg.beta = 0.5;
  return cfg;
}

TEST(TrustEngineOracle, PlainMatchesReference) {
  run_randomized({"plain", plain_config, false});
}

TEST(TrustEngineOracle, LearnedRecommenderWeightsMatchReference) {
  run_randomized({"learned", learned_config, false});
}

TEST(TrustEngineOracle, AlliancesMatchReference) {
  run_randomized({"alliances", alliance_config, true});
}

TEST(TrustEngineOracle, ExponentialDecayMatchesReference) {
  run_randomized({"exponential", exponential_config, false});
}

TEST(TrustEngineOracle, PerContextDecayOverrideMatchesReference) {
  run_randomized({"context_override", context_override_config, false});
}

TEST(TrustEngineOracle, EverythingCombinedMatchesReference) {
  run_randomized({"everything", everything_config, true});
}

TEST(FuzzyOracle, ReputationMatchesAPerZScan) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "replay: fuzzy seed " << seed);
    Rng rng(derive_seed(seed, {0xf022}));
    const std::size_t entities = 2 + rng.index(11);
    const std::size_t contexts = 1 + rng.index(3);
    FuzzyReputationPolicy policy({}, entities, contexts);
    double clock = 0.0;
    for (int step = 0; step < 300; ++step) {
      const auto x = static_cast<EntityId>(rng.index(entities));
      const auto y = static_cast<EntityId>(rng.index(entities));
      const auto c = static_cast<ContextId>(rng.index(contexts));
      if (rng.bernoulli(0.5)) {
        clock += rng.exponential(1.0);
        const double score = rng.uniform(1.0, 6.0);
        if (x != y) policy.record_transaction({x, y, c, clock, score});
        continue;
      }
      if (rng.bernoulli(0.02)) policy.forget(x);
      // The old storage's scan: every z in ascending order, skipping the
      // evaluator and the target, summing the stored levels.
      double sum = 0.0;
      std::size_t n = 0;
      for (EntityId z = 0; z < entities; ++z) {
        if (z == x || z == y) continue;
        if (const auto level = policy.direct_component(z, y, c, clock)) {
          sum += *level;
          ++n;
        }
      }
      const std::optional<double> want =
          n == 0 ? std::nullopt
                 : std::optional<double>(sum / static_cast<double>(n));
      ASSERT_EQ(policy.reputation_component(x, y, c, clock), want)
          << "step " << step << ": " << x << "->" << y << " c" << c;
    }
  }
}

// ------------------------------------------------------------ counters

/// Installs a registry for the test's lifetime.
class ScopedRegistry {
 public:
  ScopedRegistry() { obs::install(&registry_); }
  ~ScopedRegistry() { obs::install(nullptr); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;
  obs::Snapshot snapshot() const { return registry_.snapshot(); }

 private:
  obs::MetricsRegistry registry_;
};

double counter(const obs::Snapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it != snap.counters.end() ? it->second : -1.0;
}

TEST(TrustEngineCounters, PublishExactPerCallCounts) {
  ScopedRegistry registry;
  {
    // 4 entities, no decay.  Entities 1, 2, 3 each rate entity 0 twice:
    // M = 6 transactions, 3 records; the second transaction on a triple
    // decays the stored level once (3 decays).
    TrustEngine engine({}, 4, 1);
    double t = 0.0;
    for (EntityId z = 1; z <= 3; ++z) {
      engine.record_transaction({z, 0, 0, t += 1.0, 4.0});
      engine.record_transaction({z, 0, 0, t += 1.0, 5.0});
    }
    // N = 5 evaluations of 1 -> 0: each is one Θ decay plus one Ω scan
    // over the two other recommenders (two decays, two records).
    constexpr int kEvals = 5;
    for (int i = 0; i < kEvals; ++i) engine.eventual_trust(1, 0, 0, t);
    // Nothing is published until a flush.
    EXPECT_EQ(counter(registry.snapshot(), "trust.gamma_evals"), -1.0);
    // forget(2) drops 2's record; the gauge keeps the pre-forget maximum.
    EXPECT_EQ(engine.forget(2), 1u);
    const obs::Snapshot snap = registry.snapshot();
    EXPECT_EQ(counter(snap, "trust.transactions"), 6.0);
    EXPECT_EQ(counter(snap, "trust.gamma_evals"), 1.0 * kEvals);
    EXPECT_EQ(counter(snap, "trust.reputation_scans"), 1.0 * kEvals);
    EXPECT_EQ(counter(snap, "trust.reputation_records_scanned"),
              2.0 * kEvals);
    EXPECT_EQ(counter(snap, "trust.decay_applications"), 3.0 + 3.0 * kEvals);
    EXPECT_EQ(snap.gauges.at("trust.direct_records"), 3.0);
    // One more evaluation: one decayed Θ, Ω over the single record left.
    engine.eventual_trust(1, 0, 0, t);
  }
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(counter(snap, "trust.gamma_evals"), 6.0);
  EXPECT_EQ(counter(snap, "trust.reputation_scans"), 6.0);
  EXPECT_EQ(counter(snap, "trust.reputation_records_scanned"), 11.0);
  EXPECT_EQ(counter(snap, "trust.decay_applications"), 3.0 + 15.0 + 2.0);
  EXPECT_EQ(counter(snap, "trust.transactions"), 6.0);
  EXPECT_EQ(snap.gauges.at("trust.direct_records"), 3.0);
}

TEST(TrustEngineCounters, CopiesDoNotDoubleCount) {
  ScopedRegistry registry;
  {
    TrustEngine engine({}, 3, 1);
    engine.record_transaction({1, 0, 0, 1.0, 4.0});
    engine.eventual_trust(2, 0, 0, 2.0);
    // The copy inherits the state, not the two pending counts.
    TrustEngine copy = engine;
    TrustEngine moved = std::move(copy);
    TrustEngine assigned({}, 3, 1);
    assigned = engine;
    EXPECT_EQ(moved.eventual_trust(2, 0, 0, 2.0),
              engine.eventual_trust(2, 0, 0, 2.0));
  }
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(counter(snap, "trust.transactions"), 1.0);
  EXPECT_EQ(counter(snap, "trust.gamma_evals"), 3.0);
  EXPECT_EQ(counter(snap, "trust.reputation_scans"), 3.0);
  EXPECT_EQ(counter(snap, "trust.reputation_records_scanned"), 3.0);
  EXPECT_EQ(snap.gauges.at("trust.direct_records"), 1.0);
}

TEST(TrustEngineCounters, PendingCountsWaitForARegistry) {
  TrustEngine engine({}, 3, 1);
  engine.record_transaction({1, 0, 0, 1.0, 4.0});
  engine.publish_metrics();  // nothing installed: the count stays pending
  ScopedRegistry registry;
  engine.publish_metrics();
  EXPECT_EQ(counter(registry.snapshot(), "trust.transactions"), 1.0);
  engine.publish_metrics();  // deltas: a second flush adds nothing
  EXPECT_EQ(counter(registry.snapshot(), "trust.transactions"), 1.0);
}

TEST(TrustLevelTableCounters, LookupsArePublishedOnce) {
  ScopedRegistry registry;
  {
    TrustLevelTable table(2, 2, 2);
    table.get(0, 1, 1);
    const std::size_t activities[] = {0, 1};
    table.offered_trust_level(1, 0, activities);  // two lookups
    EXPECT_EQ(counter(registry.snapshot(), "trust.table_lookups"), -1.0);
    TrustLevelTable copy = table;  // carries no pending lookups
    copy.get(1, 1, 0);
    table.publish_metrics();
    EXPECT_EQ(counter(registry.snapshot(), "trust.table_lookups"), 3.0);
  }
  EXPECT_EQ(counter(registry.snapshot(), "trust.table_lookups"), 4.0);
}

}  // namespace
}  // namespace gridtrust::trust
