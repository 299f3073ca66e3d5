// Differential tests for the incremental batch heuristics.
//
// sched::make_min_min / make_max_min / make_sufferage / make_duplex must map
// every batch exactly like the full-rescan heuristics frozen in
// reference_batch.hpp.  Each seed draws a problem and a sequence of batches
// with rising ready times, feeds both implementations the same batches, and
// compares the two Schedules after every batch: the same machine per
// request and bit-identical start, completion, availability and busy
// doubles.
//
// The immediate heuristics hoist the request-side start floor out of their
// machine loops; ImmediateOracle checks each against an argmin over the
// per-machine decision_completion on the same instances.
//
// In the spirit of a randomized-test registry (MathGeoLib's
// AddRandomizedTest / RunTests(numTimes)), every (heuristic, family) pair
// runs over a fixed range of seeds, and a failure names the pair and the
// seed that replays it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <cstdint>
#include <ios>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "reference_batch.hpp"
#include "sched/heuristic.hpp"
#include "sched/problem.hpp"
#include "sched/schedule.hpp"

namespace gridtrust::sched {
namespace {

constexpr std::uint64_t kSeedsPerCase = 500;

/// A family of random instances.  Integer families draw small integer
/// costs, arrivals and ready times so that completion ties are common.
struct Family {
  const char* name;
  std::size_t min_machines;
  std::size_t max_machines;
  std::size_t max_tasks;
  bool integer_costs;
  bool staged;  ///< attach extra decision/actual cost layers
};

const Family kFamilies[] = {
    // The catalog's grids: 5 machines by default, 10 in the chaos specs.
    {"catalog", 5, 10, 40, false, false},
    {"ties", 2, 6, 24, true, false},
    {"one_machine", 1, 1, 20, true, false},
    {"staged", 3, 8, 30, false, true},
    {"staged_ties", 2, 5, 24, true, true},
    {"wide", 16, 16, 60, false, false},
};

const char* const kHeuristics[] = {"min-min", "max-min", "sufferage",
                                   "duplex"};

std::unique_ptr<BatchHeuristic> make_reference(const std::string& name) {
  if (name == "min-min") return std::make_unique<reference::MinMaxMin>(false);
  if (name == "max-min") return std::make_unique<reference::MinMaxMin>(true);
  if (name == "sufferage") return std::make_unique<reference::Sufferage>();
  return std::make_unique<reference::Duplex>();
}

struct Instance {
  SchedulingProblem problem;
  std::vector<std::vector<std::size_t>> batches;
  std::vector<double> ready;
};

Instance draw_instance(const Family& family, std::uint64_t seed) {
  Rng rng(derive_seed(seed, {0xba7c4}));
  const auto machines = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(family.min_machines),
      static_cast<std::int64_t>(family.max_machines)));
  const auto tasks = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(family.max_tasks)));
  const auto cost = [&] {
    return family.integer_costs ? static_cast<double>(rng.uniform_int(0, 3))
                                : rng.uniform(1.0, 1000.0);
  };
  CostMatrix eec(tasks, machines);
  TrustCostMatrix tc(tasks, machines);
  for (std::size_t r = 0; r < tasks; ++r) {
    for (std::size_t m = 0; m < machines; ++m) {
      eec.at(r, m) = cost();
      tc.at(r, m) = static_cast<int>(rng.uniform_int(0, 6));
    }
  }
  const SchedulingPolicy policies[] = {
      trust_aware_policy(), trust_unaware_policy(),
      unaware_placement_tc_priced_policy(),
      aware_placement_blanket_priced_policy()};
  const SchedulingPolicy policy =
      policies[static_cast<std::size_t>(rng.uniform_int(0, 3))];

  // Arrivals: none (pure batch) or scattered around the ready times, so the
  // start floor is sometimes the arrival and sometimes `ready`.
  std::vector<double> arrivals;
  const double horizon = family.integer_costs ? 8.0 : 2000.0;
  if (rng.uniform_int(0, 3) != 0) {
    for (std::size_t r = 0; r < tasks; ++r) {
      arrivals.push_back(family.integer_costs
                             ? static_cast<double>(rng.uniform_int(0, 8))
                             : rng.uniform(0.0, horizon));
    }
  }
  SchedulingProblem problem(std::move(eec), std::move(tc), policy,
                            SecurityCostModel{}, std::move(arrivals));
  if (family.staged) {
    CostMatrix decision(tasks, machines);
    CostMatrix actual(tasks, machines);
    for (std::size_t r = 0; r < tasks; ++r) {
      for (std::size_t m = 0; m < machines; ++m) {
        decision.at(r, m) = cost();
        actual.at(r, m) = cost();
      }
    }
    problem.set_extra_costs(std::move(decision), std::move(actual));
  }

  Instance out{std::move(problem), {}, {}};
  double ready = 0.0;
  std::size_t next = 0;
  while (next < tasks) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(std::min<std::size_t>(tasks - next, 15))));
    std::vector<std::size_t> batch;
    for (std::size_t i = 0; i < size; ++i) batch.push_back(next++);
    // Shuffle the batch so pending order differs from request order.
    for (std::size_t i = batch.size(); i > 1; --i) {
      std::swap(batch[i - 1], batch[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i - 1)))]);
    }
    out.batches.push_back(std::move(batch));
    out.ready.push_back(ready);
    ready += family.integer_costs ? static_cast<double>(rng.uniform_int(0, 4))
                                  : rng.uniform(0.0, horizon / 4.0);
  }
  return out;
}

std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

/// First difference between two schedules, compared bit for bit.
std::optional<std::string> first_difference(const Schedule& got,
                                             const Schedule& want) {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const auto doubles = [&](const char* field, const std::vector<double>& a,
                           const std::vector<double>& b)
      -> std::optional<std::string> {
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (!same(a[i], b[i])) {
        return std::string(field) + "[" + std::to_string(i) + "] " +
               hex(a[i]) + " != reference " + hex(b[i]);
      }
    }
    return std::nullopt;
  };
  for (std::size_t r = 0; r < want.machine_of.size(); ++r) {
    if (got.machine_of[r] != want.machine_of[r]) {
      return "machine_of[" + std::to_string(r) + "] " +
             std::to_string(got.machine_of[r]) + " != reference " +
             std::to_string(want.machine_of[r]);
    }
  }
  if (auto d = doubles("start", got.start, want.start)) return d;
  if (auto d = doubles("completion", got.completion, want.completion)) {
    return d;
  }
  if (auto d = doubles("machine_available", got.machine_available,
                       want.machine_available)) {
    return d;
  }
  return doubles("machine_busy", got.machine_busy, want.machine_busy);
}

using OracleParam = std::tuple<const char*, Family>;

// gtest's default printer shows the const char* and Family::name as
// addresses, which ASLR changes on every run; the discovered ctest names
// carry the printed parameter, so print it by value to keep them stable.
void PrintTo(const OracleParam& param, std::ostream* os) {
  *os << std::get<0>(param) << " on " << std::get<1>(param).name;
}

class BatchOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(BatchOracle, MatchesTheFullRescanReference) {
  const std::string heuristic = std::get<0>(GetParam());
  const Family& family = std::get<1>(GetParam());
  std::size_t batches = 0;
  for (std::uint64_t seed = 1; seed <= kSeedsPerCase; ++seed) {
    const Instance instance = draw_instance(family, seed);
    const SchedulingProblem& p = instance.problem;
    const auto production = make_batch(heuristic);
    const auto reference = make_reference(heuristic);
    Schedule got = Schedule::for_problem(p);
    Schedule want = Schedule::for_problem(p);
    for (std::size_t b = 0; b < instance.batches.size(); ++b) {
      production->map_batch(p, instance.batches[b], instance.ready[b], got);
      reference->map_batch(p, instance.batches[b], instance.ready[b], want);
      ++batches;
      if (const auto diff = first_difference(got, want)) {
        FAIL() << heuristic << " on family " << family.name << ", batch " << b
               << " of " << instance.batches.size() << ": " << *diff
               << "\n  replay: seed " << seed << " (draw_instance(" << family.name
               << ", " << seed << "))";
      }
    }
    ASSERT_TRUE(got.complete());
  }
  EXPECT_GE(batches, kSeedsPerCase);
}

std::string oracle_case_name(
    const ::testing::TestParamInfo<OracleParam>& info) {
  std::string name = std::string(std::get<0>(info.param)) + "_" +
                     std::get<1>(info.param).name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Heuristics, BatchOracle,
                         ::testing::Combine(::testing::ValuesIn(kHeuristics),
                                            ::testing::ValuesIn(kFamilies)),
                         oracle_case_name);

// The incremental Min-min rescans only requests whose best machine took the
// commit; a grid where every request prefers one machine exercises the
// rescan on every iteration, and equal costs exercise the lowest-index
// tie-break after it.
TEST(BatchOracle, AllRequestsPreferOneMachine) {
  CostMatrix eec(6, 3, 5.0);
  for (std::size_t r = 0; r < 6; ++r) eec.at(r, 1) = 1.0;
  const SchedulingProblem p(std::move(eec), TrustCostMatrix(6, 3, 0),
                            trust_aware_policy(), SecurityCostModel{});
  const std::vector<std::size_t> batch = {3, 1, 4, 0, 5, 2};
  for (const char* name : kHeuristics) {
    Schedule got = Schedule::for_problem(p);
    Schedule want = Schedule::for_problem(p);
    make_batch(name)->map_batch(p, batch, 0.0, got);
    make_reference(name)->map_batch(p, batch, 0.0, want);
    EXPECT_EQ(first_difference(got, want), std::nullopt) << name;
  }
}

// ------------------------------------------------ immediate heuristics

/// Lowest-index argmin of decision_completion over `machines` (in order).
std::size_t reference_argmin(const SchedulingProblem& p, std::size_t r,
                             double ready, const Schedule& schedule,
                             const std::vector<std::size_t>& machines) {
  std::size_t best = machines.front();
  double best_ct = decision_completion(p, r, best, ready, schedule);
  for (const std::size_t m : machines) {
    const double ct = decision_completion(p, r, m, ready, schedule);
    if (ct < best_ct || (ct == best_ct && m < best)) {
      best_ct = ct;
      best = m;
    }
  }
  return best;
}

std::vector<std::size_t> all_machines(const SchedulingProblem& p) {
  std::vector<std::size_t> out(p.num_machines());
  for (std::size_t m = 0; m < out.size(); ++m) out[m] = m;
  return out;
}

std::size_t reference_met(const SchedulingProblem& p, std::size_t r) {
  std::size_t best = 0;
  for (std::size_t m = 1; m < p.num_machines(); ++m) {
    if (p.decision_cost(r, m) < p.decision_cost(r, best)) best = m;
  }
  return best;
}

/// KPB: the ceil(k%) machines with the lowest decision cost (stable), then
/// the completion argmin among them.
std::size_t reference_kpb(const SchedulingProblem& p, std::size_t r,
                          double ready, const Schedule& schedule,
                          double k_pct) {
  std::vector<std::size_t> order = all_machines(p);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return p.decision_cost(r, a) < p.decision_cost(r, b);
  });
  const auto keep = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(
          static_cast<double>(order.size()) * k_pct / 100.0)),
      1, order.size());
  order.resize(keep);
  return reference_argmin(p, r, ready, schedule, order);
}

using Selector = std::function<std::size_t(
    const SchedulingProblem&, std::size_t, double, const Schedule&)>;

struct ImmediateCase {
  std::string name;
  std::function<std::unique_ptr<ImmediateHeuristic>()> make;
  std::function<Selector()> make_reference;  // fresh state per instance
};

std::vector<ImmediateCase> immediate_cases() {
  std::vector<ImmediateCase> out;
  out.push_back({"olb", make_olb, [] {
                   return Selector([](const SchedulingProblem& p,
                                      std::size_t, double,
                                      const Schedule& s) {
                     std::size_t best = 0;
                     for (std::size_t m = 1; m < p.num_machines(); ++m) {
                       if (s.machine_available[m] <
                           s.machine_available[best]) {
                         best = m;
                       }
                     }
                     return best;
                   });
                 }});
  out.push_back({"met", make_met, [] {
                   return Selector([](const SchedulingProblem& p,
                                      std::size_t r, double,
                                      const Schedule&) {
                     return reference_met(p, r);
                   });
                 }});
  out.push_back({"mct", make_mct, [] {
                   return Selector([](const SchedulingProblem& p,
                                      std::size_t r, double ready,
                                      const Schedule& s) {
                     return reference_argmin(p, r, ready, s, all_machines(p));
                   });
                 }});
  for (const double k : {20.0, 50.0, 100.0}) {
    out.push_back({"kpb" + std::to_string(static_cast<int>(k)),
                   [k] { return make_kpb(k); },
                   [k] {
                     return Selector([k](const SchedulingProblem& p,
                                         std::size_t r, double ready,
                                         const Schedule& s) {
                       return reference_kpb(p, r, ready, s, k);
                     });
                   }});
  }
  // Switching (default thresholds 0.6 / 0.9) with its MET/MCT mode state.
  out.push_back({"switching", [] { return make_switching(); }, [] {
                   auto use_met = std::make_shared<bool>(false);
                   return Selector([use_met](const SchedulingProblem& p,
                                             std::size_t r, double ready,
                                             const Schedule& s) {
                     const auto [mn, mx] =
                         std::minmax_element(s.machine_available.begin(),
                                             s.machine_available.end());
                     const double index = *mx > 0.0 ? *mn / *mx : 1.0;
                     if (index <= 0.6) *use_met = false;
                     if (index >= 0.9) *use_met = true;
                     return *use_met ? reference_met(p, r)
                                     : reference_argmin(p, r, ready, s,
                                                        all_machines(p));
                   });
                 }});
  return out;
}

TEST(ImmediateOracle, SelectsTheDecisionCompletionArgmin) {
  const std::vector<ImmediateCase> cases = immediate_cases();
  ASSERT_EQ(immediate_heuristic_names().size(), 5u);  // every one covered
  std::size_t decisions = 0;
  for (const Family& family : kFamilies) {
    for (std::uint64_t seed = 1; seed <= kSeedsPerCase / 5; ++seed) {
      const Instance instance = draw_instance(family, seed);
      const SchedulingProblem& p = instance.problem;
      for (const ImmediateCase& c : cases) {
        const auto production = c.make();
        production->reset();
        const Selector reference = c.make_reference();
        Schedule schedule = Schedule::for_problem(p);
        for (std::size_t b = 0; b < instance.batches.size(); ++b) {
          const double ready = instance.ready[b];
          for (const std::size_t r : instance.batches[b]) {
            const std::size_t got =
                production->select_machine(p, r, ready, schedule);
            const std::size_t want = reference(p, r, ready, schedule);
            ++decisions;
            ASSERT_EQ(got, want)
                << c.name << " on family " << family.name << ", request " << r
                << "\n  replay: seed " << seed << " (draw_instance("
                << family.name << ", " << seed << "))";
            commit_assignment(p, r, got, ready, schedule);
          }
        }
      }
    }
  }
  EXPECT_GE(decisions, kSeedsPerCase);
}

}  // namespace
}  // namespace gridtrust::sched
