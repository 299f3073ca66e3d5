// The batch-mode heuristics as they stood before the incremental engine,
// frozen as the executable specification of src/sched/batch.cpp (the same
// role reference_trust_engine.hpp plays for trust::TrustEngine).
//
// Every iteration re-evaluates every pending request on every machine
// through sched::decision_completion.  The production Min-min, Max-min,
// Sufferage and Duplex must produce the same Schedule exactly: the same
// machine per request and the same start, completion, availability and
// busy doubles bit for bit (tests/test_batch_oracle.cpp).  Do not optimize
// this file.
#pragma once

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sched/heuristic.hpp"

namespace gridtrust::sched::reference {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline void check_batch(const SchedulingProblem& p,
                        const std::vector<std::size_t>& batch,
                        const Schedule& schedule) {
  for (const std::size_t r : batch) {
    GT_REQUIRE(r < p.num_requests(), "request index out of range");
    GT_REQUIRE(schedule.machine_of[r] == kUnassigned,
               "batch contains an already-assigned request");
  }
}

/// Best machine and completion metric for one request.
struct BestChoice {
  std::size_t machine = 0;
  double completion = kInf;
  double second_completion = kInf;  // for Sufferage
};

inline BestChoice best_choice(const SchedulingProblem& p, std::size_t r,
                              double ready, const Schedule& schedule) {
  BestChoice out;
  for (std::size_t m = 0; m < p.num_machines(); ++m) {
    const double ct = decision_completion(p, r, m, ready, schedule);
    if (ct < out.completion) {
      out.second_completion = out.completion;
      out.completion = ct;
      out.machine = m;
    } else if (ct < out.second_completion) {
      out.second_completion = ct;
    }
  }
  return out;
}

/// Shared engine for Min-min and Max-min: repeatedly pick the pending
/// request whose *best* completion is extremal, commit it, re-evaluate.
class MinMaxMin final : public BatchHeuristic {
 public:
  explicit MinMaxMin(bool prefer_max) : prefer_max_(prefer_max) {}

  std::string name() const override { return prefer_max_ ? "max-min" : "min-min"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    check_batch(p, batch, schedule);
    std::vector<std::size_t> pending = batch;
    while (!pending.empty()) {
      std::size_t pick_pos = 0;
      BestChoice pick = best_choice(p, pending[0], ready, schedule);
      for (std::size_t i = 1; i < pending.size(); ++i) {
        const BestChoice c = best_choice(p, pending[i], ready, schedule);
        const bool better =
            prefer_max_ ? c.completion > pick.completion
                        : c.completion < pick.completion;
        if (better) {
          pick = c;
          pick_pos = i;
        }
      }
      commit_assignment(p, pending[pick_pos], pick.machine, ready, schedule);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick_pos));
    }
  }

 private:
  bool prefer_max_;
};

/// Sufferage [10]: within an iteration each machine is tentatively reserved
/// by the pending request that would suffer most (largest gap between its
/// second-best and best completion) if denied that machine; reservation
/// winners commit, losers wait for the next iteration.
class Sufferage final : public BatchHeuristic {
 public:
  std::string name() const override { return "sufferage"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    check_batch(p, batch, schedule);
    std::vector<std::size_t> pending = batch;
    while (!pending.empty()) {
      // machine -> (request holding it, its sufferage value)
      std::vector<std::size_t> holder(p.num_machines(), kUnassigned);
      std::vector<double> holder_sufferage(p.num_machines(), -kInf);
      std::vector<std::size_t> deferred;
      for (const std::size_t r : pending) {
        const BestChoice c = best_choice(p, r, ready, schedule);
        const double sufferage =
            (c.second_completion == kInf) ? 0.0
                                          : c.second_completion - c.completion;
        const std::size_t m = c.machine;
        if (holder[m] == kUnassigned) {
          holder[m] = r;
          holder_sufferage[m] = sufferage;
        } else if (sufferage > holder_sufferage[m]) {
          deferred.push_back(holder[m]);
          holder[m] = r;
          holder_sufferage[m] = sufferage;
        } else {
          deferred.push_back(r);
        }
      }
      for (std::size_t m = 0; m < p.num_machines(); ++m) {
        if (holder[m] != kUnassigned) {
          commit_assignment(p, holder[m], m, ready, schedule);
        }
      }
      GT_ASSERT(deferred.size() < pending.size());  // progress each round
      pending = std::move(deferred);
    }
  }
};

/// Duplex [10]: evaluate both Min-min and Max-min, keep the better makespan.
class Duplex final : public BatchHeuristic {
 public:
  std::string name() const override { return "duplex"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    check_batch(p, batch, schedule);
    Schedule with_min = schedule;
    Schedule with_max = schedule;
    MinMaxMin(false).map_batch(p, batch, ready, with_min);
    MinMaxMin(true).map_batch(p, batch, ready, with_max);
    schedule = (with_min.makespan() <= with_max.makespan()) ? std::move(with_min)
                                                            : std::move(with_max);
  }
};

}  // namespace gridtrust::sched::reference
