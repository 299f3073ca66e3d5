// Batch-mode heuristics: Min-min, Max-min, Sufferage, Duplex.
#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "sched/heuristic.hpp"

namespace gridtrust::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void check_batch(const SchedulingProblem& p,
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

BestChoice best_choice(const SchedulingProblem& p, std::size_t r, double floor,
                       const Schedule& schedule) {
  BestChoice out;
  for (std::size_t m = 0; m < p.num_machines(); ++m) {
    const double ct =
        std::max(schedule.machine_available[m], floor) + p.decision_cost(r, m);
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

/// A pending request with its hoisted start floor and cached best choice.
struct Pending {
  std::size_t request;
  double floor;
  BestChoice best;
};

std::vector<Pending> pending_for(const SchedulingProblem& p,
                                 const std::vector<std::size_t>& batch,
                                 double ready) {
  std::vector<Pending> pending;
  pending.reserve(batch.size());
  for (const std::size_t r : batch) {
    pending.push_back(Pending{r, start_floor(p, r, ready), {}});
  }
  return pending;
}

/// Shared engine for Min-min and Max-min: repeatedly pick the pending
/// request whose *best* completion is extremal, commit it, re-evaluate.
///
/// Incremental: a commit to machine m* only raises α_{m*}, so a request
/// whose cached best machine is not m* keeps it — its completion on every
/// other machine is unchanged and the lowest-index argmin cannot move when
/// a non-minimal entry grows.  Only requests whose best was m* are
/// rescanned; the result equals a full re-evaluation bit for bit.
class MinMaxMin final : public BatchHeuristic {
 public:
  explicit MinMaxMin(bool prefer_max) : prefer_max_(prefer_max) {}

  std::string name() const override { return prefer_max_ ? "max-min" : "min-min"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    check_batch(p, batch, schedule);
    std::vector<Pending> pending = pending_for(p, batch, ready);
    for (Pending& e : pending) {
      e.best = best_choice(p, e.request, e.floor, schedule);
    }
    while (!pending.empty()) {
      std::size_t pick_pos = 0;
      for (std::size_t i = 1; i < pending.size(); ++i) {
        const double c = pending[i].best.completion;
        const double pick = pending[pick_pos].best.completion;
        if (prefer_max_ ? c > pick : c < pick) pick_pos = i;
      }
      const std::size_t committed = pending[pick_pos].best.machine;
      commit_assignment(p, pending[pick_pos].request, committed, ready,
                        schedule);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick_pos));
      for (Pending& e : pending) {
        if (e.best.machine == committed) {
          e.best = best_choice(p, e.request, e.floor, schedule);
        }
      }
    }
  }

 private:
  bool prefer_max_;
};

/// Sufferage [10]: within an iteration each machine is tentatively reserved
/// by the pending request that would suffer most (largest gap between its
/// second-best and best completion) if denied that machine; reservation
/// winners commit, losers wait for the next iteration.
///
/// Every request is rescanned each iteration: a request is deferred only
/// because another request holds its best machine, and every held machine
/// commits, so no deferred request's cached choice survives an iteration.
class Sufferage final : public BatchHeuristic {
 public:
  std::string name() const override { return "sufferage"; }

  void map_batch(const SchedulingProblem& p,
                 const std::vector<std::size_t>& batch, double ready,
                 Schedule& schedule) override {
    check_batch(p, batch, schedule);
    std::vector<Pending> pending = pending_for(p, batch, ready);
    while (!pending.empty()) {
      // machine -> (position in `pending` holding it, its sufferage value)
      std::vector<std::size_t> holder(p.num_machines(), kUnassigned);
      std::vector<double> holder_sufferage(p.num_machines(), -kInf);
      std::vector<Pending> deferred;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        const BestChoice c =
            best_choice(p, pending[i].request, pending[i].floor, schedule);
        const double sufferage =
            (c.second_completion == kInf) ? 0.0
                                          : c.second_completion - c.completion;
        const std::size_t m = c.machine;
        if (holder[m] == kUnassigned) {
          holder[m] = i;
          holder_sufferage[m] = sufferage;
        } else if (sufferage > holder_sufferage[m]) {
          deferred.push_back(pending[holder[m]]);
          holder[m] = i;
          holder_sufferage[m] = sufferage;
        } else {
          deferred.push_back(pending[i]);
        }
      }
      for (std::size_t m = 0; m < p.num_machines(); ++m) {
        if (holder[m] != kUnassigned) {
          commit_assignment(p, pending[holder[m]].request, m, ready, schedule);
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

}  // namespace

std::unique_ptr<BatchHeuristic> make_min_min() {
  return std::make_unique<MinMaxMin>(false);
}
std::unique_ptr<BatchHeuristic> make_max_min() {
  return std::make_unique<MinMaxMin>(true);
}
std::unique_ptr<BatchHeuristic> make_sufferage() {
  return std::make_unique<Sufferage>();
}
std::unique_ptr<BatchHeuristic> make_duplex() {
  return std::make_unique<Duplex>();
}

std::unique_ptr<ImmediateHeuristic> make_immediate(const std::string& name) {
  if (name == "olb") return make_olb();
  if (name == "met") return make_met();
  if (name == "mct") return make_mct();
  if (name == "kpb") return make_kpb();
  if (name == "switching") return make_switching();
  GT_REQUIRE(false, "unknown immediate heuristic: " + name);
  return nullptr;
}

std::unique_ptr<BatchHeuristic> make_batch(const std::string& name) {
  if (name == "min-min") return make_min_min();
  if (name == "max-min") return make_max_min();
  if (name == "sufferage") return make_sufferage();
  if (name == "duplex") return make_duplex();
  if (name == "genetic") return make_genetic();
  if (name == "annealing") return make_annealing();
  if (name == "tabu") return make_tabu();
  GT_REQUIRE(false, "unknown batch heuristic: " + name);
  return nullptr;
}

std::vector<std::string> immediate_heuristic_names() {
  return {"olb", "met", "mct", "kpb", "switching"};
}

std::vector<std::string> batch_heuristic_names() {
  return {"min-min", "max-min", "sufferage", "duplex", "genetic",
          "annealing", "tabu"};
}

}  // namespace gridtrust::sched
