// Flagship composition bench: a collusion attack *inside* the scheduling
// loop.  A hostile resource domain has an allied client domain that
// ballot-stuffs it (and badmouths everyone else).  The reputation backend
// decides the outcome:
//
//   Γ (the paper's model): per-evaluator direct trust plus
//   recommender-weighted reputation.  Honest client domains' own bad
//   experiences dominate, and the colluder's praise is discounted by R.
//
//   pooled Beta baseline: one global opinion per domain, every rating
//   counted equally — the colluder keeps the hostile domain's offered
//   level inflated for everyone, and sensitive work keeps landing there
//   under-protected.
#include <iostream>

#include "chaos/campaign.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;

  CliParser cli("bench_collusion_loop",
                "Collusion attack in the closed loop: Γ+R vs pooled Beta");
  cli.add_int("rounds", 14, "scheduling rounds");
  cli.add_int("tasks", 60, "tasks per round");
  cli.add_int("seeds", 8, "independent runs to average");
  cli.add_flag("csv", "emit CSV instead of the ASCII table");
  cli.parse(argc, argv);

  const auto run_arm = [&](const char* backend, bool with_collusion) {
    // rd2 is hostile; under attack cd2 is its ally.
    sim::Scenario scenario = bench::closed_loop_builder(3, {5.6, 4.4, 1.6})
                                 .with_reputation_backend(backend)
                                 .build();
    if (with_collusion) {
      scenario.chaos.adversaries[2].kind = chaos::BehaviorKind::kCollusive;
      chaos::AdversarySpec ally;
      ally.side = chaos::AdversarySide::kClientDomain;
      ally.domain = 2;
      ally.kind = chaos::BehaviorKind::kCollusive;
      scenario.chaos.adversaries.push_back(ally);
    }
    chaos::CampaignRunConfig config;
    config.rounds = static_cast<std::size_t>(cli.get_int("rounds"));
    config.tasks_per_round = static_cast<std::size_t>(cli.get_int("tasks"));
    config.honest_cd_mean = 5.0;
    config.conduct_sigma = 0.4;
    config.engine.alliance_discount = 0.1;

    RunningStats tail_exposure;
    RunningStats hostile_level;
    const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
    for (std::size_t seed = 0; seed < seeds; ++seed) {
      const chaos::CampaignResult run =
          chaos::run_campaign(scenario, config, seed + 41);
      for (std::size_t i = run.rounds.size() - 4; i < run.rounds.size(); ++i) {
        tail_exposure.add(run.rounds[i].mean_residual_exposure_honest);
      }
      // The hostile domain's level as an honest client domain (cd0) sees it.
      hostile_level.add(static_cast<double>(
          trust::to_numeric(run.final_table.get(0, 2, 0))));
    }
    return std::pair{tail_exposure.mean(), hostile_level.mean()};
  };

  TextTable table({"backend", "collusion", "honest-CD residual exposure",
                   "hostile rd level (cd0 view)"});
  table.set_title(
      "Collusion attack in the scheduling loop (truth: hostile rd ~ 1.6)");
  for (const auto& [backend, name] :
       {std::pair{"gamma", "Γ (paper)"}, std::pair{"beta", "pooled Beta"}}) {
    for (const bool collusion : {false, true}) {
      const auto [exposure, level] = run_arm(backend, collusion);
      table.add_row({name, collusion ? "yes" : "no",
                     format_grouped(exposure, 3), format_grouped(level, 1)});
    }
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout << "\nreading: without collusion both backends learn the "
               "hostile domain.  Under attack, honest client domains stay "
               "protected under the paper's per-evaluator Γ (their own "
               "direct experience dominates and R discounts the ally's "
               "praise), while the pooled Beta table is whitewashed for "
               "everyone — the design reason §2.2 introduces R.\n";
  return 0;
}
