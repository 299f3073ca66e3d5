// Adaptive RMS: the closed trust/scheduling loop as an application.
//
// A Grid operator stands up a TRMS with *no* prior trust data (everything
// starts fully trusted).  One resource domain turns out to be hostile.  The
// example shows, round by round, how the scheduler's protection catches up
// with reality — and what a frozen deployment would keep silently risking.
// Each round is one round of a chaos campaign (chaos::run_campaign).
#include <iostream>
#include <vector>

#include "chaos/campaign.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/scenario_builder.hpp"
#include "trust/serialization.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;

  CliParser cli("adaptive_rms", "Closed-loop trust-aware RMS walkthrough");
  cli.add_int("rounds", 8, "scheduling rounds");
  cli.add_int("seed", 99, "random seed");
  cli.add_flag("dump-table", "print the learned table in its save format");
  cli.parse(argc, argv);

  // rd0: well-run HPC centre; rd1: decent but patchy; rd2: compromised.
  const std::vector<double> conduct = {5.7, 4.2, 1.5};
  const sim::Scenario scenario =
      sim::ScenarioBuilder()
          .machines(6)
          .client_domains(2, 2)
          .resource_domains(3, 3)
          .batch()
          .heuristic("min-min")
          .with_adversaries(chaos::pinned_rd_conduct(conduct))
          .build();

  chaos::CampaignRunConfig config;
  config.rounds = static_cast<std::size_t>(cli.get_int("rounds"));
  config.tasks_per_round = 50;
  config.honest_cd_mean = 5.2;
  config.conduct_sigma = 0.4;
  // The table starts at E everywhere: an optimistic bootstrap.

  const chaos::CampaignResult run = chaos::run_campaign(
      scenario, config, static_cast<std::uint64_t>(cli.get_int("seed")));

  TextTable table({"round", "makespan (s)", "mean chosen TC",
                   "uncovered exposure", "table updates"});
  table.set_title("adaptive_rms: learning who to trust while scheduling");
  for (const chaos::CampaignRoundMetrics& round : run.rounds) {
    table.add_row({std::to_string(round.round + 1),
                   format_grouped(round.makespan, 1),
                   format_grouped(round.mean_table_trust_cost, 2),
                   format_grouped(round.mean_residual_exposure, 2),
                   std::to_string(round.table_updates)});
  }
  std::cout << table << "\n";
  std::cout << "what the system learned (client domain 0, activity "
               "'execute'): ";
  for (std::size_t rd = 0; rd < 3; ++rd) {
    std::cout << "rd" << rd << "="
              << trust::to_string(run.final_table.get(0, rd, 0)) << " ";
  }
  std::cout << " (truth ~ " << conduct[0] << " / " << conduct[1] << " / "
            << conduct[2] << ")\n"
            << run.transactions
            << " transactions observed by the Fig. 1 agents.\n";

  if (cli.get_flag("dump-table")) {
    std::cout << "\n-- persisted trust table "
                 "(trust::save_table format) --\n"
              << trust::table_to_string(run.final_table);
  }
  return 0;
}
