// Ablation: the two places where the paper underspecifies its model and
// DESIGN.md documents an interpretation choice —
//   (a) trust-table structure: pair-level (default) vs independent
//       per-activity entries, and
//   (b) the Table 1 row F: plain clamped difference (default) vs the strict
//       forced TC=6 reading.
#include <iostream>

#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_ablation_interpretation",
                "Impact of the DESIGN.md interpretation choices");
  bench::add_common_flags(cli);
  cli.add_int("tasks", 50, "tasks per replication");
  cli.parse(argc, argv);

  TextTable table({"trust table", "RTL=F reading", "heuristic",
                   "improvement", "aware makespan"});
  table.set_title("Model-interpretation ablation (inconsistent LoLo, " +
                  std::to_string(cli.get_int("tasks")) + " tasks)");
  const lab::Manifest manifest = bench::run_paired_sweep(
      cli, "ablation_interpretation",
      {{"trust_table", {"pair-level", "iid per activity"}},
       {"f_reading", {"clamped diff", "forced TC=6"}},
       {"heuristic", {"mct", "min-min", "sufferage"}}},
      [&](const lab::Cell& cell) {
        sim::Scenario scenario = bench::scenario_from_flags(cli);
        scenario.tasks = static_cast<std::size_t>(cli.get_int("tasks"));
        scenario.table_correlation =
            cell.text("trust_table") == "iid per activity"
                ? workload::TableCorrelation::kIndependentPerActivity
                : workload::TableCorrelation::kPairLevel;
        scenario.security.table1_forced_f =
            cell.text("f_reading") == "forced TC=6";
        const std::string& heuristic = cell.text("heuristic");
        if (heuristic != "mct") {
          scenario.rms.mode = sim::SchedulingMode::kBatch;
          scenario.rms.heuristic = heuristic;
        }
        return scenario;
      });
  for (const lab::ManifestCell& cell : manifest.cells) {
    table.add_row({cell.params[0].second.text(), cell.params[1].second.text(),
                   cell.params[2].second.text(),
                   format_percent(cell.metric("improvement_pct").mean),
                   format_grouped(cell.metric("aware.makespan").mean, 1)});
    if ((cell.index + 1) % 3 == 0) table.add_separator();
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout << "\nreading: both stricter readings lower the offered trust "
               "(or raise forced supplements) and shrink the reproduced "
               "improvement; the defaults match the paper's numbers best.\n";
  return 0;
}
