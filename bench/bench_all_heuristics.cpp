// Extension bench: the full heuristic suite of Maheswaran et al. [10]
// (OLB, MET, MCT, KPB, SA / Min-min, Max-min, Sufferage, Duplex), trust-
// unaware vs trust-aware, across all four heterogeneity x consistency
// classes.  The paper evaluates only MCT, Min-min, and Sufferage; this
// bench shows the trust integration composes with the whole family.
#include <algorithm>
#include <iostream>

#include "support.hpp"
#include "workload/heterogeneity.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_all_heuristics",
                "Trust-aware vs unaware across the full heuristic suite");
  bench::add_common_flags(cli);
  cli.add_int("tasks", 50, "tasks per replication");
  cli.parse(argc, argv);
  const auto replications =
      static_cast<std::size_t>(cli.get_int("replications"));

  TextTable table({"heuristic", "mode", "class", "unaware makespan",
                   "aware makespan", "improvement", "95% CI (diff)"});
  table.set_title(
      "Full heuristic suite, trust-unaware vs trust-aware (mean over " +
      std::to_string(replications) + " replications)");

  std::vector<workload::HeterogeneityParams> classes;
  for (const auto consistency :
       {workload::Consistency::kInconsistent,
        workload::Consistency::kConsistent}) {
    for (const auto task : {workload::Heterogeneity::kLow,
                            workload::Heterogeneity::kHigh}) {
      workload::HeterogeneityParams params;
      params.consistency = consistency;
      params.task = task;
      params.machine = workload::Heterogeneity::kLow;
      classes.push_back(params);
    }
  }
  lab::Axis class_axis{"class", {}};
  for (const auto& klass : classes) {
    class_axis.values.emplace_back(workload::to_string(klass));
  }
  const std::vector<std::string> batch_names = sched::batch_heuristic_names();
  lab::Axis heuristic_axis{"heuristic", {}};
  for (const std::string& name : sched::immediate_heuristic_names()) {
    heuristic_axis.values.emplace_back(name);
  }
  for (const std::string& name : batch_names) {
    heuristic_axis.values.emplace_back(name);
  }
  const auto is_batch = [&batch_names](const std::string& name) {
    return std::find(batch_names.begin(), batch_names.end(), name) !=
           batch_names.end();
  };
  const std::size_t heuristics = heuristic_axis.values.size();

  const lab::Manifest manifest = bench::run_paired_sweep(
      cli, "all_heuristics", {class_axis, heuristic_axis},
      [&](const lab::Cell& cell) {
        const std::string& name = cell.text("heuristic");
        sim::Scenario scenario = bench::scenario_from_flags(cli);
        scenario.tasks = static_cast<std::size_t>(cli.get_int("tasks"));
        // Class is the outer axis.
        scenario.heterogeneity = classes[cell.index / heuristics];
        scenario.rms.heuristic = name;
        scenario.rms.mode = is_batch(name) ? sim::SchedulingMode::kBatch
                                           : sim::SchedulingMode::kImmediate;
        return scenario;
      });

  for (const lab::ManifestCell& cell : manifest.cells) {
    const std::string& name = cell.params[1].second.text();
    table.add_row({name, is_batch(name) ? "batch" : "immediate",
                   cell.params[0].second.text(),
                   format_grouped(cell.metric("unaware.makespan").mean, 1),
                   format_grouped(cell.metric("aware.makespan").mean, 1),
                   format_percent(cell.metric("improvement_pct").mean),
                   format_grouped(cell.metric("makespan_diff").ci95, 1)});
    if ((cell.index + 1) % heuristics == 0) table.add_separator();
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  return 0;
}
