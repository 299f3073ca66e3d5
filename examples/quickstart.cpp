// Quickstart: build a random Grid, generate a workload, and compare a
// trust-aware MCT scheduler against the trust-unaware baseline.
//
//   $ ./quickstart [--tasks=50] [--seed=1]
#include <iostream>

#include "common/cli.hpp"
#include "lab/catalog.hpp"
#include "lab/engine.hpp"
#include "lab/render.hpp"
#include "sim/scenario_builder.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;

  CliParser cli("quickstart", "Minimal gridtrust end-to-end run");
  cli.add_int("tasks", 50, "requests to schedule");
  cli.add_int("seed", 1, "random seed");
  cli.add_flag("json", "emit the comparison's sweep manifest as JSON instead");
  cli.parse(argc, argv);

  // 1. Describe the experiment: a 5-machine Grid with 1-4 client/resource
  //    domains, inconsistent LoLo heterogeneity, Poisson arrivals, and the
  //    paper's ESC pricing (TC x 15 % when aware, 50 % blanket otherwise).
  //    Everything but the task count is the validated builder default.
  lab::SweepSpec spec = lab::paired_spec(
      {{"tasks", {static_cast<double>(cli.get_int("tasks"))}}},
      [](const lab::Cell& cell) {
        return sim::ScenarioBuilder()
            .tasks(static_cast<std::size_t>(cell.number("tasks")))
            .machines(5)
            .heuristic("mct")
            .immediate()
            .inconsistent()
            .arrival_rate(1.0)
            .build();
      });
  spec.name = "quickstart";
  spec.replications = 30;
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  // 2. Run paired replications on the lab sweep engine: each replication
  //    draws one instance and schedules it twice (trust-unaware, then
  //    trust-aware).
  const lab::Manifest manifest = lab::run_sweep(spec).manifest;

  // 3. Report.  Machine consumers take the manifest; humans get the prose.
  if (cli.get_flag("json")) {
    std::cout << lab::to_json(manifest) << "\n";
    return 0;
  }
  const lab::ManifestCell& cell = manifest.cells.front();
  std::cout << "gridtrust quickstart (" << cli.get_int("tasks") << " tasks, "
            << manifest.replications << " replications)\n\n"
            << "  trust-unaware makespan: "
            << format_grouped(cell.metric("unaware.makespan").mean, 2)
            << " s  ("
            << format_percent(cell.metric("unaware.utilization_pct").mean)
            << " utilization)\n"
            << "  trust-aware   makespan: "
            << format_grouped(cell.metric("aware.makespan").mean, 2)
            << " s  ("
            << format_percent(cell.metric("aware.utilization_pct").mean)
            << " utilization)\n"
            << "  improvement:            "
            << format_percent(cell.metric("improvement_pct").mean)
            << " (95% CI +/- "
            << format_grouped(cell.metric("makespan_diff").ci95, 2)
            << " s on the paired difference)\n\n"
            << lab::paired_summaries(manifest).front() << "\n";
  return 0;
}
