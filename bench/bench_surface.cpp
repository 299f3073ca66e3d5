// Figure-style 2-D surface: improvement as a function of the two ESC
// pricing constants the paper fixes by fiat (TC weight 15 %, blanket 50 %).
// Emits a grid suitable for contour plotting; the zero-crossing line shows
// exactly where trust awareness stops paying.
#include <iostream>

#include "support.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_surface",
                "Improvement surface over (TC weight, blanket rate)");
  bench::add_common_flags(cli);
  cli.add_int("tasks", 50, "tasks per replication");
  cli.parse(argc, argv);

  const std::vector<double> weights = {0.0, 5.0, 10.0, 15.0, 20.0, 30.0};
  const std::vector<double> blankets = {10.0, 25.0, 50.0, 75.0, 100.0};

  std::vector<std::string> headers{"TC weight \\ blanket"};
  for (const double b : blankets) headers.push_back(format_grouped(b, 0) + "%");
  TextTable table(std::move(headers));
  table.set_title(
      "Improvement surface (MCT, inconsistent LoLo; paper point: weight 15, "
      "blanket 50)");
  const lab::Manifest manifest = bench::run_paired_sweep(
      cli, "surface",
      {{"tc_weight", {weights.begin(), weights.end()}},
       {"blanket", {blankets.begin(), blankets.end()}}},
      [&](const lab::Cell& cell) {
        sim::Scenario scenario = bench::scenario_from_flags(cli);
        scenario.tasks = static_cast<std::size_t>(cli.get_int("tasks"));
        scenario.security.tc_weight_pct = cell.number("tc_weight");
        scenario.security.blanket_pct = cell.number("blanket");
        return scenario;
      });
  // Row-major cells: one table row per TC weight, one column per blanket.
  for (std::size_t w = 0; w < weights.size(); ++w) {
    std::vector<std::string> row{format_grouped(weights[w], 0) + "%"};
    for (std::size_t b = 0; b < blankets.size(); ++b) {
      const lab::ManifestCell& cell = manifest.cells[w * blankets.size() + b];
      row.push_back(format_percent(cell.metric("improvement_pct").mean));
    }
    table.add_row(std::move(row));
  }
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout << "\nreading: trust awareness pays whenever typical TC pricing "
               "undercuts the blanket rate; the diagonal where "
               "weight x E[TC] ~ blanket is the break-even ridge.\n";
  return 0;
}
