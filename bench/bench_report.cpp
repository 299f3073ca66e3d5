// One-shot Markdown report: regenerates every paper table and emits a
// single document (stdout) suitable for pasting into an issue or a wiki.
//
//   --json-reports   append every table's paired-sweep metrics as fenced JSON
//   --metrics-out    dump internal des/trust/sched metrics (JSON or CSV)
#include <iostream>

#include "lab/render.hpp"
#include "net/report.hpp"
#include "obs/export.hpp"
#include "sfi/harness.hpp"
#include "sim/scenario_builder.hpp"
#include "support.hpp"
#include "trust/ets.hpp"
#include "workload/heterogeneity.hpp"

namespace {

using namespace gridtrust;

struct TableSpec {
  const char* number;
  const char* heuristic;
  bool batch;
  bool consistent;
  const char* paper;
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_report",
                "Regenerates all paper tables as one Markdown report");
  bench::add_common_flags(cli);
  cli.add_flag("json-reports",
               "append every table's sweep metrics as one JSON document");
  cli.parse(argc, argv);
  const auto replications =
      static_cast<std::size_t>(cli.get_int("replications"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  obs::MetricsExportScope metrics(cli);

  std::cout << "# gridtrust reproduction report\n\n"
            << "Replications: " << replications << ", seed: " << seed
            << ".  Absolute seconds are model time; compare shapes (see "
               "EXPERIMENTS.md).\n\n";

  std::cout << trust::ets_symbol_table().to_markdown() << "\n";

  for (const auto& [name, link] :
       {std::pair{"Table 2. Secure versus regular transmission, 100 Mbps",
                  net::fast_ethernet_link()},
        std::pair{"Table 3. Secure versus regular transmission, 1000 Mbps",
                  net::gigabit_ethernet_link()}}) {
    const net::TransferModel model(net::piii_866_host(link), link);
    TextTable table = net::transfer_table(model, name,
                                          net::paper_file_sizes_mb());
    std::cout << table.to_markdown() << "\n";
  }

  {
    auto rows = sfi::measure_overheads(2, 5, 3);
    std::cout << sfi::sfi_table(rows).to_markdown() << "\n";
  }

  const TableSpec specs[] = {
      {"4", "mct", false, false, "36.99% / 37.59%"},
      {"5", "mct", false, true, "34.44% / 34.26%"},
      {"6", "min-min", true, false, "23.51% / 23.34%"},
      {"7", "min-min", true, true, "25.28% / 25.32%"},
      {"8", "sufferage", true, false, "39.66% / 38.40%"},
      {"9", "sufferage", true, true, "32.67% / 33.19%"},
  };
  // Every table cell's aggregates, merged under table<N>.tasks<M> prefixes:
  // one uniform name -> value document built from the sweep manifests.
  obs::RunReport combined;
  for (const TableSpec& spec : specs) {
    const lab::Manifest manifest = bench::run_paired_sweep(
        cli, "table" + std::string(spec.number),
        {{"tasks", {static_cast<double>(cli.get_int("tasks-a")),
                    static_cast<double>(cli.get_int("tasks-b"))}}},
        [&](const lab::Cell& cell) {
          sim::ScenarioBuilder builder = bench::builder_from_flags(cli);
          builder.tasks(static_cast<std::size_t>(cell.number("tasks")))
              .heuristic(spec.heuristic);
          if (spec.batch) builder.batch(cli.get_double("batch-interval"));
          if (spec.consistent) {
            builder.consistent();
          } else {
            builder.inconsistent();
          }
          return builder.build();
        });
    for (const lab::ManifestCell& cell : manifest.cells) {
      const std::string prefix =
          "table" + std::string(spec.number) + ".tasks" +
          std::to_string(
              static_cast<std::int64_t>(cell.params[0].second.number())) +
          ".";
      for (const auto& [name, metric] : cell.metrics) {
        combined.set(prefix + name, metric.mean);
        if (metric.n >= 2) combined.set(prefix + name + "_ci95", metric.ci95);
      }
    }
    const std::string title =
        std::string("Table ") + spec.number + ". " + spec.heuristic + ", " +
        (spec.consistent ? "consistent" : "inconsistent") +
        " LoLo (paper improvements: " + spec.paper + ")";
    std::cout << lab::paper_schedule_table(title, manifest).to_markdown()
              << "\n";
  }

  std::cout << "## Headline improvements\n\n";
  for (const TableSpec& spec : specs) {
    std::cout << "- Table " << spec.number << " (" << spec.heuristic << "): ";
    bool first = true;
    for (const std::int64_t tasks :
         {cli.get_int("tasks-a"), cli.get_int("tasks-b")}) {
      const std::string key = "table" + std::string(spec.number) + ".tasks" +
                              std::to_string(tasks) + ".improvement_pct";
      if (!first) std::cout << " / ";
      first = false;
      std::cout << format_percent(combined.get(key));
    }
    std::cout << " (paper: " << spec.paper << ")\n";
  }
  std::cout << "\n";

  if (cli.get_flag("json-reports")) {
    std::cout << "## Run reports\n\n```json\n"
              << combined.to_json() << "\n```\n";
  }
  return 0;
}
