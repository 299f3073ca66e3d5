#include "lab/render.hpp"

#include "common/fs.hpp"

namespace gridtrust::lab {

namespace {

std::string metric_cell_text(const ManifestCell& cell,
                             const std::string& name) {
  const MetricAggregate* m = cell.find_metric(name);
  if (m == nullptr) return "-";
  std::string out = format_grouped(m->mean, 2);
  if (m->n >= 2) out += " ± " + format_grouped(m->ci95, 2);
  return out;
}

}  // namespace

TextTable sweep_table(const SweepSpec& spec, const Manifest& manifest) {
  std::vector<std::string> metric_names = spec.display_metrics;
  if (metric_names.empty() && !manifest.cells.empty()) {
    for (const auto& [name, value] : manifest.cells.front().metrics) {
      metric_names.push_back(name);
    }
  }
  std::vector<std::string> headers;
  for (const Axis& axis : spec.axes) headers.push_back(axis.name);
  for (const std::string& name : metric_names) headers.push_back(name);
  TextTable table(headers);
  table.set_title(spec.title + " (seed " + std::to_string(manifest.seed) +
                  ", n=" + std::to_string(manifest.replications) + "/cell)");
  for (const ManifestCell& cell : manifest.cells) {
    std::vector<std::string> row;
    for (const auto& [key, value] : cell.params) {
      row.push_back(value.is_number() ? format_grouped(value.number(), 0)
                                      : value.text());
    }
    for (const std::string& name : metric_names) {
      row.push_back(metric_cell_text(cell, name));
    }
    table.add_row(std::move(row));
  }
  return table;
}

TextTable paper_schedule_table(const std::string& title,
                               const Manifest& manifest) {
  TextTable table({"# of tasks", "Using trust", "Machine utilization",
                   "Ave. completion time (sec)", "Improvement"});
  table.set_title(title);
  bool first = true;
  for (const ManifestCell& cell : manifest.cells) {
    std::string tasks = "?";
    for (const auto& [key, value] : cell.params) {
      if (key == "tasks") tasks = format_grouped(value.number(), 0);
    }
    if (!first) table.add_separator();
    first = false;
    table.add_row({tasks, "No",
                   format_percent(cell.metric("unaware.utilization_pct").mean),
                   format_grouped(cell.metric("unaware.makespan").mean, 2),
                   format_percent(cell.metric("improvement_pct").mean)});
    table.add_row({"", "Yes",
                   format_percent(cell.metric("aware.utilization_pct").mean),
                   format_grouped(cell.metric("aware.makespan").mean, 2), ""});
  }
  return table;
}

std::vector<std::string> paired_summaries(const Manifest& manifest) {
  std::vector<std::string> out;
  for (const ManifestCell& cell : manifest.cells) {
    const MetricAggregate* diff = cell.find_metric("makespan_diff");
    const MetricAggregate* base = cell.find_metric("unaware.makespan");
    const MetricAggregate* improvement = cell.find_metric("improvement_pct");
    if (diff == nullptr || base == nullptr || improvement == nullptr) continue;
    const double rel_ci =
        base->mean > 0.0 ? diff->ci95 / base->mean * 100.0 : 0.0;
    std::string label;
    for (const auto& [key, value] : cell.params) {
      if (!label.empty()) label += ' ';
      label += key + "=" + value.canonical();
    }
    out.push_back(label + ": improvement " +
                  format_percent(improvement->mean) +
                  " (95% CI half-width " + format_percent(rel_ci) +
                  ", n=" + std::to_string(diff->n) + ")");
  }
  return out;
}

int print_run_summary(std::ostream& out, const SweepSpec& spec,
                      const Manifest& manifest, const RunSummary& summary) {
  const TextTable table = summary.paper_layout
                              ? paper_schedule_table(spec.title, manifest)
                              : sweep_table(spec, manifest);
  out << (summary.csv ? table.to_csv() : table.to_string());
  for (const std::string& line : paired_summaries(manifest)) {
    out << "  " << line << "\n";
  }
  out << "  expected: " << spec.expected << "\n" << summary.stats;
  bool any_failure = false;
  for (const ManifestCell& cell : manifest.cells) {
    any_failure = any_failure || !cell.failures.empty();
  }
  if (summary.show_outcome || any_failure ||
      manifest.outcome != RunOutcome::kComplete) {
    out << "  outcome: " << to_string(manifest.outcome) << " ("
        << summary.outcome_counts << ")\n";
    for (const ManifestCell& cell : manifest.cells) {
      for (const UnitFailure& failure : cell.failures) {
        out << "    cell " << cell.index << " rep " << failure.rep << " ["
            << to_string(failure.error_class) << " after " << failure.attempts
            << " attempt(s)]: " << failure.message << "\n";
      }
    }
  }
  out << "\n";
  if (!summary.out_path.empty()) {
    atomic_write_file(summary.out_path, to_json(manifest));
    out << "  manifest: " << summary.out_path << "\n\n";
  }
  return outcome_exit_code(manifest.outcome);
}

}  // namespace gridtrust::lab
