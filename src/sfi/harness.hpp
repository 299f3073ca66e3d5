// Native-vs-sandboxed measurement harness (§5.1).
//
// Runs each target application under each memory policy, times the runs,
// and reports runtime overhead relative to the native (unsandboxed) policy,
// reproducing the study the paper cites: hotlist >> log-structured disk >
// MD5, with SASI-style instrumentation costlier than MiSFIT-style.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace gridtrust::sfi {

/// The three target applications of the study.
enum class Workload { kHotlist, kLld, kMd5 };

std::string to_string(Workload workload);

/// One (workload, policy) measurement.
struct RunResult {
  Workload workload = Workload::kMd5;
  std::string policy;        ///< "native", "misfit", or "sasi"
  double seconds = 0.0;      ///< best-of-repetitions wall time
  std::uint64_t checksum = 0;///< workload digest (identical across policies)
  std::uint64_t checks = 0;  ///< sandbox checks executed
};

/// Runs `workload` under policy `policy_name` at the given scale (an
/// abstract iteration multiplier; 1 keeps each run in the tens of
/// milliseconds).  Times are the minimum over `repetitions` runs.
RunResult run_workload(Workload workload, const std::string& policy_name,
                       std::size_t scale, std::uint64_t seed,
                       std::size_t repetitions = 3);

/// One row of the reproduced overhead report.
struct OverheadRow {
  Workload workload = Workload::kMd5;
  double native_seconds = 0.0;
  double misfit_overhead_pct = 0.0;
  double sasi_overhead_pct = 0.0;
  bool checksums_match = false;  ///< all three policies computed equal digests
};

/// Measures all three workloads under all three policies.  The policies
/// run interleaved, one run each per round for `repetitions` rounds, and
/// each keeps its fastest round.
std::vector<OverheadRow> measure_overheads(std::size_t scale,
                                           std::uint64_t seed,
                                           std::size_t repetitions = 3);

/// Renders the §5.1 comparison (paper reference numbers included).
TextTable sfi_table(const std::vector<OverheadRow>& rows);

}  // namespace gridtrust::sfi
