// Reproduces the §5.1 sandboxing study: MiSFIT/SASI-style SFI overhead on
// the page-eviction hotlist, logical log-structured disk, and MD5.
#include <iostream>

#include "common/cli.hpp"
#include "sfi/harness.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_sfi_overhead",
                "Reproduces the SFI sandboxing overhead study of §5.1");
  cli.add_int("scale", 2, "workload size multiplier");
  cli.add_int("repetitions", 5, "timing repetitions (best-of)");
  cli.add_int("seed", 5, "workload seed");
  cli.add_flag("csv", "emit CSV instead of the ASCII table");
  cli.parse(argc, argv);

  const auto rows = sfi::measure_overheads(
      static_cast<std::size_t>(cli.get_int("scale")),
      static_cast<std::uint64_t>(cli.get_int("seed")),
      static_cast<std::size_t>(cli.get_int("repetitions")));
  const auto table = sfi::sfi_table(rows);
  std::cout << (cli.get_flag("csv") ? table.to_csv() : table.to_string());
  std::cout << "\nnotes: checks are real (bounds/mask/alignment on every "
               "access); digests must match across policies.\n"
               "Wall-clock percentages vary with the host; the reproduced "
               "claim is the ordering across workloads (memory-dense\n"
               "hotlist >> log-structured disk >> compute-dense MD5). "
               "Between the two styles the order depends on the workload:\n"
               "SASI-style costs more than MiSFIT-style on the hotlist, as "
               "in the paper, but less on the log-structured disk (the\n"
               "paper has SASI higher there too), and on MD5 both stay "
               "within noise of zero. Measured numbers: the Sec. 5.1 row of\n"
               "docs/experiments-catalog.md.\n";
  return 0;
}
