#include "sfi/harness.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sfi/hotlist.hpp"
#include "sfi/lld.hpp"
#include "sfi/md5.hpp"
#include "sfi/sandbox.hpp"

namespace gridtrust::sfi {

std::string to_string(Workload workload) {
  switch (workload) {
    case Workload::kHotlist:
      return "page-eviction hotlist";
    case Workload::kLld:
      return "logical log-structured disk";
    case Workload::kMd5:
      return "MD5";
  }
  return "?";
}

namespace {

/// Volatile sink defeating dead-code elimination of the measured work.
volatile std::uint64_t g_sink = 0;

template <typename Heap>
std::uint64_t run_hotlist(std::size_t scale, std::uint64_t seed,
                          std::uint64_t& checks) {
  // 128 x 256 B pages stay L1-resident, so the run is dominated by the
  // per-word sandbox checks rather than by cache misses (the closest a
  // modern out-of-order core gets to the paper's in-order PIII behaviour).
  constexpr std::size_t kPages = 128;
  Heap heap(PageEvictionHotlist<Heap>::heap_bytes(kPages));
  PageEvictionHotlist<Heap> hotlist(heap, kPages, kPages / 8);
  Rng rng(seed);
  const std::uint64_t sum = hotlist.run(150'000 * scale, rng);
  checks = heap.check_count();
  return sum;
}

template <typename Heap>
std::uint64_t run_lld(std::size_t scale, std::uint64_t seed,
                      std::uint64_t& checks) {
  constexpr std::size_t kBlocks = 512;
  constexpr std::size_t kSlots = 768;
  Heap heap(LogStructuredDisk<Heap>::heap_bytes(kBlocks, kSlots));
  LogStructuredDisk<Heap> disk(heap, kBlocks, kSlots);
  Rng rng(seed);
  const std::uint64_t digest = disk.run(150'000 * scale, rng);
  checks = heap.check_count();
  return digest;
}

template <typename Heap>
std::uint64_t run_md5(std::size_t scale, std::uint64_t seed,
                      std::uint64_t& checks) {
  constexpr std::size_t kMessageBytes = 1 << 20;  // 1 MiB per pass
  Heap heap(kMessageBytes);
  Rng rng(seed);
  for (std::size_t i = 0; i < kMessageBytes; i += 4) {
    heap.store32(i, static_cast<std::uint32_t>(rng()));
  }
  std::uint64_t folded = 0;
  for (std::size_t pass = 0; pass < 8 * scale; ++pass) {
    const Md5Digest digest = md5_of_heap(heap, 0, kMessageBytes);
    for (const std::uint8_t byte : digest) {
      folded = folded * 31 + byte;
    }
  }
  checks = heap.check_count();
  return folded;
}

template <typename Heap>
std::uint64_t dispatch(Workload workload, std::size_t scale,
                       std::uint64_t seed, std::uint64_t& checks) {
  switch (workload) {
    case Workload::kHotlist:
      return run_hotlist<Heap>(scale, seed, checks);
    case Workload::kLld:
      return run_lld<Heap>(scale, seed, checks);
    case Workload::kMd5:
      return run_md5<Heap>(scale, seed, checks);
  }
  GT_ASSERT(false);
  return 0;
}

template <typename Heap>
RunResult timed_run(Workload workload, const char* policy, std::size_t scale,
                    std::uint64_t seed, std::size_t repetitions) {
  RunResult out;
  out.workload = workload;
  out.policy = policy;
  out.seconds = 0.0;
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    std::uint64_t checks = 0;
    // gt-lint: allow(GT001 microbenchmark wall timing; checksums gate it)
    const auto begin = std::chrono::steady_clock::now();
    const std::uint64_t checksum = dispatch<Heap>(workload, scale, seed, checks);
    // gt-lint: allow(GT001 microbenchmark wall timing, see above)
    const auto end = std::chrono::steady_clock::now();
    g_sink = checksum;
    const double secs = std::chrono::duration<double>(end - begin).count();
    if (rep == 0 || secs < out.seconds) out.seconds = secs;
    out.checksum = checksum;
    out.checks = checks;
  }
  return out;
}

}  // namespace

RunResult run_workload(Workload workload, const std::string& policy_name,
                       std::size_t scale, std::uint64_t seed,
                       std::size_t repetitions) {
  GT_REQUIRE(scale >= 1, "scale must be >= 1");
  GT_REQUIRE(repetitions >= 1, "need at least one repetition");
  if (policy_name == NativeMemory::kName) {
    return timed_run<NativeMemory>(workload, NativeMemory::kName, scale, seed,
                                   repetitions);
  }
  if (policy_name == MisfitMemory::kName) {
    return timed_run<MisfitMemory>(workload, MisfitMemory::kName, scale, seed,
                                   repetitions);
  }
  if (policy_name == SasiMemory::kName) {
    return timed_run<SasiMemory>(workload, SasiMemory::kName, scale, seed,
                                 repetitions);
  }
  GT_REQUIRE(false, "unknown memory policy: " + policy_name);
  return {};
}

std::vector<OverheadRow> measure_overheads(std::size_t scale,
                                           std::uint64_t seed,
                                           std::size_t repetitions) {
  GT_REQUIRE(repetitions >= 1, "need at least one repetition");
  // Interleave the arms: each round runs native, MiSFIT and SASI back to
  // back, and every arm keeps its fastest round.  Timed in separate blocks,
  // one burst of host load (a parallel test run, a clock ramp at start-up)
  // could slow every repetition of one arm and flip the comparison; here a
  // burst costs each arm only the rounds it overlaps, which the minimum
  // skips.
  const auto keep_fastest = [](RunResult& best, RunResult run) {
    if (best.policy.empty() || run.seconds < best.seconds) {
      best = std::move(run);
    }
  };
  std::vector<OverheadRow> rows;
  for (const Workload w :
       {Workload::kHotlist, Workload::kLld, Workload::kMd5}) {
    RunResult native;
    RunResult misfit;
    RunResult sasi;
    for (std::size_t rep = 0; rep < repetitions; ++rep) {
      keep_fastest(native,
                   run_workload(w, NativeMemory::kName, scale, seed, 1));
      keep_fastest(misfit,
                   run_workload(w, MisfitMemory::kName, scale, seed, 1));
      keep_fastest(sasi, run_workload(w, SasiMemory::kName, scale, seed, 1));
    }
    OverheadRow row;
    row.workload = w;
    row.native_seconds = native.seconds;
    GT_ASSERT(native.seconds > 0.0);
    row.misfit_overhead_pct =
        (misfit.seconds - native.seconds) / native.seconds * 100.0;
    row.sasi_overhead_pct =
        (sasi.seconds - native.seconds) / native.seconds * 100.0;
    row.checksums_match = native.checksum == misfit.checksum &&
                          native.checksum == sasi.checksum;
    rows.push_back(row);
  }
  return rows;
}

TextTable sfi_table(const std::vector<OverheadRow>& rows) {
  TextTable table({"Application", "native (s)", "MiSFIT-style overhead",
                   "SASI-style overhead", "paper (MiSFIT)", "paper (SASI)",
                   "digests equal"});
  table.set_title(
      "SFI sandboxing runtime overhead (measured; paper values for "
      "reference)");
  auto paper = [](Workload w) -> std::pair<const char*, const char*> {
    switch (w) {
      case Workload::kHotlist:
        return {"137%", "264%"};
      case Workload::kLld:
        return {"58%", "65%"};
      case Workload::kMd5:
        return {"33%", "36%"};
    }
    return {"?", "?"};
  };
  for (const OverheadRow& row : rows) {
    const auto [pm, ps] = paper(row.workload);
    table.add_row({to_string(row.workload),
                   format_grouped(row.native_seconds, 3),
                   format_percent(row.misfit_overhead_pct),
                   format_percent(row.sasi_overhead_pct), pm, ps,
                   row.checksums_match ? "yes" : "NO"});
  }
  return table;
}

}  // namespace gridtrust::sfi
