// Crash-safe sweep checkpoint journal: the one store of finished cells.
//
// While a sweep runs, every cell that finalizes — ok or failed — is
// recorded in an in-memory journal which is flushed to disk through
// gridtrust::atomic_write_file — so at any instant the on-disk file is a
// complete, parseable record of some prefix of the finished work, even
// across SIGKILL.  A re-run with the same `--journal` loads it back,
// re-anchors the completed cells onto the expanded grid (guarded by the
// spec content hash and the build, so a journal can never resume a
// different sweep or binary — such a journal is ignored and overwritten),
// and runs only the remainder; because each cell's results are a pure
// function of (spec, seed), the resumed manifest is byte-identical to an
// uninterrupted run.  The supervisor merges its shard journals the same
// way (select_cell_records is the one rule set for both).
//
// Format: JSON lines.  The first line is a header object; each further
// line is one finalized cell in the cell_to_json shape:
//
//   {"schema":"gridtrust.lab.journal/v1","spec":...,"spec_hash":...,
//    "seed":...,"replications":...,"build":...}
//   {"index":0,"params":{...},...}
//   {"index":3,"params":{...},...}
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lab/manifest.hpp"
#include "lab/spec.hpp"

namespace gridtrust::lab {

/// The parsed (or accumulating) journal: run identity plus finalized cells
/// in completion order.
struct Journal {
  std::string spec;
  /// hash_hex(content hash) of the effective spec — must match for resume.
  std::string spec_hash;
  std::uint64_t seed = 0;
  std::size_t replications = 0;
  /// build_id() of the binary that wrote it; empty in pre-build headers.
  std::string build;
  std::vector<ManifestCell> cells;
};

/// Identity of the running executable: a digest of /proc/self/exe, so any
/// rebuild (committed or not) changes it.  Computed once per process; call
/// it before forking workers so they inherit the value.  Empty when the
/// executable cannot be read, which makes every journal foreign.
const std::string& build_id();

/// Serializes header + cells as JSON lines (deterministic for a given
/// cell order).
std::string journal_to_jsonl(const Journal& journal);

/// Parses a journal document.  Throws PreconditionError on a malformed
/// header or unknown schema; a malformed *cell* line anywhere (a torn tail
/// from a non-atomic writer, or a torn middle record in an appended shard
/// journal) is dropped with a warning — the damaged cell just re-runs.
Journal parse_journal(const std::string& text);

/// Loads and parses a journal file, or nullopt when the file does not
/// exist (resume of a run that died before its first checkpoint) or was
/// written by another build (warned: its cells may be stale, so it is
/// treated as missing and the next run overwrites it).  Throws
/// PreconditionError, naming the path, when the header does not parse.
std::optional<Journal> load_journal(const std::string& path);

/// Picks each grid cell's record from `journals` (records in input order).
/// A record counts only when its index is in range and its param_hash
/// matches the grid's; an `ok` record is never demoted by a failed one;
/// otherwise the last record wins.  Returns one entry per grid cell,
/// nullptr where no record counts.  Callers check spec hashes first.  The
/// pointers point into `journals`, so a temporary is rejected.
std::vector<const ManifestCell*> select_cell_records(
    const std::vector<Cell>& grid, const std::vector<Journal>& journals);
std::vector<const ManifestCell*> select_cell_records(
    const std::vector<Cell>& grid, std::vector<Journal>&& journals) = delete;

}  // namespace gridtrust::lab
