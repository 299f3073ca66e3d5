#include "lab/journal.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/log.hpp"
#include "obs/json.hpp"
#include "obs/json_in.hpp"

namespace gridtrust::lab {

namespace {

constexpr const char* kJournalSchema = "gridtrust.lab.journal/v1";

using obs::detail::json_escape;
using obs::detail::json_number;

/// FNV-1a over 8-byte words of the file at `path`; nullopt when it cannot
/// be opened.  Word steps keep the digest of a multi-megabyte binary well
/// under a millisecond, and each step is a bijection of the running hash,
/// so two files differing in one word always digest differently.
std::optional<std::uint64_t> digest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::vector<char> buffer(std::size_t{1} << 16);
  while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
         in.gcount() > 0) {
    const auto n = static_cast<std::size_t>(in.gcount());
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, buffer.data() + i, 8);
      hash = (hash ^ word) * kPrime;
    }
    for (; i < n; ++i) {
      hash = (hash ^ static_cast<unsigned char>(buffer[i])) * kPrime;
    }
  }
  return hash;
}

}  // namespace

const std::string& build_id() {
  static const std::string id = [] {
    const std::optional<std::uint64_t> digest =
        digest_file("/proc/self/exe");
    if (!digest) {
      log_warn("cannot read /proc/self/exe; journals will never resume");
      return std::string();
    }
    return hash_hex(*digest);
  }();
  return id;
}

std::string journal_to_jsonl(const Journal& journal) {
  std::string out = "{\"schema\":\"";
  out += kJournalSchema;
  out += "\",\"spec\":\"";
  out += json_escape(journal.spec);
  out += "\",\"spec_hash\":\"";
  out += json_escape(journal.spec_hash);
  out += "\",\"seed\":";
  out += json_number(static_cast<double>(journal.seed));
  out += ",\"replications\":";
  out += json_number(static_cast<double>(journal.replications));
  out += ",\"build\":\"";
  out += json_escape(journal.build);
  out += "\"}\n";
  for (const ManifestCell& cell : journal.cells) {
    out += cell_to_json(cell);
    out += '\n';
  }
  return out;
}

Journal parse_journal(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      if (i > start) lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  GT_REQUIRE(!lines.empty(), "empty journal");

  const obs::JsonValue header = obs::parse_json(lines.front());
  GT_REQUIRE(header.has("schema") &&
                 header.at("schema").as_string() == kJournalSchema,
             "unknown journal schema");
  Journal journal;
  journal.spec = header.at("spec").as_string();
  journal.spec_hash = header.at("spec_hash").as_string();
  journal.seed = static_cast<std::uint64_t>(header.at("seed").as_number());
  journal.replications =
      static_cast<std::size_t>(header.at("replications").as_number());
  if (header.has("build")) journal.build = header.at("build").as_string();

  for (std::size_t i = 1; i < lines.size(); ++i) {
    try {
      journal.cells.push_back(
          parse_manifest_cell(obs::parse_json(lines[i])));
    } catch (const PreconditionError&) {
      // A torn cell record is recoverable wherever it sits: the classic
      // case is a torn tail (non-atomic writer died mid-line), but a
      // shard journal that was partially flushed and then appended to can
      // leave a torn record *followed by* valid ones.  Either way the
      // damaged cell simply re-runs; only the header stays load-bearing.
      log_warn("dropping torn journal cell at line ", i + 1);
    }
  }
  return journal;
}

std::optional<Journal> load_journal(const std::string& path) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  Journal journal;
  try {
    journal = parse_journal(read_file(path));
  } catch (const PreconditionError& e) {
    throw PreconditionError(path + " is not a journal: " + e.what());
  }
  if (journal.build.empty() || journal.build != build_id()) {
    log_warn("journal ", path, " was written by another build (",
             journal.build.empty() ? "unrecorded" : journal.build,
             "); ignoring its cells");
    return std::nullopt;
  }
  return journal;
}

std::vector<const ManifestCell*> select_cell_records(
    const std::vector<Cell>& grid, const std::vector<Journal>& journals) {
  std::vector<const ManifestCell*> picked(grid.size(), nullptr);
  for (const Journal& journal : journals) {
    for (const ManifestCell& record : journal.cells) {
      if (record.index >= grid.size() ||
          record.param_hash != hash_hex(cell_param_hash(grid[record.index]))) {
        log_warn("dropping journal record for cell ", record.index,
                 ": not a cell of this grid");
        continue;
      }
      const ManifestCell*& slot = picked[record.index];
      if (slot != nullptr && slot->status == CellStatus::kOk &&
          record.status != CellStatus::kOk) {
        continue;  // an ok record is never demoted by a failed one
      }
      slot = &record;
    }
  }
  return picked;
}

}  // namespace gridtrust::lab
