// The trust-level table between client domains and resource domains (§3.1).
//
// TL[i][j][k] is the (symmetric-quantifier) trust value for clients of client
// domain i engaging in activity k on resources of resource domain j.  The
// table is the single, centrally maintained structure of Fig. 1; trust agents
// write to it and the scheduler reads offered trust levels from it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "trust/trust_level.hpp"

namespace gridtrust::trust {

/// Dense CD x RD x ToA table of offered trust levels.
///
/// `trust.table_lookups` is batched in a plain member and published by
/// publish_metrics() (called by the destructor), so a read costs no registry
/// traffic; as a consequence one table must not be read from two threads at
/// once.  `trust.table_writes` is recorded per write.
class TrustLevelTable {
 public:
  /// Creates a table with every entry at the lowest level (A).
  /// All three dimensions must be positive.
  TrustLevelTable(std::size_t client_domains, std::size_t resource_domains,
                  std::size_t activities);
  /// Publishes any unflushed lookups.
  ~TrustLevelTable();
  /// Copies carry the entries, not the source's unpublished lookups.
  TrustLevelTable(const TrustLevelTable&) = default;
  TrustLevelTable(TrustLevelTable&&) = default;
  TrustLevelTable& operator=(const TrustLevelTable&) = default;
  TrustLevelTable& operator=(TrustLevelTable&&) = default;

  std::size_t client_domains() const { return n_cd_; }
  std::size_t resource_domains() const { return n_rd_; }
  std::size_t activities() const { return n_act_; }

  /// Reads one entry; indices are range-checked.
  TrustLevel get(std::size_t cd, std::size_t rd, std::size_t activity) const;

  /// Writes one entry.  Offered levels are capped at E by the model, so
  /// `level` must be in A..E.  Bumps the table version if the value changed.
  void set(std::size_t cd, std::size_t rd, std::size_t activity,
           TrustLevel level);

  /// Offered trust level for a composite activity: the minimum table entry
  /// over the requested activities (§3.1).  `activities` must be non-empty
  /// and in range.
  TrustLevel offered_trust_level(std::size_t cd, std::size_t rd,
                                 std::span<const std::size_t> activities) const;

  /// Fills every entry uniformly from [A..E] (the paper's OTL ~ U[1,5]).
  void randomize(Rng& rng);

  /// Monotone counter incremented on every effective set(); lets replicas
  /// and read caches detect staleness cheaply (trust is slow-varying, §3.1).
  std::uint64_t version() const { return version_; }

  /// Pushes the lookups counted since the last publish to the installed
  /// obs::MetricsRegistry (they stay pending while none is installed).
  void publish_metrics() const;

 private:
  struct LookupCounts {
    std::uint64_t lookups = 0;
  };

  std::size_t offset(std::size_t cd, std::size_t rd,
                     std::size_t activity) const;

  std::size_t n_cd_;
  std::size_t n_rd_;
  std::size_t n_act_;
  std::uint64_t version_ = 0;
  std::vector<TrustLevel> levels_;
  mutable obs::PendingCounts<LookupCounts> pending_;
};

}  // namespace gridtrust::trust
