// Alliance tracking for collusion-resistant reputation (§2.2).
//
// Entities may form alliances and tend to over-recommend their allies.  The
// recommender trust factor R(z, y) is discounted when the recommender z and
// the target y belong to the same alliance.  Alliances are transitive, so
// they form disjoint groups, kept as one group id per entity: ally()
// relabels, every const query is a plain read, and one graph may be queried
// from many threads at once.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "trust/transaction.hpp"

namespace gridtrust::trust {

/// Disjoint groups of allied entities.
class AllianceGraph {
 public:
  /// Creates `entities` singleton groups (no alliances).
  explicit AllianceGraph(std::size_t entities);

  std::size_t entity_count() const { return group_.size(); }

  /// Merges the alliances of `a` and `b` (idempotent).  O(entities).
  void ally(EntityId a, EntityId b);

  /// True when `a` and `b` are in the same alliance (every entity is
  /// trivially allied with itself).
  bool allied(EntityId a, EntityId b) const {
    GT_REQUIRE(a < group_.size() && b < group_.size(),
               "entity id out of range");
    return group_[a] == group_[b];
  }

  /// Number of distinct alliance groups (including singletons).
  std::size_t group_count() const;

  /// Size of the alliance containing `e`.
  std::size_t group_size(EntityId e) const;

 private:
  // group_[i] names i's alliance by one of its members g, with
  // group_[g] == g.
  std::vector<std::size_t> group_;
};

}  // namespace gridtrust::trust
