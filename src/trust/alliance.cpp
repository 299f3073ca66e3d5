#include "trust/alliance.hpp"

#include <algorithm>
#include <numeric>

namespace gridtrust::trust {

AllianceGraph::AllianceGraph(std::size_t entities) : group_(entities) {
  std::iota(group_.begin(), group_.end(), std::size_t{0});
}

void AllianceGraph::ally(EntityId a, EntityId b) {
  GT_REQUIRE(a < group_.size() && b < group_.size(), "entity id out of range");
  const std::size_t keep = group_[a];
  const std::size_t gone = group_[b];
  if (keep == gone) return;
  std::replace(group_.begin(), group_.end(), gone, keep);
}

std::size_t AllianceGraph::group_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (group_[i] == i) ++n;
  }
  return n;
}

std::size_t AllianceGraph::group_size(EntityId e) const {
  GT_REQUIRE(e < group_.size(), "entity id out of range");
  return static_cast<std::size_t>(
      std::count(group_.begin(), group_.end(), group_[e]));
}

}  // namespace gridtrust::trust
