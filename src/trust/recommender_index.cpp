#include "trust/recommender_index.hpp"

#include <tuple>

namespace gridtrust::trust {

std::size_t RecommenderIndex::erase_entity(EntityId entity) {
  std::size_t removed = 0;
  for (std::size_t i = 0; i < lists_.size(); ++i) {
    std::vector<Slot>& list = lists_[i];
    if (i / contexts_ == entity) {
      removed += list.size();
      list.clear();
      continue;
    }
    const auto it = lower(list, entity);
    if (it != list.end() && it->truster == entity) {
      list.erase(it);
      ++removed;
    }
  }
  size_ -= removed;
  return removed;
}

std::vector<DirectTrustEntry> RecommenderIndex::entries() const {
  std::vector<DirectTrustEntry> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < lists_.size(); ++i) {
    const auto trustee = static_cast<EntityId>(i / contexts_);
    const auto context = static_cast<ContextId>(i % contexts_);
    for (const Slot& slot : lists_[i]) {
      out.push_back(DirectTrustEntry{slot.truster, trustee, context,
                                     slot.record});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DirectTrustEntry& a, const DirectTrustEntry& b) {
              return std::tie(a.truster, a.trustee, a.context) <
                     std::tie(b.truster, b.trustee, b.context);
            });
  return out;
}

}  // namespace gridtrust::trust
