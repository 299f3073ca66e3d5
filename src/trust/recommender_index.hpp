// Dense direct-trust storage shared by the Γ engine and the fuzzy backend.
//
// Records are keyed by (truster, trustee, context).  Every hot query fixes
// the trustee and the context: Θ looks up one truster, while Ω and
// recommender learning walk every truster.  So the index keeps one
// recommender list per (trustee, context), stored flat at
// `trustee * contexts + context`, each list sorted by ascending truster.
//
// Summation-order contract: walking a list visits recommenders in the same
// ascending order as a `for z in 0..E` loop over a (truster, trustee,
// context)-ordered map, so every sum over the list accumulates in the same
// order and yields bit-identical doubles.
//
// Memory is O(records) plus one empty vector per (trustee, context).
// Lookups are unchecked: callers validate ids against the sizes they were
// built with.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "trust/transaction.hpp"

namespace gridtrust::trust {

/// One direct-trust record: the DTT/RTT entry for (truster, trustee, context).
struct DirectTrustRecord {
  double level = 0.0;        ///< continuous trust level in [1, 6]
  double last_time = 0.0;    ///< time of the most recent transaction
  std::uint64_t count = 0;   ///< number of transactions folded in
};

/// One (truster, trustee, context) entry of the direct-trust table.
struct DirectTrustEntry {
  EntityId truster = 0;
  EntityId trustee = 0;
  ContextId context = 0;
  DirectTrustRecord record;
};

/// Per-(trustee, context) recommender lists in ascending truster order.
class RecommenderIndex {
 public:
  /// One recommender's record about the list's (trustee, context).
  struct Slot {
    EntityId truster = 0;
    DirectTrustRecord record;
  };

  RecommenderIndex(std::size_t entities, std::size_t contexts)
      : contexts_(contexts), lists_(entities * contexts) {}

  /// Records held.
  std::size_t size() const { return size_; }

  /// Every record about (trustee, context), ascending truster.
  const std::vector<Slot>& recommenders(EntityId trustee,
                                        ContextId context) const {
    return lists_[trustee * contexts_ + context];
  }

  /// The record for the triple, or nullptr.
  const DirectTrustRecord* find(EntityId truster, EntityId trustee,
                                ContextId context) const {
    const std::vector<Slot>& list = recommenders(trustee, context);
    const auto it = lower(list, truster);
    return it != list.end() && it->truster == truster ? &it->record : nullptr;
  }

  /// The record for the triple, inserting a zero record (count 0) when the
  /// triple holds none.
  DirectTrustRecord& find_or_insert(EntityId truster, EntityId trustee,
                                    ContextId context) {
    std::vector<Slot>& list = lists_[trustee * contexts_ + context];
    auto it = lower(list, truster);
    if (it == list.end() || it->truster != truster) {
      it = list.insert(it, Slot{truster, {}});
      ++size_;
    }
    return it->record;
  }

  /// Drops every record whose truster or trustee is `entity`; returns the
  /// number removed.
  std::size_t erase_entity(EntityId entity);

  /// Drops every record for which `pred(record)` holds; returns the number
  /// removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t removed = 0;
    for (std::vector<Slot>& list : lists_) {
      removed += std::erase_if(
          list, [&](const Slot& slot) { return pred(slot.record); });
    }
    size_ -= removed;
    return removed;
  }

  /// All records in (truster, trustee, context) key order.
  std::vector<DirectTrustEntry> entries() const;

 private:
  /// First slot of `list` whose truster is not below `truster`.
  template <typename List>
  static decltype(std::declval<List&>().begin()) lower(List& list,
                                                       EntityId truster) {
    return std::lower_bound(
        list.begin(), list.end(), truster,
        [](const Slot& slot, EntityId id) { return slot.truster < id; });
  }

  std::size_t contexts_;
  std::vector<std::vector<Slot>> lists_;
  std::size_t size_ = 0;
};

}  // namespace gridtrust::trust
