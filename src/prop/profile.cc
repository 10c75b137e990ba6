#include "prop/profile.h"

#include <algorithm>

#include "common/logging.h"

namespace distinct {

NeighborProfile::NeighborProfile(std::vector<ProfileEntry> entries)
    : entries_(std::move(entries)) {
  const auto by_tuple = [](const ProfileEntry& a, const ProfileEntry& b) {
    return a.tuple < b.tuple;
  };
  // The workspace engine hands over entries already ascending; only the
  // map-based engines need the sort.
  if (!std::is_sorted(entries_.begin(), entries_.end(), by_tuple)) {
    std::sort(entries_.begin(), entries_.end(), by_tuple);
  }
  for (size_t i = 1; i < entries_.size(); ++i) {
    DISTINCT_DCHECK(entries_[i - 1].tuple != entries_[i].tuple);
  }
}

double NeighborProfile::ForwardSum() const {
  double sum = 0.0;
  for (const ProfileEntry& entry : entries_) {
    sum += entry.forward;
  }
  return sum;
}

double NeighborProfile::ForwardOf(int32_t tuple) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), tuple,
      [](const ProfileEntry& entry, int32_t t) { return entry.tuple < t; });
  if (it == entries_.end() || it->tuple != tuple) {
    return 0.0;
  }
  return it->forward;
}

}  // namespace distinct
