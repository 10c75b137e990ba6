#include "core/scan.h"

#include <algorithm>
#include <unordered_map>

namespace distinct {

namespace {

/// Applies the min/max-refs filters and the descending-size order shared by
/// both ScanNameGroups overloads.
std::vector<NameGroup> FilterAndSortGroups(std::vector<NameGroup> groups,
                                           const ScanOptions& options) {
  std::vector<NameGroup> filtered;
  for (NameGroup& group : groups) {
    const int64_t refs = static_cast<int64_t>(group.refs.size());
    if (refs < options.min_refs) {
      continue;
    }
    if (options.max_refs > 0 && refs > options.max_refs) {
      continue;
    }
    filtered.push_back(std::move(group));
  }
  std::stable_sort(filtered.begin(), filtered.end(),
                   [](const NameGroup& a, const NameGroup& b) {
                     return a.refs.size() > b.refs.size();
                   });
  return filtered;
}

}  // namespace

StatusOr<std::vector<NameGroup>> ScanNameGroups(const Database& db,
                                                const ReferenceSpec& spec,
                                                const ScanOptions& options) {
  auto resolved = ResolveReferenceSpec(db, spec);
  DISTINCT_RETURN_IF_ERROR(resolved.status());
  const Table& name_table = db.table(resolved->name_table_id);
  const Table& ref_table = db.table(resolved->reference_table_id);

  // Primary key -> name-group index (groups keyed by name string so that
  // several same-named rows collapse into one group).
  std::unordered_map<std::string, size_t> group_of_name;
  std::unordered_map<int64_t, size_t> group_of_pk;
  std::vector<NameGroup> groups;
  const int pk_col = name_table.primary_key_column();
  for (int64_t row = 0; row < name_table.num_rows(); ++row) {
    const std::string& name =
        name_table.GetString(row, resolved->name_column);
    auto [it, inserted] = group_of_name.emplace(name, groups.size());
    if (inserted) {
      NameGroup group;
      group.name = name;
      groups.push_back(std::move(group));
    }
    group_of_pk[name_table.GetInt(row, pk_col)] = it->second;
  }

  for (int64_t row = 0; row < ref_table.num_rows(); ++row) {
    if (ref_table.IsNull(row, resolved->identity_column)) {
      continue;
    }
    auto it =
        group_of_pk.find(ref_table.GetInt(row, resolved->identity_column));
    if (it != group_of_pk.end()) {
      groups[it->second].refs.push_back(static_cast<int32_t>(row));
    }
  }

  return FilterAndSortGroups(std::move(groups), options);
}

StatusOr<std::vector<NameGroup>> ScanNameGroups(const Distinct& engine,
                                                const ScanOptions& options) {
  std::vector<NameGroup> groups;
  groups.reserve(engine.name_groups().size());
  for (const auto& [name, refs] : engine.name_groups()) {
    NameGroup group;
    group.name = name;
    group.refs = refs;
    groups.push_back(std::move(group));
  }
  return FilterAndSortGroups(std::move(groups), options);
}

}  // namespace distinct
