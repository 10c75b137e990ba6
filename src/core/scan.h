// Whole-database operation: find every name that could be ambiguous and
// resolve all of them.
//
// The paper resolves ten hand-picked names; a production deployment wants
// "split every name in the catalog". This module enumerates the candidate
// names (those with enough references to possibly be several people);
// RunShardedScan (core/scan_shard.h) resolves them.

#ifndef DISTINCT_CORE_SCAN_H_
#define DISTINCT_CORE_SCAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/distinct.h"

namespace distinct {

/// One candidate name and all its references.
struct NameGroup {
  std::string name;
  std::vector<int32_t> refs;  // rows of the reference table
};

struct ScanOptions {
  /// Only names with at least this many references are candidates (a name
  /// with one reference cannot be split). int64_t on purpose: group sizes
  /// are compared without narrowing, so a group larger than INT_MAX cannot
  /// wrap negative and slip past the filters.
  int64_t min_refs = 2;
  /// Skip names with more references than this (0 = no cap). Guards bulk
  /// runs against quadratic blowup on a handful of mega-names.
  int64_t max_refs = 0;
};

/// Groups every reference in the database by name string (names appearing
/// in several name-table rows are one group) and returns the groups
/// passing the filters, ordered by descending reference count.
StatusOr<std::vector<NameGroup>> ScanNameGroups(const Database& db,
                                                const ReferenceSpec& spec,
                                                const ScanOptions& options = {});

/// Same result, but served from the engine's name index (built once at
/// Create() time) instead of rescanning the name and reference tables.
StatusOr<std::vector<NameGroup>> ScanNameGroups(const Distinct& engine,
                                                const ScanOptions& options = {});

/// Result of resolving one name during a bulk run.
struct BulkResolution {
  std::string name;
  size_t num_refs = 0;
  ClusteringResult clustering;
};

/// Statistics of a bulk run.
struct BulkStats {
  int64_t names_resolved = 0;
  int64_t names_split = 0;       // resolved into more than one cluster
  int64_t total_refs = 0;
  int64_t total_clusters = 0;
  double seconds = 0.0;
};

}  // namespace distinct

#endif  // DISTINCT_CORE_SCAN_H_
