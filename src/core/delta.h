// Incremental catalog maintenance: ingesting appended rows without
// rebuilding the engine.
//
// Everything else in core/ is batch — any appended Publish row used to
// invalidate the whole Distinct instance and force a full Create() +
// rescan. This module adds the delta path:
//
//   * DatabaseDelta batches rows to append, per table.
//   * Distinct::ApplyDelta() (declared in distinct.h, defined here)
//     validates the batch, appends it, extends the LinkGraph in place,
//     absorbs new names/references into the name index, renews the
//     workspace pool, and reports every name whose similarity evidence
//     changed.
//   * IncrementalCatalog keeps per-name resolutions resident and, after a
//     delta, re-resolves only the dirty names — reusing every clean
//     cached resolution. Because dirty detection is conservative and
//     per-name resolution is bit-identical regardless of cache state, the
//     catalog after Apply() equals a batch rebuild cluster-for-cluster
//     (the differential harness in tests/core/delta_test.cc and
//     bench_incremental enforce this).
//
// Dirty detection runs one backward sweep per join path. Let S be the set
// of changed tuples: tuples appended by the delta plus forward-targets of
// appended rows (their reverse adjacency lists and fanouts grew; forward
// lists of old rows never change under append). A reference's profile
// along a path changes only if the path's forward cone from that
// reference intersects S — so sweeping preimages of S∩level from the
// deepest level back to level 0 yields a superset of the affected
// references.

#ifndef DISTINCT_CORE_DELTA_H_
#define DISTINCT_CORE_DELTA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/distinct.h"
#include "core/scan.h"
#include "relational/database.h"
#include "relational/value.h"

namespace distinct {

/// Rows to append, batched per table. Order of Add() calls within one
/// table is the append order; foreign keys may point at rows of the same
/// delta (they are validated against existing and pending keys alike).
struct DatabaseDelta {
  struct TableRows {
    std::string table;
    std::vector<std::vector<Value>> rows;
  };

  /// Queues `row` for appending to `table`.
  void Add(const std::string& table, std::vector<Value> row);

  int64_t num_rows() const;
  bool empty() const { return num_rows() == 0; }
  const std::vector<TableRows>& tables() const { return tables_; }

 private:
  std::vector<TableRows> tables_;
  std::unordered_map<std::string, size_t> index_;  // table -> tables_ pos
};

/// What one ApplyDelta() did. `names_reused`/`names_reresolved` are zero
/// until IncrementalCatalog::Apply() fills them.
struct DeltaReport {
  int64_t rows_appended = 0;
  /// Appended rows of the reference table.
  int64_t new_refs = 0;
  /// Names whose similarity evidence changed (including brand-new names),
  /// in name-index order. Only these need re-resolving.
  std::vector<std::string> dirty_names;
  /// Reference rows whose profile along at least one path may have
  /// changed — existing rows reached by the dirty sweep plus every
  /// appended row. Ascending, duplicate-free. Within a dirty name, cells
  /// and profiles of references NOT listed here are provably unchanged;
  /// Distinct::PatchResolveArtifacts recomputes only these.
  std::vector<int32_t> dirty_refs;
  /// Aligned with dirty_refs: bit p set means path p's profile of that
  /// reference may have changed (bits past path 63 are folded into a
  /// conservative all-ones mask). The splice update recomputes only the
  /// flagged paths.
  std::vector<uint64_t> dirty_ref_path_masks;
  /// Always 0: propagation keeps no subtree memo, so a delta has no memo
  /// entries to invalidate. Kept for callers that still report it.
  int64_t cache_entries_erased = 0;
  int64_t names_reused = 0;
  int64_t names_reresolved = 0;
  /// Engine state after the delta (checkpoints embed these; --resume
  /// rejects checkpoints written before an append).
  int64_t catalog_version = 0;
  int64_t tuple_watermark = 0;
};

/// Splits `db` into (base, delta): the base holds every table whole except
/// `table`, whose last `tail_rows` rows become the delta. The caller must
/// pick a table nothing references by foreign key (DBLP's Publish rows
/// qualify) — the base is otherwise left with dangling FKs. Built for the
/// differential tests and bench_incremental: generate once, replay the
/// tail as a delta.
StatusOr<std::pair<Database, DatabaseDelta>> MakeTailDelta(
    const Database& db, const std::string& table, int64_t tail_rows);

/// Reads `<directory>/<Table>.csv` for every table of `db` into a delta
/// (header line required, schema validated like AppendCsvToTable). Tables
/// without a file are simply absent from the delta.
StatusOr<DatabaseDelta> LoadDatabaseDeltaCsv(const Database& db,
                                             const std::string& directory);

/// A resident catalog of per-name resolutions over one engine, maintained
/// incrementally. Build() resolves every candidate name; Apply() ingests
/// a delta and re-resolves only the names the delta dirtied, reusing the
/// cached resolution of every clean name. The result is bit-identical to
/// rebuilding the engine and resolving every name from scratch (with the
/// same model).
///
/// The catalog keeps each name's profile store and pair matrices resident;
/// a dirty name is brought up to date by splicing — recomputing only the
/// profiles and matrix cells of the delta's dirty references — instead of
/// from scratch, making Apply() cost proportional to the delta's blast
/// radius rather than the dirty names' full size. Resident cost is roughly
/// the corpus' profile volume (~24 bytes per profile entry).
class IncrementalCatalog {
 public:
  /// `engine` must outlive the catalog.
  explicit IncrementalCatalog(Distinct& engine, ScanOptions options = {})
      : engine_(&engine), options_(options) {}

  /// Resolves every name group passing the scan filters.
  Status Build();

  /// Applies `delta` to the engine (see Distinct::ApplyDelta), then brings
  /// the catalog up to date: clean names keep their cached resolution, and
  /// dirty or new names are re-resolved against the updated evidence. The
  /// returned report additionally carries names_reused/names_reresolved.
  StatusOr<DeltaReport> Apply(Database& db, const DatabaseDelta& delta);

  /// Current resolutions, ordered like ScanNameGroups (descending
  /// reference count, stable).
  const std::vector<BulkResolution>& resolutions() const {
    return resolutions_;
  }

 private:
  Distinct* engine_;
  ScanOptions options_;
  std::vector<BulkResolution> resolutions_;
  std::vector<Distinct::ResolveArtifacts> artifacts_;  // aligned with it
  std::unordered_map<std::string, size_t> index_;  // name -> resolutions_ pos
};

}  // namespace distinct

#endif  // DISTINCT_CORE_DELTA_H_
