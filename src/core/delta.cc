#include "core/delta.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "relational/csv.h"
#include "relational/schema_graph.h"

namespace distinct {

void DatabaseDelta::Add(const std::string& table, std::vector<Value> row) {
  auto [it, inserted] = index_.emplace(table, tables_.size());
  if (inserted) {
    tables_.push_back(TableRows{table, {}});
  }
  tables_[it->second].rows.push_back(std::move(row));
}

int64_t DatabaseDelta::num_rows() const {
  int64_t total = 0;
  for (const TableRows& batch : tables_) {
    total += static_cast<int64_t>(batch.rows.size());
  }
  return total;
}

namespace {

/// Full dry run of `delta` against `db`: schema arity/types, primary-key
/// uniqueness (against existing rows and within the delta), and
/// foreign-key resolvability (against existing rows and keys the delta
/// itself appends). Nothing is mutated, so a rejected delta leaves the
/// database and every structure derived from it untouched.
Status ValidateDelta(const Database& db, const DatabaseDelta& delta) {
  std::unordered_map<std::string, std::unordered_set<int64_t>> pending_pks;
  for (const DatabaseDelta::TableRows& batch : delta.tables()) {
    auto table = db.FindTable(batch.table);
    DISTINCT_RETURN_IF_ERROR(table.status());
    const Table& t = **table;
    auto& pending = pending_pks[batch.table];
    for (size_t r = 0; r < batch.rows.size(); ++r) {
      const std::vector<Value>& row = batch.rows[r];
      if (static_cast<int>(row.size()) != t.num_columns()) {
        return InvalidArgumentError(StrFormat(
            "delta row %zu of %s has %zu cells; table has %d columns", r,
            batch.table.c_str(), row.size(), t.num_columns()));
      }
      for (int c = 0; c < t.num_columns(); ++c) {
        const ColumnSpec& spec = t.column(c);
        const Value& cell = row[c];
        if (cell.is_null()) {
          if (spec.is_primary_key) {
            return InvalidArgumentError(
                StrFormat("delta row %zu of %s: NULL primary key", r,
                          batch.table.c_str()));
          }
          continue;
        }
        if (cell.type() != spec.type) {
          return InvalidArgumentError(StrFormat(
              "delta row %zu of %s: column %s expects %s", r,
              batch.table.c_str(), spec.name.c_str(),
              ColumnTypeToString(spec.type)));
        }
        if (spec.is_primary_key) {
          const int64_t pk = cell.AsInt();
          if (t.RowForPrimaryKey(pk).ok() || !pending.insert(pk).second) {
            return InvalidArgumentError(StrFormat(
                "delta row %zu of %s: duplicate primary key %lld", r,
                batch.table.c_str(), static_cast<long long>(pk)));
          }
        }
      }
    }
  }
  // Second pass, once every pending primary key is known: foreign keys may
  // point at rows the delta itself appends.
  for (const DatabaseDelta::TableRows& batch : delta.tables()) {
    const Table& t = **db.FindTable(batch.table);
    for (size_t r = 0; r < batch.rows.size(); ++r) {
      const std::vector<Value>& row = batch.rows[r];
      for (int c = 0; c < t.num_columns(); ++c) {
        const ColumnSpec& spec = t.column(c);
        if (spec.fk_table.empty() || row[c].is_null()) {
          continue;
        }
        auto target = db.FindTable(spec.fk_table);
        DISTINCT_RETURN_IF_ERROR(target.status());
        const int64_t fk = row[c].AsInt();
        if ((*target)->RowForPrimaryKey(fk).ok()) {
          continue;
        }
        auto p = pending_pks.find(spec.fk_table);
        if (p != pending_pks.end() && p->second.count(fk) > 0) {
          continue;
        }
        return FailedPreconditionError(StrFormat(
            "delta row %zu of %s: dangling FK %s -> %lld (%s)", r,
            batch.table.c_str(), spec.name.c_str(),
            static_cast<long long>(fk), spec.fk_table.c_str()));
      }
    }
  }
  return Status::Ok();
}

/// Schema node of every level of `path` (size steps + 1).
std::vector<int> NodeAtLevels(const SchemaGraph& schema,
                              const JoinPath& path) {
  std::vector<int> node_at(path.steps.size() + 1);
  node_at[0] = path.start_node;
  for (size_t i = 0; i < path.steps.size(); ++i) {
    node_at[i + 1] = schema.Traverse(
        node_at[i], IncidentEdge{path.steps[i].edge_id, path.steps[i].forward});
  }
  return node_at;
}

}  // namespace

StatusOr<DeltaReport> Distinct::ApplyDelta(Database& db,
                                           const DatabaseDelta& delta) {
  if (&db != db_) {
    return InvalidArgumentError(
        "ApplyDelta must be given the database the engine was created over");
  }
  DISTINCT_TRACE_SPAN("apply_delta");
  DISTINCT_RETURN_IF_ERROR(ValidateDelta(db, delta));

  const SchemaGraph& schema = *schema_graph_;
  const int num_nodes = schema.num_nodes();
  std::vector<int64_t> old_tuples(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    old_tuples[static_cast<size_t>(n)] = link_graph_->NumTuples(n);
  }
  std::vector<int64_t> old_rows(static_cast<size_t>(db.num_tables()));
  for (int i = 0; i < db.num_tables(); ++i) {
    old_rows[static_cast<size_t>(i)] = db.table(i).num_rows();
  }

  DeltaReport report;
  for (const DatabaseDelta::TableRows& batch : delta.tables()) {
    auto table = db.FindMutableTable(batch.table);
    DISTINCT_RETURN_IF_ERROR(table.status());
    for (const std::vector<Value>& row : batch.rows) {
      // Validated above; a failure here would mean the table mutated
      // between validation and append.
      DISTINCT_RETURN_IF_ERROR((*table)->AppendRow(row).status());
      ++report.rows_appended;
    }
  }

  // Appended rows can only introduce dangling FKs already rejected by the
  // dry run, so the in-place extension cannot hit its error path here.
  DISTINCT_RETURN_IF_ERROR(link_graph_->ApplyAppend());

  // Absorb new name/reference rows into the name index with the same
  // first-seen-order loops as Create(); the grown index is bit-identical
  // to the one a fresh Create() over the appended database would build.
  const Table& name_table = db.table(resolved_.name_table_id);
  const Table& ref_table = db.table(resolved_.reference_table_id);
  const int pk_col = name_table.primary_key_column();
  for (int64_t row = old_rows[static_cast<size_t>(resolved_.name_table_id)];
       row < name_table.num_rows(); ++row) {
    const std::string& name = name_table.GetString(row, resolved_.name_column);
    auto [it, inserted] = name_index_.emplace(name, name_groups_.size());
    if (inserted) {
      name_groups_.emplace_back(name, std::vector<int32_t>{});
    }
    name_group_of_pk_[name_table.GetInt(row, pk_col)] = it->second;
  }
  const int64_t old_ref_rows =
      old_rows[static_cast<size_t>(resolved_.reference_table_id)];
  for (int64_t row = old_ref_rows; row < ref_table.num_rows(); ++row) {
    if (ref_table.IsNull(row, resolved_.identity_column)) {
      continue;
    }
    auto it = name_group_of_pk_.find(
        ref_table.GetInt(row, resolved_.identity_column));
    if (it != name_group_of_pk_.end()) {
      name_groups_[it->second].second.push_back(static_cast<int32_t>(row));
    }
  }
  report.new_refs = ref_table.num_rows() - old_ref_rows;

  // Changed tuples per node: tuples the delta appended, plus forward
  // targets of appended rows (their reverse lists and fanouts grew —
  // forward lists of old rows never change under append).
  std::vector<std::vector<int32_t>> changed(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    for (int64_t t = old_tuples[static_cast<size_t>(n)];
         t < link_graph_->NumTuples(n); ++t) {
      changed[static_cast<size_t>(n)].push_back(static_cast<int32_t>(t));
    }
  }
  for (int e = 0; e < schema.num_edges(); ++e) {
    const SchemaEdge& edge = schema.edge(e);
    const int64_t rows = db.table(edge.table_id).num_rows();
    for (int64_t row = old_rows[static_cast<size_t>(edge.table_id)];
         row < rows; ++row) {
      const auto target = link_graph_->Forward(e, static_cast<int32_t>(row));
      if (!target.empty() &&
          target[0] < old_tuples[static_cast<size_t>(edge.to_node)]) {
        changed[static_cast<size_t>(edge.to_node)].push_back(target[0]);
      }
    }
  }
  for (auto& tuples : changed) {
    std::sort(tuples.begin(), tuples.end());
    tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  }

  // Per-path backward sweep: the frontier at level 0 is the references
  // whose profile along the path may have changed.
  const std::vector<JoinPath>& paths = extractor_->paths();
  const int start_node = paths.empty() ? 0 : paths.front().start_node;
  // Per-reference bitmask of the paths whose profile the delta may have
  // changed (paths past bit 63 conservatively dirty every bit). A nonzero
  // mask is what makes a reference — and its name — dirty; the mask itself
  // lets the splice update recompute only the dirtied paths.
  std::vector<uint64_t> dirty_ref(
      static_cast<size_t>(link_graph_->NumTuples(start_node)), 0);
  for (size_t p = 0; p < paths.size(); ++p) {
    const JoinPath& path = paths[p];
    const std::vector<int> node_at = NodeAtLevels(schema, path);
    const size_t k = path.steps.size();
    std::vector<int32_t> frontier =
        changed[static_cast<size_t>(node_at[k])];
    for (size_t level = k; level >= 1; --level) {
      const JoinStep& step = path.steps[level - 1];
      const int prev_node = node_at[level - 1];
      std::vector<char> mark(
          static_cast<size_t>(link_graph_->NumTuples(prev_node)), 0);
      std::vector<int32_t> prev;
      for (const int32_t t : frontier) {
        const auto preimage = step.forward
                                  ? link_graph_->Reverse(step.edge_id, t)
                                  : link_graph_->Forward(step.edge_id, t);
        for (const int32_t u : preimage) {
          if (!mark[static_cast<size_t>(u)]) {
            mark[static_cast<size_t>(u)] = 1;
            prev.push_back(u);
          }
        }
      }
      for (const int32_t u : changed[static_cast<size_t>(prev_node)]) {
        if (!mark[static_cast<size_t>(u)]) {
          mark[static_cast<size_t>(u)] = 1;
          prev.push_back(u);
        }
      }
      std::sort(prev.begin(), prev.end());
      frontier = std::move(prev);
    }
    const uint64_t path_bit = p < 64 ? uint64_t{1} << p : ~uint64_t{0};
    for (const int32_t r : frontier) {
      dirty_ref[static_cast<size_t>(r)] |= path_bit;
    }
  }

  // Dirty names: groups owning a dirty reference. New references are new
  // tuples of the start node, so brand-new names are dirty by definition.
  std::vector<char> group_dirty(name_groups_.size(), 0);
  for (size_t r = 0; r < dirty_ref.size(); ++r) {
    if (dirty_ref[r] == 0 ||
        ref_table.IsNull(static_cast<int64_t>(r), resolved_.identity_column)) {
      continue;
    }
    auto it = name_group_of_pk_.find(ref_table.GetInt(
        static_cast<int64_t>(r), resolved_.identity_column));
    if (it != name_group_of_pk_.end()) {
      group_dirty[it->second] = 1;
    }
  }
  for (size_t g = 0; g < group_dirty.size(); ++g) {
    if (group_dirty[g]) {
      report.dirty_names.push_back(name_groups_[g].first);
    }
  }
  for (size_t r = 0; r < dirty_ref.size(); ++r) {
    if (dirty_ref[r] != 0) {
      report.dirty_refs.push_back(static_cast<int32_t>(r));
      report.dirty_ref_path_masks.push_back(dirty_ref[r]);
    }
  }

  // Pooled workspaces size their dense slabs at first acquire and never
  // grow them; after the universes grew they would index out of bounds, so
  // the pool is recreated.
  caches_.RenewWorkspaces();

  ++catalog_version_;
  tuple_watermark_ = db.TotalRows();
  report.catalog_version = catalog_version_;
  report.tuple_watermark = tuple_watermark_;
  return report;
}

StatusOr<std::pair<Database, DatabaseDelta>> MakeTailDelta(
    const Database& db, const std::string& table, int64_t tail_rows) {
  auto target_id = db.TableId(table);
  DISTINCT_RETURN_IF_ERROR(target_id.status());
  const Table& target = db.table(*target_id);
  if (tail_rows < 0 || tail_rows > target.num_rows()) {
    return InvalidArgumentError(StrFormat(
        "tail_rows %lld out of range for %s (%lld rows)",
        static_cast<long long>(tail_rows), table.c_str(),
        static_cast<long long>(target.num_rows())));
  }

  Database base;
  for (int i = 0; i < db.num_tables(); ++i) {
    const Table& src = db.table(i);
    std::vector<ColumnSpec> columns;
    columns.reserve(static_cast<size_t>(src.num_columns()));
    for (int c = 0; c < src.num_columns(); ++c) {
      columns.push_back(src.column(c));
    }
    auto copy = Table::Create(src.name(), std::move(columns));
    DISTINCT_RETURN_IF_ERROR(copy.status());
    const int64_t keep =
        i == *target_id ? src.num_rows() - tail_rows : src.num_rows();
    for (int64_t row = 0; row < keep; ++row) {
      std::vector<Value> values;
      values.reserve(static_cast<size_t>(src.num_columns()));
      for (int c = 0; c < src.num_columns(); ++c) {
        values.push_back(src.GetValue(row, c));
      }
      DISTINCT_RETURN_IF_ERROR(copy->AppendRow(values).status());
    }
    DISTINCT_RETURN_IF_ERROR(base.AddTable(*std::move(copy)).status());
  }

  DatabaseDelta delta;
  for (int64_t row = target.num_rows() - tail_rows; row < target.num_rows();
       ++row) {
    std::vector<Value> values;
    values.reserve(static_cast<size_t>(target.num_columns()));
    for (int c = 0; c < target.num_columns(); ++c) {
      values.push_back(target.GetValue(row, c));
    }
    delta.Add(table, std::move(values));
  }
  return std::make_pair(std::move(base), std::move(delta));
}

StatusOr<DatabaseDelta> LoadDatabaseDeltaCsv(const Database& db,
                                             const std::string& directory) {
  DatabaseDelta delta;
  for (int i = 0; i < db.num_tables(); ++i) {
    const Table& src = db.table(i);
    std::vector<ColumnSpec> columns;
    columns.reserve(static_cast<size_t>(src.num_columns()));
    for (int c = 0; c < src.num_columns(); ++c) {
      columns.push_back(src.column(c));
    }
    // Stage through an empty table with the same schema: the CSV header,
    // cell types, and within-file primary-key uniqueness are validated
    // exactly like a full LoadDatabaseCsv (uniqueness against the live
    // database is ApplyDelta's dry run).
    auto staging = Table::Create(src.name(), std::move(columns));
    DISTINCT_RETURN_IF_ERROR(staging.status());
    auto loaded =
        LoadTableCsv(directory + "/" + src.name() + ".csv", *staging);
    if (!loaded.ok()) {
      if (loaded.status().code() == StatusCode::kNotFound) {
        continue;  // a delta need not touch every table
      }
      return loaded.status();
    }
    for (int64_t row = 0; row < staging->num_rows(); ++row) {
      std::vector<Value> values;
      values.reserve(static_cast<size_t>(staging->num_columns()));
      for (int c = 0; c < staging->num_columns(); ++c) {
        values.push_back(staging->GetValue(row, c));
      }
      delta.Add(src.name(), std::move(values));
    }
  }
  return delta;
}

Status IncrementalCatalog::Build() {
  auto groups = ScanNameGroups(*engine_, options_);
  DISTINCT_RETURN_IF_ERROR(groups.status());
  resolutions_.clear();
  artifacts_.clear();
  index_.clear();
  resolutions_.reserve(groups->size());
  artifacts_.reserve(groups->size());
  for (const NameGroup& group : *groups) {
    auto resolved = engine_->ResolveRefsArtifacts(group.refs);
    DISTINCT_RETURN_IF_ERROR(resolved.status());
    index_.emplace(group.name, resolutions_.size());
    resolutions_.push_back(
        BulkResolution{group.name, group.refs.size(), resolved->clustering});
    artifacts_.push_back(*std::move(resolved));
  }
  return Status::Ok();
}

StatusOr<DeltaReport> IncrementalCatalog::Apply(Database& db,
                                                const DatabaseDelta& delta) {
  auto report = engine_->ApplyDelta(db, delta);
  DISTINCT_RETURN_IF_ERROR(report.status());
  std::unordered_set<std::string> dirty(report->dirty_names.begin(),
                                        report->dirty_names.end());

  // A clean name has the same references and the same profiles as before,
  // so its cached clustering is exactly what re-resolving would produce.
  // Dirty names get no merge-replay shortcut: replaying merges is unsound
  // when new evidence lowers a pairwise sum (a past merge may no longer
  // clear the floor), so they are re-seeded from full matrices by the
  // exact clusterer — that is the un-merge/re-seed rule. Those matrices
  // are spliced — only cells with an endpoint in the delta's dirty
  // references are recomputed — which is bit-identical to refilling them
  // (every cell is a pure function of its two profiles).
  auto groups = ScanNameGroups(*engine_, options_);
  DISTINCT_RETURN_IF_ERROR(groups.status());
  std::vector<BulkResolution> next;
  std::vector<Distinct::ResolveArtifacts> next_artifacts;
  std::unordered_map<std::string, size_t> next_index;
  next.reserve(groups->size());
  next_artifacts.reserve(groups->size());
  for (const NameGroup& group : *groups) {
    auto cached = index_.find(group.name);
    next_index.emplace(group.name, next.size());
    if (cached != index_.end() && dirty.count(group.name) == 0) {
      next.push_back(std::move(resolutions_[cached->second]));
      next_artifacts.push_back(std::move(artifacts_[cached->second]));
      ++report->names_reused;
      continue;
    }
    auto resolved =
        cached != index_.end()
            ? engine_->PatchResolveArtifacts(
                  std::move(artifacts_[cached->second]), group.refs,
                  report->dirty_refs, report->dirty_ref_path_masks)
            : engine_->ResolveRefsArtifacts(group.refs);
    DISTINCT_RETURN_IF_ERROR(resolved.status());
    next.push_back(
        BulkResolution{group.name, group.refs.size(), resolved->clustering});
    next_artifacts.push_back(*std::move(resolved));
    ++report->names_reresolved;
  }
  resolutions_ = std::move(next);
  artifacts_ = std::move(next_artifacts);
  index_ = std::move(next_index);
  return report;
}

}  // namespace distinct
