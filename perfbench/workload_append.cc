// append: the write path. The Table-1 world minus a Publish tail
// (MakeTailDelta) is the base; Distinct::Create + IncrementalCatalog::Build
// are the set-up; the tail then arrives as kDeltas consecutive small
// deltas through IncrementalCatalog::Apply, each timed.

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common.h"
#include "core/delta.h"
#include "dblp/schema.h"

namespace perfbench {

using namespace distinct;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kSetups = 3;
/// Enough deltas that p90 has ten beyond it.
constexpr int kDeltas = 100;
constexpr int kRowsPerDelta = 10;

/// The base database and the tail cut into consecutive deltas.
struct Split {
  std::unique_ptr<Database> db;  // stable address: the engine points at it
  std::vector<DatabaseDelta> deltas;
};

StatusOr<Split> MakeSplit(const Database& full) {
  auto cut = MakeTailDelta(full, kPublishTable,
                           static_cast<int64_t>(kDeltas) * kRowsPerDelta);
  if (!cut.ok()) return cut.status();
  Split split;
  split.db = std::make_unique<Database>(std::move(cut->first));
  for (const DatabaseDelta::TableRows& table : cut->second.tables()) {
    for (size_t r = 0; r < table.rows.size(); ++r) {
      const size_t d = r / kRowsPerDelta;
      if (split.deltas.size() <= d) split.deltas.resize(d + 1);
      split.deltas[d].Add(table.table, table.rows[r]);
    }
  }
  return split;
}

/// IncrementalCatalog::Apply as the traced run composes it from public
/// steps (Distinct::ApplyDelta, then PatchResolveArtifacts for the dirty
/// names), keeping the same per-name artifacts resident.
class TracedCatalog {
 public:
  TracedCatalog(Distinct& engine, SpanRecorder* spans)
      : engine_(&engine), spans_(spans) {}

  Status Build() {
    auto groups = ScanNameGroups(*engine_, ScanOptions{});
    if (!groups.ok()) return groups.status();
    for (const NameGroup& group : *groups) {
      auto artifacts = engine_->ResolveRefsArtifacts(group.refs);
      if (!artifacts.ok()) return artifacts.status();
      index_.emplace(group.name, names_.size());
      names_.push_back(group);
      artifacts_.push_back(*std::move(artifacts));
    }
    return Status::Ok();
  }

  Status Apply(Database& db, const DatabaseDelta& delta) {
    const auto engine_start = Clock::now();
    auto report = [&] {
      ScopedSpan span(spans_, "core.apply_delta");
      return engine_->ApplyDelta(db, delta);
    }();
    apply_engine_s_ += SecondsSince(engine_start);
    if (!report.ok()) return report.status();
    const std::unordered_set<std::string> dirty(report->dirty_names.begin(),
                                                report->dirty_names.end());
    auto groups = ScanNameGroups(*engine_, ScanOptions{});
    if (!groups.ok()) return groups.status();
    std::vector<NameGroup> next_names;
    std::vector<Distinct::ResolveArtifacts> next_artifacts;
    std::unordered_map<std::string, size_t> next_index;
    for (const NameGroup& group : *groups) {
      next_index.emplace(group.name, next_names.size());
      next_names.push_back(group);
      const auto cached = index_.find(group.name);
      if (cached != index_.end() && dirty.count(group.name) == 0) {
        next_artifacts.push_back(std::move(artifacts_[cached->second]));
        ++names_reused_;
        continue;
      }
      const auto patch_start = Clock::now();
      auto resolved = [&]() -> StatusOr<Distinct::ResolveArtifacts> {
        ScopedSpan span(spans_, "core.patch_artifacts");
        if (cached == index_.end()) {
          return engine_->ResolveRefsArtifacts(group.refs);
        }
        return engine_->PatchResolveArtifacts(
            std::move(artifacts_[cached->second]), group.refs,
            report->dirty_refs, report->dirty_ref_path_masks);
      }();
      patch_s_ += SecondsSince(patch_start);
      if (!resolved.ok()) return resolved.status();
      next_artifacts.push_back(*std::move(resolved));
    }
    names_seen_ += static_cast<int64_t>(groups->size());
    dirty_names_ += static_cast<int64_t>(report->dirty_names.size());
    dirty_refs_ += static_cast<int64_t>(report->dirty_refs.size());
    memo_erased_ += report->cache_entries_erased;
    ++batches_;
    names_ = std::move(next_names);
    artifacts_ = std::move(next_artifacts);
    index_ = std::move(next_index);
    return Status::Ok();
  }

  std::vector<BulkResolution> resolutions() const {
    std::vector<BulkResolution> out;
    for (size_t i = 0; i < names_.size(); ++i) {
      out.push_back(BulkResolution{names_[i].name, names_[i].refs.size(),
                                   artifacts_[i].clustering});
    }
    return out;
  }

  void Report(Result* result) const {
    const double batches = std::max<double>(1.0, static_cast<double>(batches_));
    result->Metric("delta.apply_engine_s", apply_engine_s_, "s");
    result->Metric("delta.patch_s", patch_s_, "s");
    result->Metric("delta.dirty_names_per_batch", dirty_names_ / batches,
                   "count");
    result->Metric("delta.dirty_refs_per_batch", dirty_refs_ / batches,
                   "count");
    result->Metric("delta.names_reused_share",
                   names_seen_ > 0 ? static_cast<double>(names_reused_) /
                                         static_cast<double>(names_seen_)
                                   : 0.0,
                   "share");
    result->Metric("delta.memo_entries_erased",
                   static_cast<double>(memo_erased_), "count");
  }

 private:
  Distinct* engine_;
  SpanRecorder* spans_;
  std::vector<NameGroup> names_;
  std::vector<Distinct::ResolveArtifacts> artifacts_;
  std::unordered_map<std::string, size_t> index_;
  double apply_engine_s_ = 0.0;
  double patch_s_ = 0.0;
  int64_t names_seen_ = 0;
  int64_t names_reused_ = 0;
  int64_t dirty_names_ = 0;
  int64_t dirty_refs_ = 0;
  int64_t memo_erased_ = 0;
  int64_t batches_ = 0;
};

}  // namespace

void RunAppendWorkload(const Args& args, Result* result) {
  auto world = GenerateDblpDataset(Table1World(args.seed));
  if (!world.ok()) {
    result->Fail("GenerateDblpDataset: " + world.status().ToString());
    return;
  }
  const DistinctConfig config = EngineConfig(/*supervised=*/true);

  // Set-up: Create + IncrementalCatalog::Build over a fresh base, several
  // times; the last one takes the deltas.
  std::vector<double> setup_cpu_s;
  Split split;
  std::unique_ptr<Distinct> engine;
  std::unique_ptr<IncrementalCatalog> catalog;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    catalog.reset();
    engine.reset();
    auto made = MakeSplit(world->db);
    if (!made.ok()) {
      result->Fail("MakeTailDelta: " + made.status().ToString());
      return;
    }
    split = *std::move(made);
    const double cpu_start = ProcessCpuSeconds();
    auto created = Distinct::Create(*split.db, DblpReferenceSpec(), config);
    if (!created.ok()) {
      result->Fail("Distinct::Create: " + created.status().ToString());
      return;
    }
    engine = std::make_unique<Distinct>(*std::move(created));
    catalog = std::make_unique<IncrementalCatalog>(*engine);
    if (Status s = catalog->Build(); !s.ok()) {
      result->Fail("IncrementalCatalog::Build: " + s.ToString());
      return;
    }
    setup_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
  }

  std::vector<double> apply_ms, apply_cpu_ms;
  int64_t rows = 0;
  for (const DatabaseDelta& delta : split.deltas) {
    const auto start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    auto report = catalog->Apply(*split.db, delta);
    apply_cpu_ms.push_back((ProcessCpuSeconds() - cpu_start) * 1e3);
    apply_ms.push_back(SecondsSince(start) * 1e3);
    result->account().Record(report.ok() ? Outcome::kOk : Outcome::kError);
    if (!report.ok()) {
      result->Fail("IncrementalCatalog::Apply: " + report.status().ToString());
      return;
    }
    rows += delta.num_rows();
  }
  const double peak_rss = PeakRssMb();
  const std::string digest = ResolutionDigest(catalog->resolutions());

  result->Info("refs", static_cast<int64_t>(
                           world->db.FindTable(kPublishTable).value()->num_rows()));
  result->Info("deltas", static_cast<int64_t>(split.deltas.size()));
  result->Info("rows_per_delta", static_cast<int64_t>(kRowsPerDelta));
  result->Info("names", static_cast<int64_t>(catalog->resolutions().size()));
  result->Info("output_digest", digest);
  result->Info("flush_policy",
               std::string("in memory: Apply writes no file and takes no "
                           "checkpoint"));

  double total_ms = 0.0, total_cpu_ms = 0.0;
  for (const double ms : apply_ms) total_ms += ms;
  for (const double ms : apply_cpu_ms) total_cpu_ms += ms;
  result->Info("apply_wall_p50_ms", Median(apply_ms));
  result->Info("rows_per_wall_s", rows / (total_ms / 1e3));

  if (!args.trace) {
    // Check, untimed: a fresh engine over the appended database with the
    // same model must land on exactly the same catalog.
    auto fresh = Distinct::CreateWithModel(*split.db, DblpReferenceSpec(),
                                           engine->config(), engine->model());
    bool same = false;
    if (fresh.ok()) {
      IncrementalCatalog rebuilt(*fresh);
      same = rebuilt.Build().ok() &&
             SameResolutions(catalog->resolutions(), rebuilt.resolutions());
    }
    result->account().Record(same ? Outcome::kOk : Outcome::kMismatch);
    if (!same) result->Fail("appended catalog differs from a CreateWithModel rebuild");

    result->Metric("setup_s", Median(setup_cpu_s), "s");
    result->Metric("peak_rss_mb", peak_rss, "MB");
    result->Metric("ok_share", 1.0 - result->account().fail_share(), "share");
    result->Metric("refs_per_cpu_s", rows / (total_cpu_ms / 1e3), "1/s");
    result->Metric("op_cpu_p50_ms", Median(apply_cpu_ms), "ms");
    result->Metric("op_cpu_tail_ms",
                   HighestTailPercentile(apply_cpu_ms, 90.0).value, "ms");
    return;
  }

  // Traced run: the same base and deltas through the composed catalog;
  // its resolutions must be bit-identical to IncrementalCatalog's.
  catalog.reset();
  engine.reset();
  SpanRecorder spans;
  auto made = MakeSplit(world->db);
  if (!made.ok()) {
    result->Fail("MakeTailDelta: " + made.status().ToString());
    return;
  }
  split = *std::move(made);
  MeasureOfflineLayers(*split.db, config, &spans, result);
  auto created = Distinct::Create(*split.db, DblpReferenceSpec(), config);
  if (!created.ok()) {
    result->Fail("Distinct::Create: " + created.status().ToString());
    return;
  }
  TracedCatalog traced(*created, &spans);
  if (Status s = traced.Build(); !s.ok()) {
    result->Fail("traced catalog build: " + s.ToString());
    return;
  }
  double traced_ms = 0.0;
  for (const DatabaseDelta& delta : split.deltas) {
    const auto start = Clock::now();
    Status s = [&] {
      ScopedSpan span(&spans, "core.append_batch");
      return traced.Apply(*split.db, delta);
    }();
    traced_ms += SecondsSince(start) * 1e3;
    if (!s.ok()) {
      result->Fail("traced delta: " + s.ToString());
      return;
    }
  }
  const bool same = ResolutionDigest(traced.resolutions()) == digest;
  result->account().Record(same ? Outcome::kOk : Outcome::kMismatch);
  if (!same) result->Fail("traced append output differs from IncrementalCatalog");
  traced.Report(result);
  result->Metric("obs.trace_overhead_share", (traced_ms - total_ms) / total_ms,
                 "share");
  WriteTrace(args, spans, *result);
}

}  // namespace perfbench
