// distinct_cli — the library as a command-line tool.
//
//   distinct_cli generate --dir=DATA [--seed=42]        write a dataset
//   distinct_cli generate-xml --out=FILE --rows=100000  write a dblp.xml
//   distinct_cli ingest   --xml=FILE --catalog=DIR      stream to catalog
//   distinct_cli train    --dir=DATA --model=FILE       fit + save weights
//   distinct_cli resolve  --dir=DATA --name="Wei Wang" [--model=FILE]
//   distinct_cli scan     --dir=DATA [--min-refs=6] [--threads=2]
//   distinct_cli append   --dir=DATA --delta=DIR [--verify]
//   distinct_cli eval     --dir=DATA [--model=FILE]     score vs cases.csv
//   distinct_cli serve    --dir=DATA [--port=0] [--deadline-ms=N]
//
// DATA holds the five DBLP CSVs plus cases.csv (see dblp/dataset_io.h);
// `generate` creates it, or bring your own files in the same format.
// `append` ingests extra rows (per-table CSVs in --delta, same headers)
// without rebuilding: the catalog re-resolves only the names the delta
// dirtied and reuses every other cached resolution.
//
// `ingest` streams a dblp.xml-shaped file (real dump or `generate-xml`
// output) into an mmap-able columnar catalog directory without ever
// materialising the document; train/resolve/scan/append/serve then accept
// --catalog=DIR in place of --dir, loading the database from the catalog
// and stamping its generation into checkpoints so --resume refuses state
// taken against a different ingest.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/ingest.h"
#include "catalog/reader.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/text_table.h"
#include "core/delta.h"
#include "core/distinct.h"
#include "core/evaluation.h"
#include "core/scan.h"
#include "core/scan_shard.h"
#include "dblp/dataset_io.h"
#include "dblp/schema.h"
#include "dblp/stats.h"
#include "dblp/xml_corpus.h"
#include "dblp/xml_loader.h"
#include "obs/heartbeat.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/similarity_model_io.h"

namespace {

using namespace distinct;

int Fail(const Status& status) {
  DISTINCT_LOG(ERROR) << status.ToString();
  return 1;
}

/// Range-validated access to a numeric flag. FlagParser::Parse already
/// rejects malformed values with a clear error; this layer adds the range
/// checks the call sites used to skip — previously GetInt64 results were
/// narrowed with unchecked static_cast<int>, so --threads=5000000000
/// silently wrapped instead of failing.
StatusOr<int64_t> Int64FlagInRange(const FlagParser& flags, const char* name,
                                   int64_t min_value, int64_t max_value) {
  const int64_t value = flags.GetInt64(name);
  if (value < min_value || value > max_value) {
    return InvalidArgumentError(StrFormat(
        "--%s=%lld is out of range [%lld, %lld]", name,
        static_cast<long long>(value), static_cast<long long>(min_value),
        static_cast<long long>(max_value)));
  }
  return value;
}

/// Same, for flags consumed as int: bounds are checked before narrowing.
StatusOr<int> IntFlagInRange(const FlagParser& flags, const char* name,
                             int min_value, int max_value) {
  auto value = Int64FlagInRange(flags, name, min_value, max_value);
  if (!value.ok()) {
    return value.status();
  }
  return static_cast<int>(*value);
}

StatusOr<double> DoubleFlagInRange(const FlagParser& flags, const char* name,
                                   double min_value, double max_value) {
  const double value = flags.GetDouble(name);
  if (!(value >= min_value && value <= max_value)) {  // rejects NaN too
    return InvalidArgumentError(StrFormat(
        "--%s=%g is out of range [%g, %g]", name, value, min_value,
        max_value));
  }
  return value;
}

void Usage() {
  std::fprintf(stderr,
               "usage: distinct_cli "
               "<generate|generate-xml|ingest|train|resolve|scan|append|"
               "eval|serve> [flags]\n"
               "  common flags: --dir=DATA --model=FILE --min-sim=0.03\n"
               "                --catalog=DIR (load the database from an\n"
               "                 ingested columnar catalog instead of "
               "--dir)\n"
               "                --threads=N --stopping=fixed|largest-gap\n"
               "                --no-incremental\n"
               "                --kernel=fused|reference "
               "--kernel-pruning\n"
               "                --kernel-isa=auto|scalar|gallop|avx2\n"
               "                --verbosity=0|1|2\n"
               "                --report --metrics-json=FILE "
               "--trace-json=FILE\n"
               "  generate: --seed=N\n"
               "  generate-xml: --out=FILE --rows=N (target references) "
               "--seed=N\n"
               "  ingest:   --xml=FILE --catalog=DIR --segment-papers=N\n"
               "            --scan-memory-mb=N (working-set budget)\n"
               "  resolve:  --name=\"Wei Wang\"\n"
               "  scan:     --min-refs=N --threads=N --shards=N\n"
               "            --scan-memory-mb=N --checkpoint-dir=DIR "
               "--resume\n"
               "            --heartbeat=FILE --progress-interval=SECONDS\n"
               "  append:   --delta=DIR [--verify] [--min-refs=N]\n"
               "  serve:    --port=N --host=ADDR --max-inflight=N\n"
               "            --deadline-ms=N --result-cache=N\n"
               "            --scan-memory-mb=N (admission budget)\n");
}

/// Tables attached to the run report by subcommands (the scan's shard
/// table); collected by main() after the command finishes.
std::vector<obs::ReportTable> g_report_tables;

/// --trace-json was requested; subcommands that shard turn on per-shard
/// trace fragments when this is set.
bool g_want_trace = false;

/// Where the sharded scan wrote trace fragments (and for how many shards);
/// set by RunScan so main() can merge them into the exported trace.
std::string g_trace_fragment_dir;
int g_trace_fragment_shards = 0;

/// Progress counters the scan publishes for the heartbeat reporter.
obs::ProgressState g_progress;

/// The driver timeline for a fragment-merged trace: every recorded span
/// except strict descendants of "scan_shard" spans — those live in their
/// shard's fragment (pid shard+1). The scan_shard marker itself stays in
/// the driver row as the shard boundary.
std::vector<obs::SpanRecord> DriverSpans(
    const std::vector<obs::SpanRecord>& spans) {
  std::vector<int> remap(spans.size(), -1);
  std::vector<char> dropped(spans.size(), 0);
  std::vector<obs::SpanRecord> out;
  out.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& span = spans[i];
    if (span.parent >= 0) {
      const auto p = static_cast<size_t>(span.parent);
      if (dropped[p] != 0 || spans[p].name == "scan_shard") {
        dropped[i] = 1;
        continue;
      }
    }
    remap[i] = static_cast<int>(out.size());
    obs::SpanRecord copy = span;
    copy.parent = span.parent >= 0 ? remap[static_cast<size_t>(span.parent)]
                                   : -1;
    out.push_back(std::move(copy));
  }
  return out;
}

/// Exports the span tree as Chrome-trace JSON, merging per-shard fragments
/// when the scan wrote them.
Status ExportTrace(const std::string& path) {
  const std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  std::vector<obs::TraceProcess> processes;
  if (!g_trace_fragment_dir.empty()) {
    auto merged = obs::CollectShardedTrace(
        DriverSpans(spans), g_trace_fragment_dir, g_trace_fragment_shards);
    DISTINCT_RETURN_IF_ERROR(merged.status());
    processes = *std::move(merged);
  } else {
    obs::TraceProcess driver;
    driver.pid = 0;
    driver.name = "driver";
    driver.spans = spans;
    processes.push_back(std::move(driver));
  }
  return obs::WriteChromeTrace(path, processes);
}

/// Applies --kernel / --kernel-pruning (shared by every engine-building
/// command).
Status ApplyKernelFlags(const FlagParser& flags, DistinctConfig* config) {
  const std::string kernel = flags.GetString("kernel");
  if (kernel == "fused") {
    config->kernel = PairKernelType::kFused;
  } else if (kernel == "reference") {
    config->kernel = PairKernelType::kReference;
  } else {
    return InvalidArgumentError(
        "--kernel must be 'fused' or 'reference', got '" + kernel + "'");
  }
  config->kernel_pruning = flags.GetBool("kernel-pruning");
  const std::string isa = flags.GetString("kernel-isa");
  if (!ParseKernelIsa(isa, &config->kernel_isa)) {
    return InvalidArgumentError(
        "--kernel-isa must be 'auto', 'scalar', 'gallop' or 'avx2', got '" +
        isa + "'");
  }
  return Status::Ok();
}

/// The database a command runs over, plus where it came from. When
/// --catalog is set the database is materialised from the mmap'd columnar
/// catalog and `catalog_generation` carries the ingest generation to stamp
/// into the engine (checkpoint/resume compatibility); otherwise the CSVs
/// in --dir are loaded and the generation stays 0.
struct CliDatabase {
  Database db;
  int64_t catalog_generation = 0;
};

StatusOr<CliDatabase> LoadCliDatabase(const FlagParser& flags) {
  CliDatabase loaded;
  const std::string catalog_dir = flags.GetString("catalog");
  if (!catalog_dir.empty()) {
    auto reader = catalog::CatalogReader::Open(catalog_dir);
    DISTINCT_RETURN_IF_ERROR(reader.status());
    XmlLoadOptions options;
    auto min_refs = IntFlagInRange(flags, "min-refs-per-author", 0, 1 << 30);
    DISTINCT_RETURN_IF_ERROR(min_refs.status());
    options.min_refs_per_author = *min_refs;
    auto result = (*reader)->MaterializeDatabase(options);
    DISTINCT_RETURN_IF_ERROR(result.status());
    DISTINCT_LOG(INFO) << "catalog " << catalog_dir << ": generation "
                       << (*reader)->generation() << ", "
                       << result->records_loaded << " records, "
                       << ((*reader)->mapped_bytes() >> 20) << " MiB mapped";
    loaded.db = std::move(result->db);
    loaded.catalog_generation = (*reader)->generation();
    return loaded;
  }
  auto db = LoadDblpDatabaseCsv(flags.GetString("dir"));
  DISTINCT_RETURN_IF_ERROR(db.status());
  loaded.db = *std::move(db);
  return loaded;
}

StatusOr<Distinct> MakeEngine(const Database& db, const FlagParser& flags,
                              int64_t catalog_generation = 0) {
  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.base_catalog_version = catalog_generation;
  auto min_sim = DoubleFlagInRange(flags, "min-sim", 0.0, 1e9);
  if (!min_sim.ok()) return min_sim.status();
  config.min_sim = *min_sim;
  config.auto_min_sim = flags.GetBool("auto-min-sim");
  auto threads = IntFlagInRange(flags, "threads", 1, 4096);
  if (!threads.ok()) return threads.status();
  config.num_threads = *threads;
  // Cap keeps the budget in bytes (mb << 20) inside int64.
  auto scan_memory_mb = Int64FlagInRange(flags, "scan-memory-mb", 0,
                                         int64_t{1} << 40);
  if (!scan_memory_mb.ok()) return scan_memory_mb.status();
  config.scan_memory_mb = *scan_memory_mb;
  config.incremental = flags.GetBool("incremental");
  config.supervised = !flags.GetBool("unsupervised");
  if (Status s = ApplyKernelFlags(flags, &config); !s.ok()) return s;
  config.observability = obs::Enabled();
  const std::string stopping = flags.GetString("stopping");
  if (stopping == "largest-gap" || stopping == "gap") {
    config.stopping = StoppingRule::kLargestGap;
  } else if (stopping != "fixed") {
    return InvalidArgumentError(
        "--stopping must be 'fixed' or 'largest-gap', got '" + stopping +
        "'");
  }
  const std::string model_path = flags.GetString("model");
  if (!model_path.empty()) {
    auto model = LoadSimilarityModel(model_path);
    if (model.ok()) {
      DISTINCT_LOG(INFO) << "using model " << model_path;
      return Distinct::CreateWithModel(db, DblpReferenceSpec(), config,
                                       *std::move(model));
    }
    DISTINCT_LOG(WARN) << model.status().ToString()
                       << " — training instead";
  }
  return Distinct::Create(db, DblpReferenceSpec(), config);
}

int RunGenerate(const FlagParser& flags) {
  GeneratorConfig config;
  auto seed = Int64FlagInRange(flags, "seed", 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());
  config.seed = static_cast<uint64_t>(*seed);
  auto dataset = GenerateDblpDataset(config);
  if (!dataset.ok()) return Fail(dataset.status());
  const std::string dir = flags.GetString("dir");
  std::filesystem::create_directories(dir);
  if (Status s = SaveDataset(*dataset, dir); !s.ok()) return Fail(s);
  auto stats = ComputeDblpStats(dataset->db);
  std::printf("wrote %s: %s\n", dir.c_str(),
              stats.ok() ? stats->DebugString().c_str() : "");
  return 0;
}

int RunGenerateXml(const FlagParser& flags) {
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "error: generate-xml needs --out=FILE\n");
    return 1;
  }
  XmlCorpusConfig config;
  auto seed = Int64FlagInRange(flags, "seed", 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());
  config.seed = static_cast<uint64_t>(*seed);
  auto rows = Int64FlagInRange(flags, "rows", 1, INT64_MAX);
  if (!rows.ok()) return Fail(rows.status());
  config.target_refs = *rows;
  Stopwatch watch;
  auto stats = WriteSyntheticDblpXml(out, config);
  if (!stats.ok()) return Fail(stats.status());
  std::printf("wrote %s: %lld papers, %lld references, %.1f MiB in %.2fs\n",
              out.c_str(), static_cast<long long>(stats->papers),
              static_cast<long long>(stats->refs),
              static_cast<double>(stats->bytes) / (1 << 20), watch.Seconds());
  return 0;
}

int RunIngest(const FlagParser& flags) {
  const std::string xml = flags.GetString("xml");
  const std::string catalog_dir = flags.GetString("catalog");
  if (xml.empty() || catalog_dir.empty()) {
    std::fprintf(stderr, "error: ingest needs --xml=FILE and --catalog=DIR\n");
    return 1;
  }
  catalog::IngestOptions options;
  auto segment_papers =
      Int64FlagInRange(flags, "segment-papers", 1, int64_t{1} << 31);
  if (!segment_papers.ok()) return Fail(segment_papers.status());
  options.segment_papers = *segment_papers;
  auto budget = Int64FlagInRange(flags, "scan-memory-mb", 0,
                                 int64_t{1} << 40);
  if (!budget.ok()) return Fail(budget.status());
  options.memory_budget_mb = *budget;
  Stopwatch watch;
  auto stats = catalog::IngestDblpXml(xml, catalog_dir, options);
  if (!stats.ok()) return Fail(stats.status());
  const double seconds = watch.Seconds();
  const double mb = static_cast<double>(stats->bytes_read) / (1 << 20);
  std::printf(
      "ingested %s -> %s: %lld records (%lld skipped), %lld refs\n",
      xml.c_str(), catalog_dir.c_str(),
      static_cast<long long>(stats->records),
      static_cast<long long>(stats->skipped),
      static_cast<long long>(stats->summary.num_refs));
  std::printf(
      "  %.1f MiB in %.2fs (%.1f MiB/s); %lld segments, dicts "
      "%lld authors / %lld venues / %lld titles; generation %lld\n",
      mb, seconds, seconds > 0 ? mb / seconds : 0.0,
      static_cast<long long>(stats->summary.num_segments),
      static_cast<long long>(stats->summary.num_authors),
      static_cast<long long>(stats->summary.num_venues),
      static_cast<long long>(stats->summary.num_titles),
      static_cast<long long>(stats->summary.generation));
  return 0;
}

int RunTrain(const FlagParser& flags) {
  auto db = LoadCliDatabase(flags);
  if (!db.ok()) return Fail(db.status());
  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.base_catalog_version = db->catalog_generation;
  auto min_sim = DoubleFlagInRange(flags, "min-sim", 0.0, 1e9);
  if (!min_sim.ok()) return Fail(min_sim.status());
  config.min_sim = *min_sim;
  auto threads = IntFlagInRange(flags, "threads", 1, 4096);
  if (!threads.ok()) return Fail(threads.status());
  config.num_threads = *threads;
  if (Status s = ApplyKernelFlags(flags, &config); !s.ok()) return Fail(s);
  config.observability = obs::Enabled();
  auto engine = Distinct::Create(db->db, DblpReferenceSpec(), config);
  if (!engine.ok()) return Fail(engine.status());
  const TrainingReport& report = engine->report();
  std::printf("trained on %zu pairs, %d paths, %.2fs\n",
              report.num_training_pairs, report.num_paths,
              report.seconds_total);
  const std::string model_path = flags.GetString("model");
  if (model_path.empty()) {
    std::fprintf(stderr, "error: train needs --model=FILE to save into\n");
    return 1;
  }
  if (Status s = SaveSimilarityModel(engine->model(), model_path); !s.ok()) {
    return Fail(s);
  }
  std::printf("saved model to %s\n", model_path.c_str());
  return 0;
}

int RunResolve(const FlagParser& flags) {
  auto db = LoadCliDatabase(flags);
  if (!db.ok()) return Fail(db.status());
  auto engine = MakeEngine(db->db, flags, db->catalog_generation);
  if (!engine.ok()) return Fail(engine.status());
  const std::string name = flags.GetString("name");
  auto result = engine->ResolveName(name);
  if (!result.ok()) return Fail(result.status());
  std::printf("'%s': %zu references -> %d people\n", name.c_str(),
              result->refs.size(), result->clustering.num_clusters);
  for (size_t i = 0; i < result->refs.size(); ++i) {
    std::printf("  publish row %d -> person %d\n", result->refs[i],
                result->clustering.assignment[i]);
  }
  return 0;
}

/// One row per planned shard, attached to the run report (--report /
/// --metrics-json).
obs::ReportTable ShardTable(const std::vector<ShardOutcome>& shards) {
  obs::ReportTable table;
  table.title = "shards";
  table.header = {"shard",   "state",   "groups", "refs",
                  "pairs",   "threads", "sec",    "error"};
  for (const ShardOutcome& shard : shards) {
    table.rows.push_back(
        {StrFormat("%d", shard.shard_id), ShardStateName(shard.state),
         StrFormat("%lld", static_cast<long long>(shard.num_groups)),
         StrFormat("%lld", static_cast<long long>(shard.num_refs)),
         StrFormat("%lld", static_cast<long long>(shard.estimated_pairs)),
         StrFormat("%d", shard.threads_used),
         StrFormat("%.3f", shard.seconds), shard.error});
  }
  return table;
}

int RunScan(const FlagParser& flags) {
  auto db = LoadCliDatabase(flags);
  if (!db.ok()) return Fail(db.status());
  auto engine = MakeEngine(db->db, flags, db->catalog_generation);
  if (!engine.ok()) return Fail(engine.status());
  ScanOptions scan;
  // int64 end to end: a --min-refs/--max-refs beyond INT_MAX compares
  // exactly instead of being narrowed.
  auto min_refs = Int64FlagInRange(flags, "min-refs", 1, INT64_MAX);
  if (!min_refs.ok()) return Fail(min_refs.status());
  scan.min_refs = *min_refs;
  auto max_refs = Int64FlagInRange(flags, "max-refs", 0, INT64_MAX);
  if (!max_refs.ok()) return Fail(max_refs.status());
  scan.max_refs = *max_refs;
  // Served from the engine's name index; no second pass over the tables.
  auto groups = ScanNameGroups(*engine, scan);
  if (!groups.ok()) return Fail(groups.status());

  // Every scan is a sharded scan; without --shards it is one shard.
  auto shards = IntFlagInRange(flags, "shards", 1, 1 << 20);
  if (!shards.ok()) return Fail(shards.status());
  ShardedScanOptions options;
  options.num_shards = *shards;
  options.num_threads = engine->config().num_threads;
  options.checkpoint_dir = flags.GetString("checkpoint-dir");
  options.resume = flags.GetBool("resume");
  options.write_trace_fragments = g_want_trace;
  options.progress = &g_progress;
  if (g_want_trace && !options.checkpoint_dir.empty()) {
    g_trace_fragment_dir = options.checkpoint_dir;
    g_trace_fragment_shards = *shards;
  }
  auto scanned = RunShardedScan(*engine, *groups, options);
  if (!scanned.ok()) return Fail(scanned.status());
  const std::vector<BulkResolution>& results = scanned->results;
  const BulkStats& stats = scanned->stats;
  g_report_tables.push_back(ShardTable(scanned->shards));
  for (const ShardOutcome& shard : scanned->shards) {
    if (shard.state == ShardState::kFailed) {
      std::fprintf(stderr, "shard %d failed: %s\n", shard.shard_id,
                   shard.error.c_str());
    }
  }
  std::printf("%lld names, %lld refs, %.2fs; %lld split\n",
              static_cast<long long>(stats.names_resolved),
              static_cast<long long>(stats.total_refs), stats.seconds,
              static_cast<long long>(stats.names_split));
  for (const BulkResolution& r : results) {
    if (r.clustering.num_clusters > 1) {
      std::printf("  %-28s %3zu refs -> %d people\n", r.name.c_str(),
                  r.num_refs, r.clustering.num_clusters);
    }
  }
  return 0;
}

/// Exact catalog equality — the differential `--verify` promises: same
/// names in the same order, same assignments, bit-identical merge
/// similarities.
bool SameResolutions(const std::vector<BulkResolution>& got,
                     const std::vector<BulkResolution>& want) {
  if (got.size() != want.size()) return false;
  for (size_t g = 0; g < want.size(); ++g) {
    if (got[g].name != want[g].name || got[g].num_refs != want[g].num_refs ||
        got[g].clustering.num_clusters != want[g].clustering.num_clusters ||
        got[g].clustering.assignment != want[g].clustering.assignment ||
        got[g].clustering.merges.size() != want[g].clustering.merges.size()) {
      return false;
    }
    for (size_t m = 0; m < want[g].clustering.merges.size(); ++m) {
      if (got[g].clustering.merges[m].into != want[g].clustering.merges[m].into ||
          got[g].clustering.merges[m].from != want[g].clustering.merges[m].from ||
          got[g].clustering.merges[m].similarity !=
              want[g].clustering.merges[m].similarity) {
        return false;
      }
    }
  }
  return true;
}

int RunAppend(const FlagParser& flags) {
  auto loaded = LoadCliDatabase(flags);
  if (!loaded.ok()) return Fail(loaded.status());
  Database* db = &loaded->db;
  const std::string delta_dir = flags.GetString("delta");
  if (delta_dir.empty()) {
    std::fprintf(stderr, "error: append needs --delta=DIR (per-table CSVs "
                         "of rows to append)\n");
    return 1;
  }
  auto engine = MakeEngine(*db, flags, loaded->catalog_generation);
  if (!engine.ok()) return Fail(engine.status());

  ScanOptions scan;
  auto min_refs = Int64FlagInRange(flags, "min-refs", 1, INT64_MAX);
  if (!min_refs.ok()) return Fail(min_refs.status());
  scan.min_refs = *min_refs;
  auto max_refs = Int64FlagInRange(flags, "max-refs", 0, INT64_MAX);
  if (!max_refs.ok()) return Fail(max_refs.status());
  scan.max_refs = *max_refs;

  IncrementalCatalog catalog(*engine, scan);
  if (Status s = catalog.Build(); !s.ok()) return Fail(s);
  const size_t names_before = catalog.resolutions().size();

  auto delta = LoadDatabaseDeltaCsv(*db, delta_dir);
  if (!delta.ok()) return Fail(delta.status());
  auto report = catalog.Apply(*db, *delta);
  if (!report.ok()) return Fail(report.status());

  std::printf(
      "appended %lld rows (%lld references): %zu dirty names, "
      "%lld resolutions reused, %lld re-resolved\n",
      static_cast<long long>(report->rows_appended),
      static_cast<long long>(report->new_refs), report->dirty_names.size(),
      static_cast<long long>(report->names_reused),
      static_cast<long long>(report->names_reresolved));
  std::printf("catalog: %zu -> %zu names, version %lld, watermark %lld\n",
              names_before, catalog.resolutions().size(),
              static_cast<long long>(report->catalog_version),
              static_cast<long long>(report->tuple_watermark));

  if (flags.GetBool("verify")) {
    // Differential: a fresh engine over the appended database with the
    // same model must land on exactly the same catalog.
    auto fresh = Distinct::CreateWithModel(*db, DblpReferenceSpec(),
                                           engine->config(), engine->model());
    if (!fresh.ok()) return Fail(fresh.status());
    IncrementalCatalog rebuilt(*fresh, scan);
    if (Status s = rebuilt.Build(); !s.ok()) return Fail(s);
    if (!SameResolutions(catalog.resolutions(), rebuilt.resolutions())) {
      std::fprintf(stderr,
                   "verify FAILED: incremental catalog differs from batch "
                   "rebuild\n");
      return 1;
    }
    std::printf("verify OK: incremental catalog matches batch rebuild "
                "(%zu names)\n",
                catalog.resolutions().size());
  }
  return 0;
}

int RunServe(const FlagParser& flags) {
  // Block the shutdown signals before any thread exists: the service's
  // kernel pool and the server's connection threads inherit this mask, so
  // SIGTERM/SIGINT are only ever delivered to the sigwait below and a
  // drain cannot race a default-action termination on a worker thread.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGINT);
  sigaddset(&shutdown_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);

  auto db = LoadCliDatabase(flags);
  if (!db.ok()) return Fail(db.status());
  auto engine = MakeEngine(db->db, flags, db->catalog_generation);
  if (!engine.ok()) return Fail(engine.status());

  serve::ServiceOptions service_options;
  auto max_inflight = IntFlagInRange(flags, "max-inflight", 1, 1 << 20);
  if (!max_inflight.ok()) return Fail(max_inflight.status());
  service_options.max_inflight = *max_inflight;
  auto deadline_ms = Int64FlagInRange(flags, "deadline-ms", 0,
                                      serve::kMaxDeadlineMs);
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  service_options.default_deadline_ms = *deadline_ms;
  auto result_cache = Int64FlagInRange(flags, "result-cache", 0, 1 << 24);
  if (!result_cache.ok()) return Fail(result_cache.status());
  service_options.result_cache_entries = static_cast<size_t>(*result_cache);
  // The same budget flag the sharded scan honours bounds admission here.
  service_options.memory_budget_mb = engine->config().scan_memory_mb;
  service_options.progress = &g_progress;
  serve::ServeService service(*engine, service_options);

  serve::ServerOptions server_options;
  server_options.host = flags.GetString("host");
  auto port = Int64FlagInRange(flags, "port", 0, 65535);
  if (!port.ok()) return Fail(port.status());
  server_options.port = static_cast<uint16_t>(*port);
  serve::ServeServer server(&service, server_options);
  if (Status s = server.Start(); !s.ok()) return Fail(s);

  // Scripts scrape this line for the (possibly ephemeral) port; flush so
  // it is visible before the first query arrives.
  std::printf("serving on %s:%u (threads=%d, max-inflight=%d, "
              "deadline-ms=%lld, budget-mb=%lld)\n",
              server_options.host.c_str(), server.port(),
              service.options().num_threads, service.options().max_inflight,
              static_cast<long long>(service.options().default_deadline_ms),
              static_cast<long long>(service.options().memory_budget_mb));
  std::fflush(stdout);

  int sig = 0;
  sigwait(&shutdown_signals, &sig);
  DISTINCT_LOG(INFO) << "received "
                     << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                     << ", draining";
  server.Shutdown();
  const serve::ServiceStats stats = service.stats();
  std::printf("served %lld queries (%lld answered, %lld batched, %lld "
              "cache hits, %lld rejected, %lld deadline-exceeded)\n",
              static_cast<long long>(stats.queries),
              static_cast<long long>(stats.answered),
              static_cast<long long>(stats.batched),
              static_cast<long long>(stats.cache_hits),
              static_cast<long long>(stats.rejected_inflight +
                                     stats.rejected_memory),
              static_cast<long long>(stats.deadline_exceeded));
  return 0;
}

int RunEval(const FlagParser& flags) {
  auto dataset = LoadDataset(flags.GetString("dir"));
  if (!dataset.ok()) return Fail(dataset.status());
  auto engine = MakeEngine(dataset->db, flags);
  if (!engine.ok()) return Fail(engine.status());
  auto evaluations = EvaluateCases(*engine, dataset->cases);
  if (!evaluations.ok()) return Fail(evaluations.status());

  TextTable table({"name", "precision", "recall", "f-measure"});
  for (size_t c = 1; c <= 3; ++c) table.SetRightAlign(c);
  for (const CaseEvaluation& evaluation : *evaluations) {
    table.AddRow({evaluation.name,
                  StrFormat("%.3f", evaluation.scores.precision),
                  StrFormat("%.3f", evaluation.scores.recall),
                  StrFormat("%.3f", evaluation.scores.f1)});
  }
  const AggregateScores aggregate = Aggregate(*evaluations);
  table.AddRow({"average", StrFormat("%.3f", aggregate.precision),
                StrFormat("%.3f", aggregate.recall),
                StrFormat("%.3f", aggregate.f1)});
  std::printf("%s", table.Render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string command = argv[1];

  FlagParser flags;
  flags.AddString("dir", "distinct_data", "dataset directory");
  flags.AddString("model", "", "similarity-model file");
  flags.AddString("name", "Wei Wang", "name to resolve");
  flags.AddInt64("seed", 42, "generator seed");
  flags.AddString("catalog", "",
                  "columnar catalog directory: output of `ingest`, input "
                  "(instead of --dir) for train/resolve/scan/append/serve");
  flags.AddString("xml", "", "ingest: source dblp.xml file");
  flags.AddString("out", "", "generate-xml: output file");
  flags.AddInt64("rows", 100000,
                 "generate-xml: stop after at least this many author "
                 "references");
  flags.AddInt64("segment-papers", 65536,
                 "ingest: papers per column segment file");
  flags.AddInt64("min-refs-per-author", 0,
                 "catalog load: drop authors with fewer references when "
                 "materialising the database (0 keeps everyone)");
  flags.AddInt64("min-refs", 6, "scan: minimum references per name");
  flags.AddInt64("max-refs", 500, "scan: maximum references per name");
  flags.AddInt64("threads", 1,
                 "worker threads (similarity kernel; scan: also names)");
  flags.AddInt64("shards", 1,
                 "scan: partition the name groups into this many "
                 "deterministic shards (balanced by estimated pair count)");
  flags.AddInt64("scan-memory-mb", 0,
                 "scan: per-shard memory budget in MiB (0 = unbounded); "
                 "bounds concurrent workspaces and admits groups by "
                 "pair-matrix size");
  flags.AddString("checkpoint-dir", "",
                  "scan: write per-shard checkpoints into this directory "
                  "(empty disables checkpointing)");
  flags.AddBool("resume", false,
                "scan: load complete shard checkpoints from "
                "--checkpoint-dir instead of re-resolving them");
  flags.AddString("delta", "",
                  "append: directory of per-table CSVs (same headers as "
                  "the dataset) holding the rows to ingest");
  flags.AddBool("verify", false,
                "append: rebuild from scratch afterwards and check the "
                "incremental catalog matches it exactly");
  flags.AddString("kernel", "fused",
                  "pair-similarity kernel: fused (flat arena, one "
                  "merge-join per pair+path, candidate skipping) | "
                  "reference (three-pass exactness baseline)");
  flags.AddBool("kernel-pruning", false,
                "fused kernel, opt-in approximation: skip pairs whose "
                "mass-bound similarity upper bound is below min-sim when "
                "clustering; may shift merges whose cluster-average sits "
                "near the floor (off by default — every candidate is "
                "computed exactly)");
  flags.AddString("kernel-isa", "auto",
                  "fused-kernel merge-join variant: auto (fastest this "
                  "host supports) | scalar | gallop | avx2 (falls back to "
                  "scalar when unsupported); all bit-identical");
  flags.AddDouble("min-sim", 3e-2, "clustering merge threshold");
  flags.AddBool("auto-min-sim", false,
                "derive min-sim from the training pairs (ignores --min-sim)");
  flags.AddBool("unsupervised", false,
                "uniform path weights instead of SVM training (the paper's "
                "unsupervised baseline; works on corpora without enough "
                "rare names to train on)");
  flags.AddString("stopping", "fixed",
                  "merge stopping rule: fixed | largest-gap");
  flags.AddBool("incremental", true,
                "incremental cluster-sum maintenance (--no-incremental "
                "recomputes from the base matrices)");
  flags.AddInt64("verbosity", 1,
                 "log verbosity: 0 = warnings/errors, 1 = +info, 2 = +debug");
  flags.AddBool("report", false,
                "print a per-stage metrics report after the command");
  flags.AddString("metrics-json", "",
                  "write the structured run report as JSON to this file");
  flags.AddString("trace-json", "",
                  "write the span tree as Chrome-trace/Perfetto JSON to "
                  "this file (sharded scans with --checkpoint-dir merge "
                  "per-shard fragments, including resumed shards)");
  flags.AddString("heartbeat", "",
                  "scan: atomically rewrite this JSON heartbeat file every "
                  "--progress-interval seconds (progress, refs/s, ETA, RSS) "
                  "and print a progress line at verbosity >= 1");
  flags.AddDouble("progress-interval", 10.0,
                  "seconds between heartbeat samples");
  flags.AddInt64("port", 0,
                 "serve: TCP port to listen on (0 binds an ephemeral port, "
                 "printed on startup)");
  flags.AddString("host", "127.0.0.1",
                  "serve: bind address (loopback by default — the protocol "
                  "is unauthenticated plaintext)");
  flags.AddInt64("max-inflight", 64,
                 "serve: queries admitted concurrently; excess is rejected "
                 "as overloaded with a retry hint");
  flags.AddInt64("deadline-ms", 0,
                 "serve: default per-query deadline in ms (0 = none); a "
                 "request's own deadline_ms may tighten but not extend it");
  flags.AddInt64("result-cache", 4096,
                 "serve: completed answers kept for exact re-serving "
                 "(FIFO-evicted; 0 disables the cache)");
  if (Status s = flags.Parse(argc - 2, argv + 2); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  auto verbosity = IntFlagInRange(flags, "verbosity", 0, 2);
  if (!verbosity.ok()) {
    std::fprintf(stderr, "%s\n%s", verbosity.status().ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }
  SetLogVerbosity(*verbosity);
  const std::string metrics_json = flags.GetString("metrics-json");
  const std::string trace_json = flags.GetString("trace-json");
  g_want_trace = !trace_json.empty();
  const bool want_report = flags.GetBool("report") || !metrics_json.empty();
  if (want_report || g_want_trace) {
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().Reset();
    obs::Tracer::Global().Reset();
    obs::MemoryTracker::Global().Reset();
  }

  std::unique_ptr<obs::HeartbeatReporter> heartbeat;
  const std::string heartbeat_path = flags.GetString("heartbeat");
  if (!heartbeat_path.empty()) {
    auto interval =
        DoubleFlagInRange(flags, "progress-interval", 0.01, 86400.0);
    if (!interval.ok()) {
      std::fprintf(stderr, "%s\n%s", interval.status().ToString().c_str(),
                   flags.Help().c_str());
      return 1;
    }
    obs::HeartbeatReporter::Options beat;
    beat.file_path = heartbeat_path;
    beat.interval_seconds = *interval;
    beat.print_progress = *verbosity >= 1;
    beat.label = command;
    heartbeat = std::make_unique<obs::HeartbeatReporter>(beat, &g_progress);
  }

  int exit_code = 1;
  if (command == "generate") {
    exit_code = RunGenerate(flags);
  } else if (command == "generate-xml") {
    exit_code = RunGenerateXml(flags);
  } else if (command == "ingest") {
    exit_code = RunIngest(flags);
  } else if (command == "train") {
    exit_code = RunTrain(flags);
  } else if (command == "resolve") {
    exit_code = RunResolve(flags);
  } else if (command == "scan") {
    exit_code = RunScan(flags);
  } else if (command == "append") {
    exit_code = RunAppend(flags);
  } else if (command == "eval") {
    exit_code = RunEval(flags);
  } else if (command == "serve") {
    exit_code = RunServe(flags);
  } else {
    Usage();
    return 1;
  }

  if (heartbeat != nullptr) {
    // Terminal beat carries the run's outcome: a failed command ends the
    // heartbeat file on status "error", not on a beat that reads as a
    // live (or successful) run.
    heartbeat->StopWithStatus(exit_code == 0 ? "ok" : "error");
  }
  if (g_want_trace) {
    if (Status s = ExportTrace(trace_json); !s.ok()) {
      return Fail(s);
    }
    DISTINCT_LOG(INFO) << "wrote trace to " << trace_json;
  }
  if (want_report) {
    obs::RunReport run_report = obs::CollectRunReport(command);
    run_report.tables = std::move(g_report_tables);
    if (flags.GetBool("report")) {
      std::printf("%s", obs::RunReportToText(run_report).c_str());
    }
    if (!metrics_json.empty()) {
      if (Status s = obs::WriteRunReportJson(run_report, metrics_json);
          !s.ok()) {
        return Fail(s);
      }
      DISTINCT_LOG(INFO) << "wrote run report to " << metrics_json;
    }
  }
  return exit_code;
}
