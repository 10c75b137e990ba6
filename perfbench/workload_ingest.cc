// ingest: a fresh dump. A deterministic 500k-reference synthetic dblp.xml
// (written untimed), then catalog::IngestDblpXml into a fresh directory
// and, as set-up of the system that serves from it, CatalogReader::Open →
// MaterializeDatabase → Distinct::Create (unsupervised: the Zipf corpus
// has no rare names to train on). Ingest and set-up repeat for the run's
// seconds.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "catalog/ingest.h"
#include "catalog/reader.h"
#include "common.h"
#include "dblp/schema.h"
#include "dblp/xml_corpus.h"
#include "dblp/xml_loader.h"
#include "xml/xml_parser.h"

namespace perfbench {

using namespace distinct;
using Clock = std::chrono::steady_clock;

namespace {

/// Half the 1M references of the library's own ingest bench: at 1M one run
/// took about 36 s on a 4-vCPU host (three passes and the loader check),
/// the longest of the four workloads; at 500k it takes about 20 s.
constexpr int64_t kTargetRefs = 500000;
constexpr int kMinIterations = 4;
constexpr double kMb = 1.0 / (1 << 20);

/// Parse-only pass: the push parser over the whole file, in the ingest's
/// read size, with the base handler that ignores every event — the floor
/// under any ingest.
Status ParseOnly(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return InternalError("cannot open " + path);
  XmlHandler handler;
  XmlStreamParser parser(handler);
  std::vector<char> buf(catalog::IngestOptions{}.read_chunk_bytes);
  Status status = Status::Ok();
  for (;;) {
    const ssize_t got = ::read(fd, buf.data(), buf.size());
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      if (got < 0) status = InternalError("read failed on " + path);
      break;
    }
    status = parser.Feed(std::string_view(buf.data(), static_cast<size_t>(got)));
    if (!status.ok()) break;
  }
  ::close(fd);
  return status.ok() ? parser.Finish() : status;
}

/// Bytes of the catalog's data files: segments and dictionaries. The
/// manifest is left out — it records a wall-clock generation id, so its
/// length differs between otherwise identical ingests.
int64_t CatalogDataBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) &&
        entry.path().filename() != "MANIFEST.json") {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

/// One ingest + set-up pass. Returns false (after recording why) on error.
struct Pass {
  double ingest_s = 0.0;
  double ingest_cpu_s = 0.0;
  double setup_cpu_s = 0.0;  // open + materialize + Create
  double open_s = 0.0;
  double materialize_s = 0.0;
  double create_s = 0.0;
  int64_t catalog_bytes = 0;
  int64_t mapped_bytes = 0;
  int64_t refs = 0;
  std::string db_digest;  // only when asked
};

bool RunPass(const std::string& xml, const std::string& dir, bool digest,
             SpanRecorder* spans, Result* result, Pass* pass) {
  std::filesystem::remove_all(dir);
  auto start = Clock::now();
  const double ingest_cpu_start = ProcessCpuSeconds();
  auto ingest = [&] {
    ScopedSpan span(spans, "catalog.ingest");
    return catalog::IngestDblpXml(xml, dir);
  }();
  pass->ingest_cpu_s = ProcessCpuSeconds() - ingest_cpu_start;
  pass->ingest_s = SecondsSince(start);
  if (!ingest.ok()) {
    result->Fail("IngestDblpXml: " + ingest.status().ToString());
    return false;
  }
  pass->catalog_bytes = CatalogDataBytes(dir);

  const double setup_cpu_start = ProcessCpuSeconds();
  start = Clock::now();
  auto reader = [&] {
    ScopedSpan span(spans, "catalog.open");
    return catalog::CatalogReader::Open(dir);
  }();
  pass->open_s = SecondsSince(start);
  if (!reader.ok()) {
    result->Fail("CatalogReader::Open: " + reader.status().ToString());
    return false;
  }
  pass->mapped_bytes = (*reader)->mapped_bytes();
  start = Clock::now();
  auto loaded = [&] {
    ScopedSpan span(spans, "catalog.materialize");
    return (*reader)->MaterializeDatabase();
  }();
  pass->materialize_s = SecondsSince(start);
  if (!loaded.ok()) {
    result->Fail("MaterializeDatabase: " + loaded.status().ToString());
    return false;
  }
  start = Clock::now();
  auto engine = [&] {
    ScopedSpan span(spans, "core.create");
    return Distinct::Create(loaded->db, DblpReferenceSpec(),
                            EngineConfig(/*supervised=*/false));
  }();
  pass->create_s = SecondsSince(start);
  pass->setup_cpu_s = ProcessCpuSeconds() - setup_cpu_start;
  if (!engine.ok()) {
    result->Fail("Distinct::Create: " + engine.status().ToString());
    return false;
  }
  pass->refs = (*reader)->num_refs();
  if (digest) {
    const auto step = Clock::now();
    pass->db_digest = DatabaseDigest(loaded->db);
    LogStep("the database digest", step);
  }
  return true;
}

}  // namespace

void RunIngestWorkload(const Args& args, Result* result) {
  const std::string base = args.work_dir + "/ingest";
  std::filesystem::create_directories(base);
  const std::string xml = base + "/dblp.xml";
  XmlCorpusConfig corpus;
  corpus.seed = args.seed;
  corpus.target_refs = kTargetRefs;
  auto step = Clock::now();
  auto written = WriteSyntheticDblpXml(xml, corpus);
  LogStep("writing the XML corpus", step);
  if (!written.ok()) {
    result->Fail("WriteSyntheticDblpXml: " + written.status().ToString());
    return;
  }
  const double xml_mb = written->bytes * kMb;

  std::vector<Pass> passes;
  const auto measure_start = Clock::now();
  const int iterations = args.trace ? 1 : kMinIterations;
  while (static_cast<int>(passes.size()) < iterations ||
         (!args.trace && SecondsSince(measure_start) < args.seconds)) {
    Pass pass;
    const bool ok = RunPass(xml, base + "/catalog", passes.empty(), nullptr,
                            result, &pass);
    result->account().Record(ok ? Outcome::kOk : Outcome::kError);
    if (!ok) return;
    if (!passes.empty() && pass.catalog_bytes != passes.front().catalog_bytes) {
      result->Fail("re-ingesting the same XML changed the catalog size");
    }
    passes.push_back(pass);
  }
  const double peak_rss = PeakRssMb();

  // Check, untimed: the materialized catalog is bit-identical to the
  // in-memory loader over the same bytes.
  {
    step = Clock::now();
    auto reference = LoadDblpXmlFile(xml);
    const bool same =
        reference.ok() && DatabaseDigest(reference->db) == passes.front().db_digest;
    result->account().Record(same ? Outcome::kOk : Outcome::kMismatch);
    if (!same) result->Fail("materialized catalog differs from LoadDblpXmlFile");
    LogStep("the loader check", step);
  }

  std::vector<double> ingest_s, ingest_cpu_s, setup_cpu_s;
  for (const Pass& pass : passes) {
    ingest_s.push_back(pass.ingest_s);
    ingest_cpu_s.push_back(pass.ingest_cpu_s);
    setup_cpu_s.push_back(pass.setup_cpu_s);
  }
  const double ingest_median = Median(ingest_s);
  const double ingest_cpu_median = Median(ingest_cpu_s);
  const double catalog_ratio =
      static_cast<double>(passes.front().catalog_bytes) /
      static_cast<double>(written->bytes);
  result->Info("refs", passes.front().refs);
  result->Info("papers", written->papers);
  result->Info("xml_mb", xml_mb);
  result->Info("ingests", static_cast<int64_t>(passes.size()));
  result->Info("ingest_mb_per_s", xml_mb / ingest_median);
  result->Info("ingest_wall_s_median", ingest_median);
  result->Info("catalog_bytes_per_input_byte", catalog_ratio);
  result->Info("flush_policy",
               std::string("catalog: each segment and dictionary, then the "
                           "manifest, is written to a .tmp file, fsync'd, "
                           "renamed, and the directory fsync'd; the disk is "
                           "the host's page cache, not a measured device"));

  if (!args.trace) {
    result->Metric("setup_s", Median(setup_cpu_s), "s");
    result->Metric("peak_rss_mb", peak_rss, "MB");
    result->Metric("ok_share", 1.0 - result->account().fail_share(), "share");
    result->Metric("refs_per_cpu_s", passes.front().refs / ingest_cpu_median,
                   "1/s");
    result->Metric("op_cpu_p50_ms", ingest_cpu_median * 1e3, "ms");
    result->Metric(
        "op_cpu_tail_ms",
        *std::max_element(ingest_cpu_s.begin(), ingest_cpu_s.end()) * 1e3,
        "ms");
    return;
  }

  // Traced run: a parse-only pass, then one traced ingest + set-up whose
  // materialized database must equal the untraced pass's.
  SpanRecorder spans;
  auto start = Clock::now();
  Status parsed = [&] {
    ScopedSpan span(&spans, "xml.parse");
    return ParseOnly(xml);
  }();
  const double parse_s = SecondsSince(start);
  if (!parsed.ok()) result->Fail("parse-only pass: " + parsed.ToString());
  Pass traced;
  if (!RunPass(xml, base + "/catalog", true, &spans, result, &traced)) return;
  const bool same = traced.db_digest == passes.front().db_digest;
  result->account().Record(same ? Outcome::kOk : Outcome::kMismatch);
  if (!same) result->Fail("traced ingest materialized a different database");
  result->Metric("xml.parse_s", parse_s, "s");
  result->Metric("xml.parse_mb_per_s", xml_mb / parse_s, "MB/s");
  result->Metric("catalog.ingest_s", traced.ingest_s, "s");
  result->Metric("catalog.write_s", traced.ingest_s - parse_s, "s");
  result->Metric("catalog.bytes_written",
                 static_cast<double>(traced.catalog_bytes), "bytes");
  result->Metric("catalog.bytes_per_input_byte", catalog_ratio, "share");
  result->Metric("catalog.open_s", traced.open_s, "s");
  result->Metric("catalog.materialize_s", traced.materialize_s, "s");
  result->Metric("catalog.mapped_mb", traced.mapped_bytes * kMb, "MB");
  result->Metric("obs.trace_overhead_share",
                 (traced.ingest_s - ingest_median) / ingest_median, "share");
  // The offline layers over the materialized catalog.
  {
    auto reader = catalog::CatalogReader::Open(base + "/catalog");
    auto loaded = reader.ok() ? (*reader)->MaterializeDatabase()
                              : StatusOr<XmlLoadResult>(reader.status());
    if (!loaded.ok()) {
      result->Fail("reopen for the offline layers: " +
                   loaded.status().ToString());
      return;
    }
    MeasureOfflineLayers(loaded->db, EngineConfig(/*supervised=*/false),
                         &spans, result);
  }
  WriteTrace(args, spans, *result);
}

}  // namespace perfbench
