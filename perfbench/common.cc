#include "common.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/pipeline.h"
#include "dblp/schema.h"
#include "prop/link_graph.h"
#include "sim/intersect.h"

namespace perfbench {

using namespace distinct;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// Every digit a double carries, so no two distinct measurements print
/// alike.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

void Result::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, JsonString(value));
}

void Result::Info(const std::string& key, int64_t value) {
  info_.emplace_back(key, std::to_string(value));
}

void Result::Info(const std::string& key, double value) {
  info_.emplace_back(key, JsonNumber(value));
}

void Result::Fail(const std::string& what) {
  errors_.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Result::SelectMetrics(
    const std::vector<std::pair<std::string, std::string>>& specs,
    bool zero_fill) {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> kept;
  for (const auto& [name, unit] : specs) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const auto& m) { return m.first == name; });
    if (it != metrics_.end()) {
      kept.push_back(*it);
    } else if (zero_fill) {
      kept.emplace_back(name, std::make_pair(0.0, unit));
    } else {
      Fail("metric " + name + " was not measured");
    }
  }
  metrics_ = std::move(kept);
}

std::string Result::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonString(metrics_[i].first) + ":" +
           JsonNumber(metrics_[i].second.first);
  }
  return out + "}";
}

std::string Result::ResultJson() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(std::max<int64_t>(
                                 account_.attempted(), 1));
  out += ",\"failed\":" + std::to_string(account_.failed());
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonString(metrics_[i].first) +
           ":{\"value\":" + JsonNumber(metrics_[i].second.first) +
           ",\"unit\":" + JsonString(metrics_[i].second.second) + "}";
  }
  return out + "}}";
}

std::string Result::ProvenanceJson() const {
  std::string out = "{";
  for (size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonString(info_[i].first) + ":" + info_[i].second;
  }
  return out + "}";
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void LogStep(const char* step, std::chrono::steady_clock::time_point start) {
  std::fprintf(stderr, "perfbench: %s took %.3f s\n", step,
               SecondsSince(start));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

GeneratorConfig Table1World(uint64_t seed) {
  GeneratorConfig config;
  config.seed = seed;
  return config;
}

GeneratorConfig ScaledWorld(uint64_t seed) {
  GeneratorConfig config = Table1World(seed);
  config.num_communities *= 4;
  config.first_name_pool *= 4;
  config.last_name_pool *= 4;
  return config;
}

DistinctConfig EngineConfig(bool supervised) {
  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.supervised = supervised;
  config.num_threads = kThreads;
  return config;
}

bool SameClustering(const ClusteringResult& a, const ClusteringResult& b) {
  if (a.assignment != b.assignment || a.num_clusters != b.num_clusters ||
      a.merges.size() != b.merges.size()) {
    return false;
  }
  for (size_t m = 0; m < a.merges.size(); ++m) {
    if (a.merges[m].into != b.merges[m].into ||
        a.merges[m].from != b.merges[m].from ||
        a.merges[m].similarity != b.merges[m].similarity) {
      return false;
    }
  }
  return true;
}

bool SameResolutions(const std::vector<BulkResolution>& a,
                     const std::vector<BulkResolution>& b) {
  if (a.size() != b.size()) return false;
  for (size_t g = 0; g < a.size(); ++g) {
    if (a[g].name != b[g].name || a[g].num_refs != b[g].num_refs ||
        !SameClustering(a[g].clustering, b[g].clustering)) {
      return false;
    }
  }
  return true;
}

namespace {

void AddClustering(const ClusteringResult& clustering, Digest* digest) {
  digest->AddValue(static_cast<int64_t>(clustering.num_clusters));
  digest->AddValue(static_cast<uint64_t>(clustering.assignment.size()));
  digest->Add(clustering.assignment.data(),
              clustering.assignment.size() * sizeof(int));
  digest->AddValue(static_cast<uint64_t>(clustering.merges.size()));
  for (const MergeStep& merge : clustering.merges) {
    digest->AddValue(merge.into);
    digest->AddValue(merge.from);
    digest->AddValue(merge.similarity);
  }
}

}  // namespace

std::string ResolutionDigest(const std::vector<BulkResolution>& resolutions) {
  Digest digest;
  for (const BulkResolution& r : resolutions) {
    digest.AddString(r.name);
    digest.AddValue(static_cast<uint64_t>(r.num_refs));
    AddClustering(r.clustering, &digest);
  }
  return digest.Hex();
}

std::string DatabaseDigest(const Database& db) {
  Digest digest;
  digest.AddValue(static_cast<int64_t>(db.num_tables()));
  for (int t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    digest.AddString(table.name());
    digest.AddValue(static_cast<int64_t>(table.num_columns()));
    digest.AddValue(table.num_rows());
    for (int c = 0; c < table.num_columns(); ++c) {
      digest.AddString(table.column(c).name);
      digest.AddValue(static_cast<int64_t>(table.column(c).type));
    }
    for (int64_t row = 0; row < table.num_rows(); ++row) {
      for (int c = 0; c < table.num_columns(); ++c) {
        digest.AddValue(table.raw(row, c));
        if (table.column(c).type == ColumnType::kString &&
            !table.IsNull(row, c)) {
          digest.AddString(table.GetString(row, c));
        }
      }
    }
  }
  return digest.Hex();
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": the sum over all CPUs
  CpuTicks ticks;
  int64_t value = 0;
  for (int field = 0; field < 10 && (stat >> value); ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

int OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

void RecordCommonProvenance(const Args& args, Result* result) {
  result->Info("workload", args.workload);
  result->Info("seed", static_cast<int64_t>(args.seed));
  result->Info("run_seconds", args.seconds);
  result->Info("traced", static_cast<int64_t>(args.trace ? 1 : 0));
  result->Info("threads", static_cast<int64_t>(kThreads));
  result->Info("nproc", static_cast<int64_t>(OnlineCpus()));
  result->Info("build_type", std::string(PERFBENCH_BUILD_TYPE));
  result->Info("git_sha", args.git_sha);
  result->Info("source_digest", args.source_digest);
  result->Info("kernel_isa",
               std::string(KernelIsaName(ResolveKernelIsa(KernelIsa::kAuto))));
}

void MeasureOfflineLayers(const Database& db, const DistinctConfig& config,
                          SpanRecorder* spans, Result* result) {
  auto start = std::chrono::steady_clock::now();
  StatusOr<std::unique_ptr<SchemaGraph>> graph = [&] {
    ScopedSpan span(spans, "relational.schema_graph");
    return BuildPromotedSchemaGraph(db, config);
  }();
  const double schema_s = SecondsSince(start);
  if (!graph.ok()) {
    result->Fail("BuildPromotedSchemaGraph: " + graph.status().ToString());
    return;
  }
  start = std::chrono::steady_clock::now();
  StatusOr<LinkGraph> link = [&] {
    ScopedSpan span(spans, "prop.link_graph");
    return LinkGraph::Build(**graph);
  }();
  const double link_s = SecondsSince(start);
  if (!link.ok()) {
    result->Fail("LinkGraph::Build: " + link.status().ToString());
    return;
  }
  start = std::chrono::steady_clock::now();
  StatusOr<Distinct> engine = [&] {
    ScopedSpan span(spans, "core.create");
    return Distinct::Create(db, DblpReferenceSpec(), config);
  }();
  const double create_s = SecondsSince(start);
  if (!engine.ok()) {
    result->Fail("Distinct::Create: " + engine.status().ToString());
    return;
  }
  const TrainingReport& report = engine->report();
  result->Metric("relational.schema_graph_s", schema_s, "s");
  result->Metric("prop.link_graph_s", link_s, "s");
  result->Metric("core.create_s", create_s, "s");
  result->Metric("train.features_s", report.seconds_features, "s");
  result->Metric("svm.train_s", report.seconds_svm, "s");
  result->Metric("train.pairs", static_cast<double>(report.num_training_pairs),
                 "count");
}

void WriteTrace(const Args& args, const SpanRecorder& spans,
                const Result& result) {
  const std::string path = args.work_dir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
  if (!spans.WriteChromeTrace(path, result.MetricsJson())) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  } else {
    std::printf("trace: %zu spans written to %s\n", spans.spans().size(),
                path.c_str());
  }
  std::printf("%-12s %12s %12s %8s\n", "layer", "busy (s)", "self (s)",
              "spans");
  for (const auto& [layer, time] : spans.SelfTimes()) {
    std::printf("%-12s %12.4f %12.4f %8lld\n", layer.c_str(), time.busy_s,
                time.self_s, static_cast<long long>(time.spans));
  }
}

}  // namespace perfbench
