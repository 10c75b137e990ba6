// Shared plumbing of the benchmark program: arguments, the result record
// (metrics, provenance, failure accounting), the generated worlds, and the
// digests and equality checks the workloads use to verify outputs.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/distinct.h"
#include "core/scan.h"
#include "dblp/generator.h"
#include "logic.h"
#include "relational/database.h"
#include "spans.h"

namespace perfbench {

/// Threads the benchmark gives the system, and connections the serve
/// load generator opens: one process on a 4-core host.
inline constexpr int kThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space inside the checkout (catalogs, XML, trace files).
  std::string work_dir;
  /// Provenance handed down by the launcher.
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// One run's outcome. Metrics keep insertion order; provenance values are
/// pre-rendered JSON.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, int64_t value);
  void Info(const std::string& key, double value);
  /// Records a failed correctness check; the run then reports
  /// correct:false and exits non-zero.
  void Fail(const std::string& what);

  FailureAccount& account() { return account_; }
  bool correct() const { return errors_.empty(); }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }

  /// Keeps exactly the metrics named in `specs` (name, unit), in that
  /// order, dropping any other. A missing metric is added as 0 when
  /// `zero_fill` is set (a layer the workload does not exercise did no
  /// work) and otherwise recorded as a failed check.
  void SelectMetrics(
      const std::vector<std::pair<std::string, std::string>>& specs,
      bool zero_fill);

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} — the last
  /// line the benchmark prints.
  std::string ResultJson() const;
  /// {"name":value,...} of the metrics alone.
  std::string MetricsJson() const;
  /// {"key":value,...} of the provenance record.
  std::string ProvenanceJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> errors_;
  FailureAccount account_;
};

/// Seconds since `start` on the steady clock.
double SecondsSince(std::chrono::steady_clock::time_point start);

/// CPU seconds this process has used so far, summed over its threads
/// (CLOCK_PROCESS_CPUTIME_ID). The guest kernel's paravirtual steal
/// accounting leaves out the time the hypervisor gave to other guests, so
/// on a shared VM this counts the program's own work, where wall time
/// also counts its neighbours'. Idle waits (a pool worker with nothing to
/// do, a blocked socket read) cost nothing.
double ProcessCpuSeconds();

/// Prints to stderr how long an untimed step (input generation, a check)
/// took, so a slow run can be traced to its inputs or checks rather than
/// to the measured work.
void LogStep(const char* step, std::chrono::steady_clock::time_point start);

/// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMb();

/// The standard Table-1 world (about 26k references).
distinct::GeneratorConfig Table1World(uint64_t seed);
/// The scan/serve world: four times the communities and name pools of the
/// Table-1 world (about 97k references).
distinct::GeneratorConfig ScaledWorld(uint64_t seed);

/// Engine configuration every workload uses: the DBLP promotions, the
/// paper's min-sim, kThreads kernel threads.
distinct::DistinctConfig EngineConfig(bool supervised);

/// Exact equality of two clusterings (assignment and every merge,
/// similarities compared bit for bit).
bool SameClustering(const distinct::ClusteringResult& a,
                    const distinct::ClusteringResult& b);
/// Exact equality of two resolution lists (names, sizes, clusterings).
bool SameResolutions(const std::vector<distinct::BulkResolution>& a,
                     const std::vector<distinct::BulkResolution>& b);
/// Digest of a resolution list, covering everything SameResolutions
/// compares.
std::string ResolutionDigest(
    const std::vector<distinct::BulkResolution>& resolutions);
/// Digest of every table, column, raw cell and decoded string of `db`.
std::string DatabaseDigest(const distinct::Database& db);

/// Host-wide CPU time counters (/proc/stat), for the share of CPU time the
/// hypervisor took away (steal) while a run measured: on a shared VM that
/// share, not the program, can explain a slow run.
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Number of logical CPUs the process may run on.
int OnlineCpus();

/// The workloads. Each fills `result` and returns normally; a failed
/// correctness check is recorded with Result::Fail.
void RunScanWorkload(const Args& args, Result* result);
void RunServeWorkload(const Args& args, Result* result);
void RunIngestWorkload(const Args& args, Result* result);
void RunAppendWorkload(const Args& args, Result* result);

/// Records the library-side provenance shared by every workload (resolved
/// kernel ISA, build type, thread counts).
void RecordCommonProvenance(const Args& args, Result* result);

/// Shared per-layer metrics of an engine's offline phase, measured by
/// calling each layer's public entry point once on `db` (the traced runs
/// only): relational.schema_graph_s, prop.link_graph_s, core.create_s and
/// the train.* figures of the created engine's TrainingReport.
void MeasureOfflineLayers(const distinct::Database& db,
                          const distinct::DistinctConfig& config,
                          SpanRecorder* spans, Result* result);

/// Writes the traced run's spans (and its metrics) as one Chrome-trace
/// file under args.work_dir, and prints busy and self time per layer.
void WriteTrace(const Args& args, const SpanRecorder& spans,
                const Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
