// The benchmark program: runs one workload against the DISTINCT library
// and prints its metrics.
//
//   perfbench_runner --workload scan|serve|ingest|append --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//                    [--git-sha SHA] [--source-digest HEX]
//
// With --trace 0 the run measures the end-to-end metrics (their times are
// process CPU time, which leaves out a shared host's CPU steal); with
// --trace 1 it gives the per-layer metrics instead (spans around every public call,
// written to DIR). Either way it checks the outputs, and the last line of
// standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every check passed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload measures each of them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"ok_share", "share"},      {"refs_per_cpu_s", "1/s"},
    {"op_cpu_p50_ms", "ms"},    {"op_cpu_tail_ms", "ms"},
};

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reads 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"xml.parse_s", "s"},
    {"xml.parse_mb_per_s", "MB/s"},
    {"catalog.ingest_s", "s"},
    {"catalog.write_s", "s"},
    {"catalog.bytes_written", "bytes"},
    {"catalog.bytes_per_input_byte", "share"},
    {"catalog.open_s", "s"},
    {"catalog.materialize_s", "s"},
    {"catalog.mapped_mb", "MB"},
    {"relational.schema_graph_s", "s"},
    {"prop.link_graph_s", "s"},
    {"core.create_s", "s"},
    {"train.features_s", "s"},
    {"svm.train_s", "s"},
    {"train.pairs", "count"},
    {"prop.profile_build_s", "s"},
    {"prop.refs_per_s", "1/s"},
    {"prop.memo_hit_share", "share"},
    {"prop.memo_evictions", "count"},
    {"mem.subtree_cache_peak_mb", "MB"},
    {"sim.arena_build_s", "s"},
    {"sim.pair_fill_s", "s"},
    {"sim.pairs_per_s", "1/s"},
    {"sim.nonzero_cell_share", "share"},
    {"mem.profile_arena_peak_mb", "MB"},
    {"mem.pair_matrix_peak_mb", "MB"},
    {"cluster.s", "s"},
    {"cluster.merges", "count"},
    {"scan.group_p50_ms", "ms"},
    {"scan.group_p99_ms", "ms"},
    {"scan.slowest_group_share", "share"},
    {"scan.parallel_efficiency", "share"},
    {"serve.service_p50_ms", "ms"},
    {"serve.service_p99_ms", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.cache_hit_share", "share"},
    {"serve.batched_share", "share"},
    {"serve.rejected_share", "share"},
    {"serve.admission_peak_mb", "MB"},
    {"serve.generator_lag_p99_ms", "ms"},
    {"serve.max_qps", "1/s"},
    {"delta.apply_engine_s", "s"},
    {"delta.patch_s", "s"},
    {"delta.dirty_names_per_batch", "count"},
    {"delta.dirty_refs_per_batch", "count"},
    {"delta.names_reused_share", "share"},
    {"delta.memo_entries_erased", "count"},
    {"eval.pairwise_f1", "share"},
    {"eval.zero_fp_names", "count"},
    {"obs.trace_overhead_share", "share"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload scan|serve|ingest|append "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--git-sha SHA] [--source-digest HEX]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) {
        return Usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--source-digest") {
      args.source_digest = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (args.work_dir.empty()) return Usage("--work-dir is required");
  std::filesystem::create_directories(args.work_dir);

  Result result;
  RecordCommonProvenance(args, &result);
  const CpuTicks before = ReadCpuTicks();
  if (args.workload == "scan") {
    RunScanWorkload(args, &result);
  } else if (args.workload == "serve") {
    RunServeWorkload(args, &result);
  } else if (args.workload == "ingest") {
    RunIngestWorkload(args, &result);
  } else if (args.workload == "append") {
    RunAppendWorkload(args, &result);
  } else {
    return Usage("unknown --workload");
  }

  const CpuTicks after = ReadCpuTicks();
  if (after.total > before.total) {
    result.Info("host_cpu_steal_share",
                static_cast<double>(after.steal - before.steal) /
                    static_cast<double>(after.total - before.total));
  }

  // Exactly the metrics of the run's kind, in the declared order.
  std::vector<std::pair<std::string, std::string>> specs;
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) specs.emplace_back(m.name, m.unit);
  } else {
    for (const MetricSpec& m : kEndToEnd) specs.emplace_back(m.name, m.unit);
  }
  result.SelectMetrics(specs, /*zero_fill=*/args.trace);
  std::printf("provenance: %s\n", result.ProvenanceJson().c_str());
  for (const auto& [name, value] : result.metrics()) {
    std::printf("%-32s %18.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::printf("%s\n", result.ResultJson().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
