// Benchmark regression gate: diffs BENCH_<name>.json artifacts against
// committed baselines with per-metric relative thresholds.
//
// The benches emit machine-readable BENCH_<name>.json files
// (bench/bench_util.h) but until now nothing *consumed* them — a PR could
// halve the fused-kernel speedup and CI would stay green. The gate closes
// that loop: a rules file names the metrics that must not regress, the
// tools/bench_gate binary loads the baseline and current artifacts and
// exits non-zero on any violation. Because absolute wall-clock numbers are
// machine-dependent, the committed rules gate *relative* metrics (speedup
// ratios, exactness flags) with generous thresholds; absolute metrics can
// still be gated in controlled environments.
//
// Rules file (bench/baselines/gate_rules.txt), one rule per line:
//
//   # bench    metric            direction  threshold
//   pair_kernel fused_speedup    higher     0.5
//   pair_kernel fused_exact      equal      0
//   propagation workspace_speedup_vs_levelwise higher 0.6
//
// direction: higher (current >= baseline*(1-threshold)), lower
// (current <= baseline*(1+threshold)), equal (relative deviation at most
// threshold; 0 = exact). A metric or artifact missing on either side
// fails the gate — silence must never pass.

#ifndef DISTINCT_OBS_BENCH_COMPARE_H_
#define DISTINCT_OBS_BENCH_COMPARE_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace distinct {
namespace obs {

/// One parsed BENCH_<name>.json: numeric metrics split from string
/// annotations (run provenance — hostname, build type, git SHA).
struct BenchArtifact {
  std::string name;  // the "bench" field
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;
};

/// Parses the flat one-object JSON a BenchJson::Write emitted.
StatusOr<BenchArtifact> ParseBenchArtifact(const std::string& json_text);

/// Reads and parses `path`. NotFound when the file does not exist.
StatusOr<BenchArtifact> LoadBenchArtifact(const std::string& path);

/// One gating rule.
struct GateRule {
  enum class Direction { kHigherIsBetter, kLowerIsBetter, kEqual };

  std::string bench;   // artifact name ("pair_kernel")
  std::string metric;  // key inside the artifact
  Direction direction = Direction::kHigherIsBetter;
  /// Maximum tolerated relative regression (0.5 = current may be up to
  /// 50% worse than baseline). For kEqual: maximum relative deviation in
  /// either direction (0 = bit-exact).
  double threshold = 0.0;
};

const char* GateDirectionName(GateRule::Direction direction);

/// Parses a rules file: `bench metric direction threshold` per line,
/// '#' comments and blank lines ignored. InvalidArgument on malformed
/// lines (with the line number).
StatusOr<std::vector<GateRule>> ParseGateRules(const std::string& text);

/// Outcome of one rule.
struct GateCheck {
  GateRule rule;
  bool ok = false;
  double baseline = 0.0;
  double current = 0.0;
  /// Signed (current - baseline) / |baseline|; 0 when baseline is 0.
  double relative_change = 0.0;
  /// Failure (or skip) explanation: "missing baseline artifact", ...
  std::string detail;
};

struct GateReport {
  std::vector<GateCheck> checks;  // one per rule, in rule order
  int64_t failures = 0;

  bool ok() const { return failures == 0; }
};

/// Evaluates every rule against the artifact maps (keyed by bench name).
/// A bench or metric absent on either side fails that rule.
GateReport EvaluateGate(
    const std::vector<GateRule>& rules,
    const std::map<std::string, BenchArtifact>& baselines,
    const std::map<std::string, BenchArtifact>& currents);

/// Renders the report as a text table (one row per check) plus, for each
/// bench with provenance on either side, a baseline-vs-current annotation
/// line.
std::string GateReportToText(
    const GateReport& report,
    const std::map<std::string, BenchArtifact>& baselines,
    const std::map<std::string, BenchArtifact>& currents);

}  // namespace obs
}  // namespace distinct

#endif  // DISTINCT_OBS_BENCH_COMPARE_H_
