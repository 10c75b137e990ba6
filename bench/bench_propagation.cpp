// Profile-build throughput of the propagation engines on one synthetic
// DBLP-scale mega-name: the depth-first and level-wise baselines vs. the
// dense workspace engine every production path runs (no subtree memo).
// The workspace row is the headline. An untimed oracle pass then builds
// the same profiles through a subtree memo, cold and warm, and must find
// them bit-identical to the memo-less build.

#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/text_table.h"
#include "common/thread_pool.h"
#include "dblp/schema.h"
#include "prop/workspace.h"
#include "sim/profile_store.h"

namespace {

using namespace distinct;

bool StoresIdentical(const ProfileStore& a, const ProfileStore& b) {
  if (a.num_refs() != b.num_refs() || a.num_paths() != b.num_paths()) {
    return false;
  }
  for (size_t i = 0; i < a.num_refs(); ++i) {
    for (size_t p = 0; p < a.num_paths(); ++p) {
      const NeighborProfile& pa = a.profiles(i)[p];
      const NeighborProfile& pb = b.profiles(i)[p];
      if (pa.size() != pb.size()) return false;
      for (size_t e = 0; e < pa.size(); ++e) {
        if (pa.entries()[e].tuple != pb.entries()[e].tuple ||
            pa.entries()[e].forward != pb.entries()[e].forward ||
            pa.entries()[e].reverse != pb.entries()[e].reverse) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace distinct;
  using namespace distinct::bench;

  FlagParser flags;
  flags.AddInt64("seed", static_cast<int64_t>(kDefaultSeed),
                 "generator seed");
  flags.AddInt64("refs", 600, "references on the synthetic mega-name");
  flags.AddInt64("repeat", 3, "timed repetitions per configuration");
  flags.AddInt64("threads", 1, "worker threads (0 = serial only)");
  flags.AddInt64("cache-mb", 64, "subtree memo budget of the oracle pass");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  PrintBanner("bench_propagation",
              "dense scratch propagation (implementation, not a paper "
              "figure)");

  const int refs_target = MustIntInRange(flags, "refs", 1, 1 << 20);
  GeneratorConfig generator = StandardGeneratorConfig(
      static_cast<uint64_t>(flags.GetInt64("seed")));
  generator.ambiguous = {{"Wei Wang", 8, refs_target}};
  DblpDataset dataset = MustGenerate(generator);

  DistinctConfig config;
  config.supervised = false;  // propagation is what is being measured
  config.promotions = DblpDefaultPromotions();
  Distinct engine = MustCreate(dataset.db, config);

  auto refs = engine.RefsForName("Wei Wang");
  if (!refs.ok()) {
    std::fprintf(stderr, "%s\n", refs.status().ToString().c_str());
    return 1;
  }

  const int repeat = MustIntInRange(flags, "repeat", 1, 1 << 20);
  const int threads = MustIntInRange(flags, "threads", 1, 4096);
  const size_t cache_bytes = static_cast<size_t>(
      MustInt64InRange(flags, "cache-mb", 0, int64_t{1} << 30) << 20);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
  }
  std::printf("mega-name 'Wei Wang': %zu references, %zu join paths, "
              "%d worker thread(s), %u hardware threads\n\n",
              refs->size(), engine.paths().size(), threads,
              std::thread::hardware_concurrency());

  const auto& prop_engine = engine.propagation_engine();
  const auto& paths = engine.paths();

  BenchJson json("propagation");
  json.Add("seed", flags.GetInt64("seed"));
  json.Add("refs", static_cast<int64_t>(refs->size()));
  json.Add("join_paths", static_cast<int64_t>(engine.paths().size()));
  json.Add("repeat", flags.GetInt64("repeat"));
  json.Add("threads", static_cast<int64_t>(threads));
  json.Add("cache_mb", flags.GetInt64("cache-mb"));

  TextTable table({"engine", "total (s)", "refs/sec", "vs level-wise"});
  for (size_t c = 1; c <= 3; ++c) table.SetRightAlign(c);

  struct Row {
    const char* label;
    const char* key;
    PropagationAlgorithm algorithm;
  };
  const Row rows[] = {
      {"depth-first", "dfs", PropagationAlgorithm::kDepthFirst},
      {"level-wise", "levelwise", PropagationAlgorithm::kLevelWise},
      {"workspace", "workspace", PropagationAlgorithm::kWorkspace},
  };

  double levelwise_rate = 0.0;
  double workspace_rate = 0.0;
  ProfileStore workspace_store = ProfileStore::Build(
      prop_engine, paths, engine.config().propagation, {});
  for (const Row& row : rows) {
    PropagationOptions options = engine.config().propagation;
    options.algorithm = row.algorithm;
    double seconds = 0.0;
    for (int r = 0; r < repeat; ++r) {
      Stopwatch watch;
      ProfileStore store = ProfileStore::Build(prop_engine, paths, options,
                                               *refs, pool.get());
      seconds += watch.Seconds();
      if (row.algorithm == PropagationAlgorithm::kWorkspace) {
        workspace_store = std::move(store);
      }
    }
    seconds /= repeat;
    const double rate =
        seconds > 0 ? static_cast<double>(refs->size()) / seconds : 0.0;
    if (row.algorithm == PropagationAlgorithm::kLevelWise) {
      levelwise_rate = rate;
    } else if (row.algorithm == PropagationAlgorithm::kWorkspace) {
      workspace_rate = rate;
    }
    table.AddRow(
        {row.label, StrFormat("%.3f", seconds), StrFormat("%.0f", rate),
         levelwise_rate > 0 ? StrFormat("%.2fx", rate / levelwise_rate)
                            : "-"});
    const std::string prefix = std::string(row.key) + "_";
    json.Add(prefix + "total_s", seconds);
    json.Add(prefix + "refs_per_sec", rate);
  }
  json.Add("workspace_speedup_vs_levelwise",
           levelwise_rate > 0 ? workspace_rate / levelwise_rate : 0.0);

  // Oracle pass: a cold memo (fresh) and a warm one (filled by an earlier
  // build over the same references) must both reproduce the memo-less
  // profiles bit for bit.
  const PropagationOptions& options = engine.config().propagation;
  SubtreeCache memo(cache_bytes);
  bool exact = true;
  for (const char* key : {"workspace_memo", "workspace_memo_warm"}) {
    const ProfileStore store = ProfileStore::Build(
        prop_engine, paths, options, *refs, pool.get(),
        ProfileStore::kMinParallelRefs, &memo);
    const bool same = StoresIdentical(workspace_store, store);
    exact = exact && same;
    json.Add(std::string(key) + "_exact_vs_no_memo",
             static_cast<int64_t>(same ? 1 : 0));
  }

  std::printf("%s", table.Render().c_str());
  json.Write();
  if (!exact) {
    std::fprintf(stderr, "error: memo-on profiles diverged from memo-off\n");
    return 1;
  }
  std::printf(
      "\nworkspace speedup vs level-wise: %.2fx. profiles are bit-identical "
      "with a subtree memo, cold or warm (the memo is a test oracle; no "
      "production path uses it).\n",
      levelwise_rate > 0 ? workspace_rate / levelwise_rate : 0.0);
  return 0;
}
