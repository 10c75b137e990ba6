// Pair-kernel comparison on a sparse-overlap workload: one synthetic
// mega-name whose references spread over many distinct entities (and
// therefore many communities), so most reference pairs share no neighbor
// tuples. Rows: the three-pass reference kernel; the fused arena kernel
// once per merge-join ISA (scalar, gallop, avx2 — every row must
// reproduce the reference matrices bit-for-bit, hard failure otherwise);
// the fused kernel with bitset candidate generation forced on; the fused
// kernel at its defaults (auto ISA); and the fused kernel with the
// mass-bound prune (must leave the clustering at the prune floor
// unchanged). The serial fill is measured so the row ratio is the kernel
// speedup itself, not a parallelization artifact.
//
// Timing: every row first runs one untimed warm-up fill (whose matrices the
// exactness checks read), then `--repeat` rounds each run every row once
// in turn, so host-load drift lands on all rows alike. A row's time is its
// median over the rounds; its speedup is the median of the per-round
// ratios reference/row, and `<row>_spread` records (max − min) / median of
// those ratios so a noisy run is visible in BENCH_pair_kernel.json.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/agglomerative.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/text_table.h"
#include "dblp/schema.h"
#include "sim/fused_kernel.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_arena.h"
#include "sim/profile_store.h"

namespace {

using namespace distinct;

bool MatricesEqual(const std::pair<PairMatrix, PairMatrix>& a,
                   const std::pair<PairMatrix, PairMatrix>& b) {
  if (a.first.size() != b.first.size()) return false;
  for (size_t i = 0; i < a.first.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (a.first.at(i, j) != b.first.at(i, j)) return false;
      if (a.second.at(i, j) != b.second.at(i, j)) return false;
    }
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// (max − min) / median: how far apart a row's repeats landed.
double RelativeSpread(const std::vector<double>& values) {
  const double median = Median(values);
  if (values.empty() || median <= 0.0) return 0.0;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return (*hi - *lo) / median;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace distinct;
  using namespace distinct::bench;

  FlagParser flags;
  flags.AddInt64("seed", static_cast<int64_t>(kDefaultSeed),
                 "generator seed");
  flags.AddInt64("refs", 600, "references on the synthetic mega-name");
  flags.AddInt64("entities", 32,
                 "distinct people behind the mega-name; more entities -> "
                 "sparser pair overlap");
  flags.AddInt64("repeat", 5,
                 "timed rounds (each runs every row once, after one warm-up "
                 "fill per row); rows report the median");
  flags.AddDouble("prune-min-sim", 0.25,
                  "merge floor of the fused+prune row (sits inside the "
                  "mass-bound range on this workload so the prune visibly "
                  "fires; the paper's 3e-2 floor is below every bound here)");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  PrintBanner("bench_pair_kernel",
              "fused vs reference pair kernel (implementation, not a paper "
              "figure)");

  GeneratorConfig generator = StandardGeneratorConfig(
      static_cast<uint64_t>(flags.GetInt64("seed")));
  generator.ambiguous = {{"Wei Wang",
                          MustIntInRange(flags, "entities", 1, 1 << 16),
                          MustIntInRange(flags, "refs", 1, 1 << 20)}};
  DblpDataset dataset = MustGenerate(generator);

  // Unsupervised: path-weight training is not what is being measured.
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  Distinct engine = MustCreate(dataset.db, config);

  auto refs = engine.RefsForName("Wei Wang");
  if (!refs.ok()) {
    std::fprintf(stderr, "%s\n", refs.status().ToString().c_str());
    return 1;
  }
  const size_t n = refs->size();
  const int64_t total_pairs = static_cast<int64_t>(n) * (n - 1) / 2;

  const ProfileStore store =
      ProfileStore::Build(engine.propagation_engine(), engine.paths(),
                          engine.config().propagation, *refs);
  const ProfileArena arena = ProfileArena::FromStore(store);
  const CandidateSet candidates =
      CandidateSet::Build(arena, LivePaths(engine.model()));
  int64_t path_joins = 0;
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const PathMask mask = candidates.mask(i, j);
      path_joins += std::popcount(mask & ~(PathMask{1}
                                           << CandidateSet::kOverflowBit));
      if ((mask >> CandidateSet::kOverflowBit) != 0) {
        path_joins += static_cast<int64_t>(candidates.live_paths().size()) -
                      CandidateSet::kOverflowBit;
      }
    }
  }
  const int64_t path_slices =
      total_pairs * static_cast<int64_t>(engine.paths().size());
  std::printf("mega-name 'Wei Wang': %zu references over %lld entities, "
              "%zu join paths (%zu live)\n",
              n, static_cast<long long>(flags.GetInt64("entities")),
              engine.paths().size(), candidates.live_paths().size());
  std::printf("candidate pairs: %lld of %lld (%.1f%%); path joins: %lld of "
              "%lld (pair, path) slices (%.1f%%)\n\n",
              static_cast<long long>(candidates.count()),
              static_cast<long long>(total_pairs),
              total_pairs > 0
                  ? 100.0 * static_cast<double>(candidates.count()) /
                        static_cast<double>(total_pairs)
                  : 0.0,
              static_cast<long long>(path_joins),
              static_cast<long long>(path_slices),
              path_slices > 0 ? 100.0 * static_cast<double>(path_joins) /
                                    static_cast<double>(path_slices)
                              : 0.0);

  const int repeat = MustIntInRange(flags, "repeat", 1, 1 << 20);
  const double prune_min_sim = flags.GetDouble("prune-min-sim");

  // One row per timed configuration. Rows 1-3 pin one merge-join ISA with
  // candidate generation pinned to the sparse grouped machine, so they
  // differ only in the join itself; the bitset row forces the word-parallel
  // candidate machine (auto ISA); the defaults row is the production fill.
  struct Row {
    std::string name;
    PairKernelOptions options;
    std::pair<PairMatrix, PairMatrix> out{PairMatrix(0), PairMatrix(0)};
    std::vector<double> seconds;
    std::vector<double> speedups;  // per round, reference / this row
    double median_s = 0.0;
    double speedup = 0.0;
    bool exact = false;
  };
  std::vector<Row> rows;
  auto add_row = [&](std::string name,
                     const std::function<void(PairKernelOptions&)>& setup) {
    Row row;
    row.name = std::move(name);
    row.options.kernel = PairKernelType::kFused;
    setup(row.options);
    rows.push_back(std::move(row));
  };
  add_row("reference", [](PairKernelOptions& o) {
    o.kernel = PairKernelType::kReference;
  });
  const struct {
    const char* name;
    KernelIsa isa;
  } isas[] = {{"fused[scalar]", KernelIsa::kScalar},
              {"fused[gallop]", KernelIsa::kGallop},
              {"fused[avx2]", KernelIsa::kAvx2}};
  for (const auto& isa : isas) {
    add_row(isa.name, [&](PairKernelOptions& o) {
      o.isa = isa.isa;
      o.candidates.bitset_min_refs = 1 << 30;  // force the sparse path
    });
  }
  add_row("fused[bitset-cand]", [](PairKernelOptions& o) {
    o.candidates.bitset_min_refs = 0;
    o.candidates.bitset_cost_factor = 0.0;
  });
  add_row(StrFormat("fused[auto=%s]",
                    KernelIsaName(ResolveKernelIsa(KernelIsa::kAuto))),
          [](PairKernelOptions&) {});
  add_row(StrFormat("fused+prune@%.2f", prune_min_sim),
          [&](PairKernelOptions& o) {
            o.pruning = true;
            o.prune_min_sim = prune_min_sim;
          });
  enum { kReferenceRow = 0, kBitsetRow = 4, kFusedRow = 5, kPruneRow = 6 };

  for (Row& row : rows) {  // warm-up; its matrices feed the checks
    row.out = ComputePairMatrices(store, engine.model(), nullptr, row.options);
  }
  for (int r = 0; r < repeat; ++r) {
    for (Row& row : rows) {
      Stopwatch watch;
      auto matrices =
          ComputePairMatrices(store, engine.model(), nullptr, row.options);
      row.seconds.push_back(watch.Seconds());
    }
    const double reference_round = rows[kReferenceRow].seconds.back();
    for (Row& row : rows) {
      row.speedups.push_back(row.seconds.back() > 0
                                 ? reference_round / row.seconds.back()
                                 : 0.0);
    }
  }
  for (Row& row : rows) {
    row.median_s = Median(row.seconds);
    row.speedup = Median(row.speedups);
    row.exact = MatricesEqual(row.out, rows[kReferenceRow].out);
  }
  const std::pair<PairMatrix, PairMatrix>& reference =
      rows[kReferenceRow].out;
  const std::pair<PairMatrix, PairMatrix>& pruned = rows[kPruneRow].out;

  // The prune contract: dropped cells read 0.0, and clustering at the
  // prune floor is unchanged.
  int64_t pairs_pruned = 0;
  bool prune_cells_ok = true;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (pruned.first.at(i, j) == reference.first.at(i, j) &&
          pruned.second.at(i, j) == reference.second.at(i, j)) {
        continue;
      }
      ++pairs_pruned;
      prune_cells_ok = prune_cells_ok && pruned.first.at(i, j) == 0.0 &&
                       pruned.second.at(i, j) == 0.0;
    }
  }
  AgglomerativeOptions cluster_options;
  cluster_options.min_sim = prune_min_sim;
  const ClusteringResult exact_clusters =
      ClusterReferences(reference.first, reference.second, cluster_options);
  const ClusteringResult pruned_clusters =
      ClusterReferences(pruned.first, pruned.second, cluster_options);
  const bool prune_clusters_ok =
      exact_clusters.assignment == pruned_clusters.assignment;

  TextTable table(
      {"kernel", "matrix (s)", "speedup", "spread", "exact", "pruned"});
  for (size_t c = 1; c <= 5; ++c) table.SetRightAlign(c);
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    std::string exact = "-";
    std::string dropped = "-";
    if (r == kPruneRow) {
      exact = prune_cells_ok && prune_clusters_ok ? "clusters" : "NO";
      dropped = StrFormat("%lld", static_cast<long long>(pairs_pruned));
    } else if (r != kReferenceRow) {
      exact = row.exact ? "yes" : "NO";
      dropped = "0";
    }
    table.AddRow({row.name, Fmt3(row.median_s),
                  StrFormat("%.2f", row.speedup),
                  StrFormat("%.2f", RelativeSpread(row.speedups)), exact,
                  dropped});
  }
  std::printf("%s", table.Render().c_str());

  BenchJson json("pair_kernel");
  json.Add("seed", flags.GetInt64("seed"));
  json.Add("refs", static_cast<int64_t>(n));
  json.Add("entities", flags.GetInt64("entities"));
  json.Add("join_paths", static_cast<int64_t>(engine.paths().size()));
  json.Add("live_paths",
           static_cast<int64_t>(candidates.live_paths().size()));
  json.Add("repeat", flags.GetInt64("repeat"));
  json.Add("total_pairs", total_pairs);
  json.Add("candidate_pairs", candidates.count());
  json.Add("path_slices", path_slices);
  json.Add("path_joins", path_joins);
  json.Add("reference_matrix_s", rows[kReferenceRow].median_s);
  json.Add("reference_spread", RelativeSpread(rows[kReferenceRow].seconds));
  // fused_* is the defaults row (auto ISA); the per-variant keys pin one
  // merge-join ISA (sparse candidates) or force bitset candidates.
  const struct {
    const char* key;
    int row;
  } keyed[] = {{"fused", kFusedRow}, {"scalar", 1}, {"gallop", 2},
               {"simd", 3},          {"bitset", kBitsetRow}};
  for (const auto& k : keyed) {
    const Row& row = rows[static_cast<size_t>(k.row)];
    const std::string key = k.key;
    json.Add(key + "_matrix_s", row.median_s);
    json.Add(key + "_speedup", row.speedup);
    json.Add(key + "_spread", RelativeSpread(row.speedups));
    json.Add(key + "_exact", static_cast<int64_t>(row.exact ? 1 : 0));
  }
  json.Add("prune_min_sim", prune_min_sim);
  json.Add("prune_matrix_s", rows[kPruneRow].median_s);
  json.Add("prune_speedup", rows[kPruneRow].speedup);
  json.Add("prune_spread", RelativeSpread(rows[kPruneRow].speedups));
  json.Add("pairs_pruned", pairs_pruned);
  json.Add("prune_clustering_identical",
           static_cast<int64_t>(prune_clusters_ok ? 1 : 0));
  json.Write();

  std::printf(
      "\nevery fused row must reproduce the reference matrices bit-for-bit; "
      "the prune row must leave the clustering at its floor unchanged.\n");
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r != kReferenceRow && r != kPruneRow && !rows[r].exact) {
      std::fprintf(stderr, "error: %s diverged from the reference matrices\n",
                   rows[r].name.c_str());
      return 1;
    }
  }
  if (!prune_cells_ok || !prune_clusters_ok) {
    std::fprintf(stderr,
                 "error: mass-bound prune violated its contract (%s)\n",
                 !prune_cells_ok ? "non-zero pruned cell"
                                 : "clustering changed at the prune floor");
    return 1;
  }
  return 0;
}
