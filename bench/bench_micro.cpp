// E9 — google-benchmark microbenchmarks of the kernels: probability
// propagation, set resemblance, random-walk merge, SVM training, and the
// agglomerative clusterer.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cluster/agglomerative.h"
#include "common/rng.h"
#include "dblp/schema.h"
#include "prop/propagation.h"
#include "prop/workspace.h"
#include "sim/resemblance.h"
#include "sim/walk_probability.h"
#include "svm/linear_svm.h"

namespace {

using namespace distinct;
using namespace distinct::bench;

/// Shared fixture: one generated dataset with graphs, built once.
struct Fixture {
  DblpDataset dataset;
  std::unique_ptr<SchemaGraph> schema;
  std::unique_ptr<LinkGraph> link;
  std::unique_ptr<PropagationEngine> engine;
  std::vector<JoinPath> paths;
  std::vector<int32_t> refs;  // the Wei Wang references

  Fixture() : dataset(MustGenerate(StandardGeneratorConfig(kDefaultSeed))) {
    auto graph = SchemaGraph::Build(dataset.db);
    schema = std::make_unique<SchemaGraph>(*std::move(graph));
    for (const auto& [table, column] : DblpDefaultPromotions()) {
      Status s = schema->PromoteAttribute(table, column);
      (void)s;
    }
    auto link_or = LinkGraph::Build(*schema);
    link = std::make_unique<LinkGraph>(*std::move(link_or));
    engine = std::make_unique<PropagationEngine>(*link);

    auto resolved =
        ResolveReferenceSpec(dataset.db, DblpReferenceSpec());
    PathEnumerationOptions options;
    options.max_length = 4;
    paths = EnumerateJoinPaths(*schema, resolved->reference_table_id,
                               options);
    for (const AmbiguousCase& c : dataset.cases) {
      if (c.name == "Wei Wang") {
        refs = c.publish_rows;
      }
    }
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_Propagation(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const JoinPath& path = fixture.paths[static_cast<size_t>(state.range(0))];
  // Pinned to the depth-first reference engine; the default algorithm is
  // benchmarked separately below.
  PropagationOptions options;
  options.algorithm = PropagationAlgorithm::kDepthFirst;
  size_t i = 0;
  for (auto _ : state) {
    const int32_t ref = fixture.refs[i++ % fixture.refs.size()];
    benchmark::DoNotOptimize(fixture.engine->Compute(path, ref, options));
  }
  state.SetLabel(path.Describe(*fixture.schema));
}
BENCHMARK(BM_Propagation)->Arg(0)->Arg(2)->Arg(6)->Arg(17);

void BM_PropagationWorkspace(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const JoinPath& path = fixture.paths[static_cast<size_t>(state.range(0))];
  PropagationOptions options;
  options.algorithm = PropagationAlgorithm::kWorkspace;
  PropagationWorkspace workspace(fixture.engine->link());
  size_t i = 0;
  for (auto _ : state) {
    const int32_t ref = fixture.refs[i++ % fixture.refs.size()];
    benchmark::DoNotOptimize(
        fixture.engine->Compute(path, ref, options, workspace));
  }
  state.SetLabel(path.Describe(*fixture.schema));
}
BENCHMARK(BM_PropagationWorkspace)->Arg(0)->Arg(2)->Arg(6)->Arg(17);

void BM_PropagationLevelWise(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const JoinPath& path = fixture.paths[static_cast<size_t>(state.range(0))];
  PropagationOptions options;
  options.algorithm = PropagationAlgorithm::kLevelWise;
  size_t i = 0;
  for (auto _ : state) {
    const int32_t ref = fixture.refs[i++ % fixture.refs.size()];
    benchmark::DoNotOptimize(fixture.engine->Compute(path, ref, options));
  }
  state.SetLabel(path.Describe(*fixture.schema));
}
BENCHMARK(BM_PropagationLevelWise)->Arg(0)->Arg(2)->Arg(6)->Arg(17);

void BM_SetResemblance(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  // Longest path = richest profiles.
  const JoinPath& path = fixture.paths.back();
  const NeighborProfile a = fixture.engine->Compute(path, fixture.refs[0]);
  const NeighborProfile b = fixture.engine->Compute(path, fixture.refs[1]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SetResemblance(a, b));
  }
  state.counters["profile_a"] = static_cast<double>(a.size());
  state.counters["profile_b"] = static_cast<double>(b.size());
}
BENCHMARK(BM_SetResemblance);

void BM_WalkProbability(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const JoinPath& path = fixture.paths.back();
  const NeighborProfile a = fixture.engine->Compute(path, fixture.refs[0]);
  const NeighborProfile b = fixture.engine->Compute(path, fixture.refs[1]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymmetricWalkProbability(a, b));
  }
}
BENCHMARK(BM_WalkProbability);

void BM_SvmTrain(benchmark::State& state) {
  // Synthetic separable-with-noise problem, paper-sized (2000 x 18).
  const size_t n = 2000;
  const size_t dim = 18;
  Rng rng(7);
  SvmProblem problem;
  for (size_t i = 0; i < n; ++i) {
    const int label = (i % 2 == 0) ? 1 : -1;
    std::vector<double> x(dim);
    for (size_t f = 0; f < dim; ++f) {
      x[f] = rng.UniformDouble() * 0.2 +
             (label > 0 && f < 4 ? 0.5 : 0.0);
    }
    problem.x.push_back(std::move(x));
    problem.y.push_back(label);
  }
  SvmParams params;
  params.max_epochs = 200;
  for (auto _ : state) {
    auto model = TrainLinearSvm(problem, params);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_SvmTrain);

void BM_Clustering(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  PairMatrix resem(n);
  PairMatrix walk(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const bool same = (i % 8) == (j % 8);
      resem.set(i, j, same ? 0.4 : 0.02 * rng.UniformDouble());
      walk.set(i, j, same ? 1e-3 : 2e-5 * rng.UniformDouble());
    }
  }
  AgglomerativeOptions options;
  options.min_sim = 1e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClusterReferences(resem, walk, options));
  }
}
BENCHMARK(BM_Clustering)->Arg(50)->Arg(150)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
