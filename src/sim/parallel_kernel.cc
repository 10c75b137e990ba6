#include "sim/parallel_kernel.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "sim/fused_kernel.h"
#include "sim/profile_arena.h"

namespace distinct {

namespace {

/// What one tile (or one serial fill) of the fused kernel did, tallied in
/// locals and published as counters once per tile — never per cell, so
/// the hot loop never touches a shared counter.
struct FillTally {
  int64_t cells = 0;       // cells visited (the dirty ones, for a refill)
  int64_t candidates = 0;  // visited cells with a live-path overlap
  int64_t pruned = 0;      // candidates the mass-bound prune dropped
  int64_t joins = 0;       // (pair, path) merge-joins run
};

/// Runs `fill_cell(i, j, &tally)` over every strict-lower-triangle cell —
/// serially, or tiled over the pool — in an order-independent way, and
/// hands each tile's tally to `publish` once the tile is done.
template <typename FillCell, typename Publish>
void ForEachCell(size_t n, ThreadPool* pool, const PairKernelOptions& options,
                 const FillCell& fill_cell, const Publish& publish) {
  const CancelToken* cancel = options.cancel;
  if (pool == nullptr ||
      n < static_cast<size_t>(std::max(options.min_parallel_refs, 0))) {
    FillTally tally;
    for (size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->CheckAbort()) {
        break;
      }
      for (size_t j = 0; j < i; ++j) {
        fill_cell(i, j, &tally);
      }
    }
    publish(tally);
    return;
  }

  const size_t tile = static_cast<size_t>(std::max(options.tile_size, 1));
  const size_t blocks = (n + tile - 1) / tile;
  std::vector<std::pair<uint32_t, uint32_t>> tiles;
  tiles.reserve(blocks * (blocks + 1) / 2);
  for (size_t bi = 0; bi < blocks; ++bi) {
    for (size_t bj = 0; bj <= bi; ++bj) {
      tiles.emplace_back(static_cast<uint32_t>(bi),
                         static_cast<uint32_t>(bj));
    }
  }
  ParallelForShared(*pool, static_cast<int64_t>(tiles.size()),
                    [&](int64_t t) {
                      if (cancel != nullptr && cancel->CheckAbort()) {
                        return;
                      }
                      const auto [bi, bj] = tiles[static_cast<size_t>(t)];
                      const size_t i_end = std::min(n, (bi + 1) * tile);
                      const size_t j_begin = bj * tile;
                      FillTally tally;
                      for (size_t i = bi * tile; i < i_end; ++i) {
                        const size_t j_end =
                            std::min<size_t>((bj + 1) * tile, i);
                        for (size_t j = j_begin; j < j_end; ++j) {
                          fill_cell(i, j, &tally);
                        }
                      }
                      DISTINCT_COUNTER_ADD("sim.tiles_filled", 1);
                      publish(tally);
                    });
}

/// When `recompute` is non-null, only cells with at least one endpoint
/// marked in it are (re)filled; the caller has copied every clean-pair
/// cell verbatim (UpdatePairMatrices). Each cell depends only on its two
/// profiles and the model, so the partial fill is bit-identical to a full
/// one on the marked cells.
void FillReference(const ProfileStore& store, const SimilarityModel& model,
                   ThreadPool* pool, const PairKernelOptions& options,
                   PairMatrix* resem, PairMatrix* walk,
                   const std::vector<char>* recompute = nullptr) {
  ForEachCell(
      store.num_refs(), pool, options,
      [&](size_t i, size_t j, FillTally* /*tally*/) {
        if (recompute != nullptr && !((*recompute)[i] | (*recompute)[j])) {
          return;
        }
        const PairFeatures features = store.Features(i, j);
        resem->set(i, j, model.Resemblance(features));
        walk->set(i, j, model.Walk(features));
      },
      [](const FillTally& /*tally*/) {});
}

void FillFused(const ProfileStore& store, const ProfileArena& arena,
               const SimilarityModel& model, ThreadPool* pool,
               const PairKernelOptions& options, PairMatrix* resem,
               PairMatrix* walk,
               const std::vector<char>* recompute = nullptr) {
  Stopwatch kernel_watch;
  // A full fill builds the complete per-path overlap masks; the partial
  // fill builds the dirty-restricted ones — full Build costs O(members^2)
  // per tuple group, which on a mega-name outweighs the joins a few dirty
  // rows save. Either way the masks hold only live paths (a nonzero
  // resemblance or walk weight), and a (pair, path) slice left out of a
  // mask shares no tuple or weighs exactly 0.0: its join would add only
  // signed zeros to sums that start at +0.0, so joining just the set bits,
  // in ascending path order, leaves every cell bit-identical — and a cell
  // with an empty mask keeps the 0.0 init, which max(0, 0) would write.
  // No trace span here: FillFused runs inside parallel-scan worker
  // lambdas, which must record only commutative counters (scan.cc pins
  // "one span per bulk run" at any thread count).
  const bool full_fill = recompute == nullptr;
  const CandidateSet candidates =
      full_fill
          ? CandidateSet::Build(arena, LivePaths(model), options.candidates)
          : CandidateSet::BuildPartial(arena, LivePaths(model), *recompute);
  const bool prune = options.pruning && options.prune_min_sim > 0.0;
  const PrunePolicy policy{options.prune_min_sim, options.measure,
                           options.combine};
  // Weighted per-path accumulation in path order — the same floating-point
  // op sequence as SimilarityModel::Resemblance/Walk over a PairFeatures
  // vector, minus the exact-zero terms, without materializing one per
  // pair. The merge-join variant is resolved once per fill, never per
  // cell.
  const KernelIsa isa = ResolveKernelIsa(options.isa);
  const std::vector<double>& resem_weights = model.resem_weights();
  const std::vector<double>& walk_weights = model.walk_weights();
  const std::vector<uint32_t>& live = candidates.live_paths();
  constexpr unsigned kOverflow = CandidateSet::kOverflowBit;
  constexpr PathMask kDirectBits = (PathMask{1} << kOverflow) - 1;
  // Live paths past the mask word share the overflow bit; an overlap on
  // any of them joins the whole tail in path order.
  const size_t tail_begin = std::min<size_t>(live.size(), kOverflow);
  const auto tail_joins = static_cast<int64_t>(live.size() - tail_begin);
  const auto num_paths = static_cast<int64_t>(arena.num_paths());
  const size_t n = store.num_refs();

  const auto publish = [&](const FillTally& tally) {
    if (full_fill) {
      DISTINCT_COUNTER_ADD("sim.candidate_pairs", tally.candidates);
    }
    if (tally.pruned > 0) {
      DISTINCT_COUNTER_ADD("sim.pairs_pruned", tally.pruned);
    }
    DISTINCT_COUNTER_ADD("sim.path_joins", tally.joins);
    DISTINCT_COUNTER_ADD("sim.path_joins_skipped",
                         tally.cells * num_paths - tally.joins);
  };

  // Generic over the join callable so the scalar instantiation inlines
  // FusedMergeJoin (header-inline) straight into the cell loop — the
  // innermost call of the whole fill — while gallop/AVX2 instantiations
  // pay one direct call per (pair, path).
  const auto run_cells = [&](auto join) {
    ForEachCell(
        n, pool, options,
        [&, join](size_t i, size_t j, FillTally* tally) {
          if (recompute != nullptr && !((*recompute)[i] | (*recompute)[j])) {
            return;
          }
          ++tally->cells;
          const PathMask mask = candidates.mask(i, j);
          if (mask == 0) {
            return;
          }
          ++tally->candidates;
          if (prune &&
              PairSimilarityUpperBound(arena, model, policy, i, j) <
                  policy.min_sim) {
            ++tally->pruned;
            return;
          }
          double resem_sim = 0.0;
          double walk_sim = 0.0;
          for (PathMask m = mask & kDirectBits; m != 0; m &= m - 1) {
            const size_t p = live[static_cast<size_t>(std::countr_zero(m))];
            const PathMask rest = m & (m - 1);
            if (rest != 0) {
              // Overlap the next path's slice loads with this join.
              const ProfileArena::Path& next =
                  arena.path(live[static_cast<size_t>(std::countr_zero(rest))]);
              __builtin_prefetch(next.tuples.data() + next.offsets[i]);
              __builtin_prefetch(next.tuples.data() + next.offsets[j]);
            }
            const FusedPathFeatures features = join(arena.path(p), i, j);
            resem_sim += resem_weights[p] * features.resemblance;
            walk_sim += walk_weights[p] * features.walk;
          }
          tally->joins += std::popcount(mask & kDirectBits);
          if ((mask >> kOverflow) != 0) {
            for (size_t k = tail_begin; k < live.size(); ++k) {
              const size_t p = live[k];
              const FusedPathFeatures features = join(arena.path(p), i, j);
              resem_sim += resem_weights[p] * features.resemblance;
              walk_sim += walk_weights[p] * features.walk;
            }
            tally->joins += tail_joins;
          }
          resem->set(i, j, std::max(resem_sim, 0.0));
          walk->set(i, j, std::max(walk_sim, 0.0));
        },
        publish);
  };
  switch (isa) {
    case KernelIsa::kGallop:
      run_cells([](const ProfileArena::Path& path, size_t i, size_t j) {
        return FusedMergeJoinGallop(path, i, j);
      });
      break;
    case KernelIsa::kAvx2:
      run_cells([](const ProfileArena::Path& path, size_t i, size_t j) {
        return FusedMergeJoinAvx2(path, i, j);
      });
      break;
    case KernelIsa::kAuto:  // ResolveKernelIsa never returns kAuto
    case KernelIsa::kScalar:
      run_cells([](const ProfileArena::Path& path, size_t i, size_t j) {
        return FusedMergeJoin(path, i, j);
      });
      break;
  }
  DISTINCT_HISTOGRAM_RECORD("sim.kernel_ns", kernel_watch.ElapsedNanos());
}

}  // namespace

std::pair<PairMatrix, PairMatrix> ComputePairMatrices(
    const ProfileStore& store, const SimilarityModel& model,
    ThreadPool* pool, const PairKernelOptions& options) {
  if (options.kernel == PairKernelType::kFused) {
    return ComputePairMatrices(store, ProfileArena::FromStore(store), model,
                               pool, options);
  }
  // Metrics are aggregated per fill (and per tile above), never per cell,
  // so the instrumented hot loop is byte-for-byte the uninstrumented one.
  Stopwatch watch;
  const size_t n = store.num_refs();
  PairMatrix resem(n);
  PairMatrix walk(n);
  FillReference(store, model, pool, options, &resem, &walk);
  DISTINCT_COUNTER_ADD("sim.matrix_fills", 1);
  DISTINCT_COUNTER_ADD("sim.pairs_computed",
                       static_cast<int64_t>(n < 2 ? 0 : n * (n - 1) / 2));
  DISTINCT_HISTOGRAM_RECORD("sim.pair_matrix_nanos", watch.ElapsedNanos());
  return std::make_pair(std::move(resem), std::move(walk));
}

std::pair<PairMatrix, PairMatrix> ComputePairMatrices(
    const ProfileStore& store, const ProfileArena& arena,
    const SimilarityModel& model, ThreadPool* pool,
    const PairKernelOptions& options) {
  Stopwatch watch;
  const size_t n = store.num_refs();
  PairMatrix resem(n);
  PairMatrix walk(n);
  if (options.kernel == PairKernelType::kFused) {
    FillFused(store, arena, model, pool, options, &resem, &walk);
  } else {
    FillReference(store, model, pool, options, &resem, &walk);
  }
  DISTINCT_COUNTER_ADD("sim.matrix_fills", 1);
  DISTINCT_COUNTER_ADD("sim.pairs_computed",
                       static_cast<int64_t>(n < 2 ? 0 : n * (n - 1) / 2));
  DISTINCT_HISTOGRAM_RECORD("sim.pair_matrix_nanos", watch.ElapsedNanos());
  return std::make_pair(std::move(resem), std::move(walk));
}

std::pair<PairMatrix, PairMatrix> UpdatePairMatrices(
    const ProfileStore& store, const ProfileArena& arena,
    const SimilarityModel& model, const std::vector<char>& dirty,
    const PairMatrix& old_resem, const PairMatrix& old_walk,
    ThreadPool* pool, const PairKernelOptions& options) {
  Stopwatch watch;
  const size_t n = store.num_refs();
  const size_t old_n = old_resem.size();
  PairMatrix resem(n);
  PairMatrix walk(n);

  // Clean-pair cells are carried over verbatim: neither profile changed,
  // and a cell is a pure function of its two profiles and the model.
  // Every other cell starts at the 0.0 init and is recomputed below —
  // copying dirty cells too would leave stale values wherever the fill
  // legitimately skips (a dirty pair whose tuple overlap vanished).
  int64_t copied = 0;
  for (size_t i = 1; i < old_n; ++i) {
    if (dirty[i]) {
      continue;
    }
    for (size_t j = 0; j < i; ++j) {
      if (dirty[j]) {
        continue;
      }
      resem.set(i, j, old_resem.at(i, j));
      walk.set(i, j, old_walk.at(i, j));
      ++copied;
    }
  }

  if (options.kernel == PairKernelType::kFused) {
    FillFused(store, arena, model, pool, options, &resem, &walk, &dirty);
  } else {
    FillReference(store, model, pool, options, &resem, &walk, &dirty);
  }

  DISTINCT_COUNTER_ADD("sim.matrix_updates", 1);
  DISTINCT_COUNTER_ADD("sim.pairs_carried_over", copied);
  DISTINCT_HISTOGRAM_RECORD("sim.pair_matrix_nanos", watch.ElapsedNanos());
  return std::make_pair(std::move(resem), std::move(walk));
}

}  // namespace distinct
