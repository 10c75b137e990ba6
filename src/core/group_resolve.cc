#include "core/group_resolve.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "obs/trace.h"

namespace distinct {

PropagationCaches::PropagationCaches(const LinkGraph& link,
                                     const PropagationOptions& options,
                                     size_t memo_bytes)
    : link_(&link) {
  if (UsedBy(options)) {
    memo_ = std::make_unique<SubtreeCache>(memo_bytes);
    workspaces_ = std::make_unique<WorkspacePool>(link);
  }
}

bool PropagationCaches::UsedBy(const PropagationOptions& options) {
  return options.algorithm == PropagationAlgorithm::kWorkspace;
}

void PropagationCaches::RenewWorkspaces() {
  if (workspaces_ != nullptr) {
    workspaces_ = std::make_unique<WorkspacePool>(*link_);
  }
}

GroupResolver::GroupResolver(const PropagationEngine& engine,
                             const std::vector<JoinPath>& paths,
                             const PropagationOptions& propagation,
                             const SimilarityModel& model,
                             const PairKernelOptions& kernel,
                             std::optional<AgglomerativeOptions> cluster)
    : engine_(&engine),
      paths_(&paths),
      propagation_(&propagation),
      model_(&model),
      kernel_(kernel),
      cluster_(std::move(cluster)) {}

StatusOr<GroupArtifacts> GroupResolver::Resolve(
    const std::vector<int32_t>& refs, const WarmState& warm,
    std::optional<GroupSplice> splice) const {
  // Row ids index the propagation's dense per-node arrays unchecked, so a
  // bad one is rejected here, before any read.
  const int64_t universe =
      paths_->empty() ? 0
                      : engine_->link().NumTuples(paths_->front().start_node);
  for (const int32_t ref : refs) {
    if (!paths_->empty() && (ref < 0 || ref >= universe)) {
      return InvalidArgumentError(
          StrFormat("out-of-range reference %d (universe %lld)", ref,
                    static_cast<long long>(universe)));
    }
  }
  if (warm.cancel != nullptr && warm.cancel->CheckAbort()) {
    return DeadlineExceededError("deadline expired before compute");
  }
  PairKernelOptions kernel = kernel_;
  kernel.cancel = warm.cancel;

  // Splice bookkeeping: the cached positions whose profiles the delta may
  // have changed (with their path masks), and a dirty flag per position.
  // The appended suffix is dirty by definition — it has no cached state.
  size_t old_n = 0;
  std::vector<size_t> positions;
  std::vector<uint64_t> path_masks;
  std::vector<char> dirty;
  if (splice.has_value()) {
    const std::vector<int32_t>& old_refs = splice->cached.store.refs();
    old_n = old_refs.size();
    if (old_n > refs.size() ||
        !std::equal(old_refs.begin(), old_refs.end(), refs.begin())) {
      return InvalidArgumentError(
          "cached artifacts do not cover a prefix of the references — "
          "append-only deltas keep existing references in place");
    }
    const std::vector<int32_t>& dirty_refs = splice->dirty_refs;
    const bool have_masks =
        splice->dirty_ref_path_masks.size() == dirty_refs.size();
    dirty.assign(refs.size(), 1);
    for (size_t i = 0; i < old_n; ++i) {
      const auto it =
          std::lower_bound(dirty_refs.begin(), dirty_refs.end(), refs[i]);
      dirty[i] = it != dirty_refs.end() && *it == refs[i];
      if (!dirty[i]) {
        continue;
      }
      positions.push_back(i);
      if (have_masks) {
        path_masks.push_back(splice->dirty_ref_path_masks[static_cast<size_t>(
            it - dirty_refs.begin())]);
      }
    }
  }

  // Phase 1: one propagation per (reference, path), fanned out over the
  // pool; every worker shares the memo and the workspaces.
  std::optional<ProfileStore> fresh;
  {
    obs::ScopedSpan span("profile_store", warm.stage_spans);
    if (splice.has_value()) {
      splice->cached.store.Update(
          *engine_, *paths_, *propagation_, positions,
          std::vector<int32_t>(refs.begin() + static_cast<ptrdiff_t>(old_n),
                               refs.end()),
          warm.pool, ProfileStore::kMinParallelRefs, warm.memo,
          warm.workspaces, path_masks.empty() ? nullptr : &path_masks);
    } else {
      fresh.emplace(ProfileStore::Build(
          *engine_, *paths_, *propagation_, refs, warm.pool,
          ProfileStore::kMinParallelRefs, warm.memo, warm.workspaces));
    }
  }
  ProfileStore& store = splice.has_value() ? splice->cached.store : *fresh;

  // Phase 2: flatten the arena (or re-flatten only its dirty slices), then
  // fill (or splice) the tiled lower triangle of both matrices.
  std::optional<ProfileArena> fresh_arena;
  std::pair<PairMatrix, PairMatrix> matrices = [&] {
    obs::ScopedSpan span("pair_matrix", warm.stage_spans);
    if (splice.has_value()) {
      {
        obs::ScopedSpan patch("arena_patch", warm.stage_spans);
        splice->cached.arena.PatchFromStore(store, positions);
      }
      return UpdatePairMatrices(store, splice->cached.arena, *model_, dirty,
                                splice->cached.resem, splice->cached.walk,
                                warm.pool, kernel);
    }
    fresh_arena.emplace(ProfileArena::FromStore(store));
    return ComputePairMatrices(store, *fresh_arena, *model_, warm.pool,
                               kernel);
  }();
  if (warm.cancel != nullptr && warm.cancel->aborted()) {
    // The fill stopped at a tile/row boundary: the matrices are partial.
    return DeadlineExceededError("deadline expired in pair kernel");
  }

  ClusteringResult clustering;
  if (cluster_.has_value()) {
    obs::ScopedSpan span("cluster", warm.stage_spans);
    clustering = ClusterReferences(matrices.first, matrices.second, *cluster_);
  }
  ProfileArena& arena =
      splice.has_value() ? splice->cached.arena : *fresh_arena;
  return GroupArtifacts{std::move(store), std::move(arena),
                        std::move(matrices.first), std::move(matrices.second),
                        std::move(clustering)};
}

}  // namespace distinct
