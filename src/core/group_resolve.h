// One name group resolved end to end — the paper's online phase (§2–§3)
// as the single unit of work behind Distinct::ResolveRefs and friends, the
// sharded scan's workers, the resident server and the incremental catalog.
// Callers differ only in the warm state they hand in; warm state never
// changes a result (workspaces are epoch-reset on reuse), so every caller
// gets bit-identical clusterings. DESIGN.md §6 has the caller table.

#ifndef DISTINCT_CORE_GROUP_RESOLVE_H_
#define DISTINCT_CORE_GROUP_RESOLVE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/agglomerative.h"
#include "cluster/pair_matrix.h"
#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "prop/propagation.h"
#include "prop/workspace.h"
#include "relational/join_path.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_arena.h"
#include "sim/profile_store.h"
#include "sim/similarity_model.h"

namespace distinct {

/// The warm state of one caller, borrowed for a resolve. Null members mean
/// fresh workspaces, the calling thread only, and no deadline.
struct WarmState {
  WorkspacePool* workspaces = nullptr;
  ThreadPool* pool = nullptr;
  /// A fired token makes the resolve return DeadlineExceeded and drop its
  /// partial matrices.
  const CancelToken* cancel = nullptr;
  /// Record the profile_store → pair_matrix → cluster spans: only for calls
  /// on the thread that owns the span tree, so pool workers record none
  /// and the tree does not depend on the thread count.
  bool stage_spans = false;
};

/// Owns the workspace pool of the workspace propagation engine; it stays
/// null under the engines that use none. A caller keeps one for as long as
/// its dense scratch should be recycled across resolves.
class PropagationCaches {
 public:
  PropagationCaches() = default;
  PropagationCaches(const LinkGraph& link, const PropagationOptions& options);

  /// Whether `options` select the engine that uses workspaces.
  static bool UsedBy(const PropagationOptions& options);

  WarmState Warm(ThreadPool* pool) const {
    return WarmState{workspaces_.get(), pool};
  }

  /// Replaces the workspace pool after the link graph grew: pooled
  /// workspaces size their dense slabs at first acquire and never grow.
  void RenewWorkspaces();

 private:
  const LinkGraph* link_ = nullptr;
  std::unique_ptr<WorkspacePool> workspaces_;
};

/// Everything a resolve computes, kept so a later delta can be spliced in:
/// the profile store, its flattened arena, both pair matrices and the
/// clustering. The store and arena are the resident cost (~2x 24 bytes per
/// profile entry); the matrices are O(refs²) doubles.
struct GroupArtifacts {
  ProfileStore store;
  ProfileArena arena;
  PairMatrix resem;
  PairMatrix walk;
  ClusteringResult clustering;  // empty when the resolver does not cluster
};

/// A delta resolve's input: artifacts over a prefix of the new reference
/// list, the delta's sorted dirty rows (DeltaReport::dirty_refs) and their
/// per-path masks (DeltaReport::dirty_ref_path_masks; empty = all paths).
struct GroupSplice {
  GroupArtifacts cached;
  const std::vector<int32_t>& dirty_refs;
  const std::vector<uint64_t>& dirty_ref_path_masks;
};

/// The unit of work. It borrows the engine state it is built from
/// (Distinct::resolver()), so build it right before use: it does not
/// survive a move of that engine.
class GroupResolver {
 public:
  /// Without `cluster` the resolve stops at the matrices.
  GroupResolver(const PropagationEngine& engine,
                const std::vector<JoinPath>& paths,
                const PropagationOptions& propagation,
                const SimilarityModel& model, const PairKernelOptions& kernel,
                std::optional<AgglomerativeOptions> cluster);

  /// Checks the row ids of `refs`, builds their profiles and arena, fills
  /// both pair matrices and clusters them. With `splice`, only the dirty
  /// and appended references' profiles and the matrix cells with a dirty
  /// endpoint are recomputed — bit-identical to resolving from scratch.
  /// InvalidArgument for a row outside the reference table or a splice
  /// that does not cover a prefix of `refs`; DeadlineExceeded when
  /// `warm.cancel` fired.
  StatusOr<GroupArtifacts> Resolve(
      const std::vector<int32_t>& refs, const WarmState& warm,
      std::optional<GroupSplice> splice = std::nullopt) const;

 private:
  const PropagationEngine* engine_;
  const std::vector<JoinPath>* paths_;
  const PropagationOptions* propagation_;
  const SimilarityModel* model_;
  PairKernelOptions kernel_;
  std::optional<AgglomerativeOptions> cluster_;
};

}  // namespace distinct

#endif  // DISTINCT_CORE_GROUP_RESOLVE_H_
