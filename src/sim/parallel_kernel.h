// Phase 2 of the parallel intra-name similarity kernel: fill the
// model-combined resemblance and walk PairMatrix over the strict lower
// triangle from a ProfileStore.
//
// The triangle is cut into square tiles and the tiles are enumerated in a
// fixed order (tile t covers block row t_i, block column t_j <= t_i), so
// every (i, j) slot belongs to exactly one tile — the fill is race-free by
// construction. Each cell depends only on the two profiles and the model,
// never on neighbouring cells or on scheduling, so the parallel result is
// bit-identical to the serial loop at any thread count.
//
// Two kernels fill the cells (fused_kernel.h documents the fused one):
//  - kFused (default): flattens the store into a ProfileArena, builds one
//    PathMask per cell — the live paths (nonzero resemblance or walk
//    weight) on which the pair shares a tuple — and runs one merge-join
//    per set bit, in path order. Every slice it leaves out would add only
//    signed zeros, so cells with an empty mask stay at the 0.0 init and
//    the rest come out bit-identical to the reference kernel. Optionally
//    prunes candidates whose mass-bound similarity upper bound falls below
//    `prune_min_sim`.
//
// Fill counters are tallied per tile, never per cell: sim.candidate_pairs
// (cells with at least one live-path overlap, full fills only),
// sim.pairs_pruned, sim.path_joins (merge-joins run) and
// sim.path_joins_skipped (visited cells × join paths − joins), so a run
// report shows the share of (pair, path) slices the masks skipped.
//  - kReference: three sorted merges per (pair, path) over the
//    array-of-structs profiles — the exactness baseline.

#ifndef DISTINCT_SIM_PARALLEL_KERNEL_H_
#define DISTINCT_SIM_PARALLEL_KERNEL_H_

#include <utility>

#include "cluster/agglomerative.h"
#include "cluster/pair_matrix.h"
#include "common/cancel.h"
#include "common/thread_pool.h"
#include "sim/fused_kernel.h"
#include "sim/intersect.h"
#include "sim/profile_store.h"
#include "sim/similarity_model.h"

namespace distinct {

/// Which pair kernel fills the matrices.
enum class PairKernelType {
  kFused,      // arena + single merge-join + candidate skipping
  kReference,  // three-pass merges over NeighborProfile vectors
};

struct PairKernelOptions {
  /// Side length of the square tiles the lower triangle is cut into. One
  /// tile is one task: big enough to amortize scheduling, small enough
  /// that a mega-name yields many more tiles than threads.
  int tile_size = 64;
  /// Below this many references the fill runs inline even when a pool is
  /// supplied.
  int min_parallel_refs = 32;
  PairKernelType kernel = PairKernelType::kFused;
  /// Merge-join variant for the fused kernel (sim/intersect.h). Resolved
  /// once per fill — kAuto picks the best the host supports. Every ISA is
  /// bit-identical, so this is purely a speed knob.
  KernelIsa isa = KernelIsa::kAuto;
  /// Grouped-vs-bitset marking thresholds for CandidateSet::Build (kFused
  /// only).
  CandidateBuildOptions candidates;
  /// Mass-bound candidate pruning (kFused only): skip candidate pairs whose
  /// combined-similarity upper bound is below `prune_min_sim`, leaving
  /// their cells 0.0. Heuristic — pruned cells lose their (sub-floor) true
  /// values — so exactness tests and threshold sweeps must keep it off.
  bool pruning = false;
  double prune_min_sim = 0.0;
  /// Shape of the combined-similarity bound; must mirror the clusterer
  /// options the matrices will be consumed with.
  ClusterMeasure measure = ClusterMeasure::kComposite;
  CombineRule combine = CombineRule::kGeometricMean;
  /// Cooperative cancellation, checked per row on the serial path and per
  /// tile on the parallel one (never per cell — the hot loop stays
  /// branch-identical between a null and a live-but-unfired token). When
  /// the token fires mid-fill the remaining rows/tiles are skipped and
  /// `cancel->aborted()` reads true; the half-filled matrices must then be
  /// discarded. A null or never-fired token leaves results bit-identical.
  const CancelToken* cancel = nullptr;
};

/// Computes (resemblance, walk) matrices for the store's references. With a
/// non-null `pool`, tiles are filled in parallel; safe to call from inside
/// a pool task (nested parallelism via ParallelForShared).
std::pair<PairMatrix, PairMatrix> ComputePairMatrices(
    const ProfileStore& store, const SimilarityModel& model,
    ThreadPool* pool = nullptr, const PairKernelOptions& options = {});

class ProfileArena;

/// As above, with a caller-supplied arena over the same store (the fused
/// kernel skips its internal flatten). Callers that keep artifacts
/// resident build the arena once and patch it across deltas.
std::pair<PairMatrix, PairMatrix> ComputePairMatrices(
    const ProfileStore& store, const ProfileArena& arena,
    const SimilarityModel& model, ThreadPool* pool = nullptr,
    const PairKernelOptions& options = {});

/// Patches cached matrices after a database delta instead of refilling
/// the whole triangle. `store` is the spliced-updated store (see
/// ProfileStore::Update) and `arena` its flattened counterpart (FromStore
/// or PatchFromStore — callers that cache artifacts patch instead of
/// re-flattening); `dirty[i]` marks the positions whose profiles were
/// recomputed — appended references (positions >= old_resem.size()) must
/// all be marked. Cells whose endpoints are both clean are copied from
/// the old matrices (their profiles are unchanged and a cell depends only
/// on its two profiles and the model); cells with a dirty endpoint are
/// recomputed by the same per-cell kernel as ComputePairMatrices. The
/// result is bit-identical to a full ComputePairMatrices over `store`,
/// for both kernels, with or without the mass-bound prune.
std::pair<PairMatrix, PairMatrix> UpdatePairMatrices(
    const ProfileStore& store, const ProfileArena& arena,
    const SimilarityModel& model, const std::vector<char>& dirty,
    const PairMatrix& old_resem, const PairMatrix& old_walk,
    ThreadPool* pool = nullptr, const PairKernelOptions& options = {});

}  // namespace distinct

#endif  // DISTINCT_SIM_PARALLEL_KERNEL_H_
