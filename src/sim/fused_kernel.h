// Fused sparse pair kernel: one merge-join per (pair, path) instead of
// three, plus inverted-index candidate generation and an optional
// mass-bound prune.
//
// The reference pair phase runs three independent sorted merges per
// (pair, path): SetResemblance (§2.3) and both WalkProbability directions
// (§2.4). All three walk the same two sorted tuple sequences, so one pass
// with separate accumulators — advanced in the identical visit order —
// produces bit-identical values while touching each entry once.
//
// Candidate generation exploits the sparsity blocking systems rely on, per
// join path: a (pair, path) slice pair that shares no neighbor tuple has
// resemblance numerator 0 and no walk matches, so both of its features are
// exactly 0.0, and a path whose resemblance and walk weights are both
// exactly 0.0 (a *dead* path) adds only signed zeros whatever its features.
// Either way the slice's weighted terms are signed zeros, and the fill's
// sums start at +0.0, where x + ±0.0 == x bit for bit (+0.0 + −0.0 is
// +0.0). Per-path inverted indexes tuple -> references mark, for every
// pair, the live paths on which it shares a tuple (a PathMask per cell);
// the fill joins exactly those (pair, path) slices, in path order, and
// leaves a pair with an empty mask at the 0.0 init — bit-identical to
// joining every path, at work proportional to actual per-path overlap.
//
// The mass-bound prune (optional, heuristic) upper-bounds a candidate
// pair's combined similarity from per-profile aggregates alone:
//   Resem_P <= min(m1, m2) / max(m1, m2)         (m = Σ forward)
//   Walk_P(a->b) <= min(mass_a · rmax_b, fmax_a · rsum_b)
// and skips pairs whose combined bound falls below the clusterer's merge
// floor — such a pair can never trigger a singleton merge (merges require
// sim >= min_sim). Zeroing it does perturb Average-Link cluster sums by
// values below the floor, which can shift merges whose cluster-pair
// average sits near min_sim — so the prune is an opt-in approximation,
// never armed by default. DESIGN.md §11 derives the bound, the singleton
// exactness argument, and the counterexample that keeps it opt-in.

#ifndef DISTINCT_SIM_FUSED_KERNEL_H_
#define DISTINCT_SIM_FUSED_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/agglomerative.h"
#include "obs/memory.h"
#include "sim/feature_vector.h"
#include "sim/intersect.h"
#include "sim/profile_arena.h"
#include "sim/similarity_model.h"

namespace distinct {

// The merge-join itself (FusedPathFeatures, FusedMergeJoin and its
// gallop/AVX2 siblings, KernelIsa dispatch) lives in sim/intersect.h;
// this header keeps the candidate set and the mass-bound prune.

/// All-path features of pair (i, j) — the fused drop-in for
/// ProfileStore::Features / ComputePairFeatures (testing seam). `isa`
/// picks the merge-join variant; every ISA returns bit-identical values.
PairFeatures FusedFeatures(const ProfileArena& arena, size_t i, size_t j,
                           KernelIsa isa = KernelIsa::kScalar);

/// How CandidateSet::Build marks the pairs of one path: pairwise within
/// tuple groups (cost ~ shared-tuple incidences — right for sparse
/// overlap), or bitset rows with word-parallel OR (cost ~ entries·n/64 +
/// n²/64 — right for dense names, where hub tuples make the per-group
/// pairwise marking quadratic). Both produce the identical masks; the
/// thresholds only pick which machine fills them.
struct CandidateBuildOptions {
  /// Bitset rows need at least this many references before the word ops
  /// amortize (below it the triangle fits in a handful of words anyway).
  int bitset_min_refs = 64;
  /// Cost-model bias: the grouped marking costs ~ the sum of squared
  /// per-tuple posting counts (pairs within each group), the bitset path
  /// ~ (entries + n) · n/128 word operations — both computable from the
  /// counting pass's histogram before committing to either. The bitset
  /// path is taken when grouped-cost > bitset_cost_factor · bitset-cost;
  /// values above 1.0 bias toward the grouped marking, <= 0 forces the
  /// bitset path wherever bitset_min_refs and the scratch cap allow
  /// (differential tests and the bench pin both machines this way).
  double bitset_cost_factor = 1.0;
  /// Hard cap on the tuple->references bitmap scratch (words); a path
  /// whose distinct-tuple count would blow past it falls back to the
  /// grouped marking regardless of the cost model.
  size_t bitset_max_scratch_words = size_t{1} << 23;  // 64 MiB
};

/// One cell's live-path overlap: bit b set iff the pair shares a tuple on
/// the path that bit stands for (CandidateSet::live_paths()).
using PathMask = uint32_t;

/// The paths a fill must join under `model`, ascending: those whose
/// resemblance or walk weight is not exactly 0.0. A dead path contributes
/// `0.0 · feature`, a signed zero, to sums that start at +0.0 — skipping it
/// changes no bit.
std::vector<uint32_t> LivePaths(const SimilarityModel& model);

/// The overlap-sparse candidate set: one PathMask per strict-lower-triangle
/// cell, marking the live paths on which references i and j share at least
/// one neighbor tuple. Bit b < kOverflowBit stands for live_paths()[b]; the
/// top bit stands for every live path from live_paths()[kOverflowBit] on,
/// so an arena with more live paths than the word holds still marks
/// exactly — the fill joins that tail together whenever any of it
/// overlaps, and a tail path with no shared tuple joins to exact zeros.
/// Built from per-path inverted indexes (tuple -> references); cost is
/// proportional to the number of (pair, shared tuple) incidences for
/// sparse paths, or word-parallel for dense ones (CandidateBuildOptions).
/// The masks are held against the kCandidateMask memory gauge.
class CandidateSet {
 public:
  static constexpr unsigned kOverflowBit = 31;

  static CandidateSet Build(const ProfileArena& arena,
                            std::vector<uint32_t> live_paths,
                            const CandidateBuildOptions& options = {});

  /// Masks restricted to cells with at least one endpoint marked in
  /// `dirty` (size num_refs). Exactly Build()'s masks on those cells;
  /// clean-clean cells stay 0. Per tuple group the marking costs
  /// O(dirty_members x members) instead of O(members^2), which is what
  /// makes candidate skipping affordable for the partial refill after a
  /// delta (UpdatePairMatrices) — a full Build over a mega-name costs more
  /// than the joins it saves when only a few rows changed.
  static CandidateSet BuildPartial(const ProfileArena& arena,
                                   std::vector<uint32_t> live_paths,
                                   const std::vector<char>& dirty);

  /// The live paths the cell (i, j), i > j, shares a tuple on.
  PathMask mask(size_t i, size_t j) const {
    return masks_[i * (i - 1) / 2 + j];
  }

  /// Path index of each mask bit below kOverflowBit, and of the overflow
  /// tail after it (ascending).
  const std::vector<uint32_t>& live_paths() const { return live_paths_; }
  size_t num_refs() const { return num_refs_; }
  /// Cells with a non-empty mask out of n(n-1)/2 (a full pass; not for hot
  /// loops).
  int64_t count() const;
  /// Bytes a full Build holds for `n` references.
  static int64_t MaskBytes(int64_t n) {
    return n < 2 ? 0
                 : n * (n - 1) / 2 * static_cast<int64_t>(sizeof(PathMask));
  }

 private:
  CandidateSet(size_t n, std::vector<uint32_t> live_paths);

  size_t num_refs_ = 0;
  std::vector<uint32_t> live_paths_;
  std::vector<PathMask> masks_;
  obs::TrackedBytes tracked_;  // kCandidateMask gauge (obs/memory.h)
};

/// What the mass-bound prune needs to shape the combined-similarity upper
/// bound like the clusterer's singleton similarity.
struct PrunePolicy {
  double min_sim = 0.0;  // the clusterer's merge floor
  ClusterMeasure measure = ClusterMeasure::kComposite;
  CombineRule combine = CombineRule::kGeometricMean;
};

/// Upper bound on the clusterer's singleton-pair similarity of (i, j)
/// under `policy`, computed from per-profile aggregates only (no entry
/// scan). Negative model weights contribute nothing to the bound (their
/// terms are <= 0 in the true similarity).
double PairSimilarityUpperBound(const ProfileArena& arena,
                                const SimilarityModel& model,
                                const PrunePolicy& policy, size_t i,
                                size_t j);

}  // namespace distinct

#endif  // DISTINCT_SIM_FUSED_KERNEL_H_
