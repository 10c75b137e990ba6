// Dense scratch-space propagation — the PropagationAlgorithm::kWorkspace
// engine.
//
// The DFS and level-wise engines in propagation.cc push every tuple through
// per-level unordered_maps. PropagationWorkspace removes that cost: it owns
// reusable dense slabs — per schema node, forward/reverse/instance-count
// arrays sized by LinkGraph::NumTuples with an epoch stamp per slot.
// "Clearing" a slab for the next level or the next reference is a single
// epoch bump, so the steady-state inner loops are index arithmetic over CSR
// spans with zero allocation or hashing. A workspace belongs to one thread
// at a time and is recycled across references.
//
// Each propagation sweeps the reference-dependent prefix down to the
// path's junction level (SubtreeJunctionLevel), then, per junction tuple in
// ascending order, sweeps the reference-independent suffix below it and
// merges that suffix straight from its slab into the output.
//
// SubtreeCache memoizes those suffix distributions per (path, junction
// tuple). It is a test oracle, not a production mechanism: on real scans
// its hit rate is a few percent and its bookkeeping made propagation
// slower, so no production caller passes one. Tests and benches use it to
// pin that a memo hit, a miss and the memo-less sweep all yield the same
// profile.
//
// Determinism: every sweep iterates frontiers in ascending tuple id and
// merges suffixes in ascending junction-tuple order, and a memo hit returns
// exactly the entries the memo-less sweep merges, so profiles are
// bit-identical regardless of memo capacity, hit/miss pattern, or thread
// count.

#ifndef DISTINCT_PROP_WORKSPACE_H_
#define DISTINCT_PROP_WORKSPACE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "prop/link_graph.h"
#include "prop/profile.h"
#include "relational/join_path.h"

namespace distinct {

struct PropagationOptions;

/// Per-thread dense scratch space for one LinkGraph. Not thread-safe; hand
/// each worker its own (ProfileStore::Build keeps a free-list).
class PropagationWorkspace {
 public:
  /// One epoch-stamped dense distribution over a node's tuple universe:
  /// forward mass, reverse mass, and path-instance count per tuple.
  class Slab {
   public:
    /// Accumulates into `tuple`'s slot, zero-initializing it on first touch
    /// in the current epoch.
    void Add(int32_t tuple, double forward, double reverse, double count) {
      const auto t = static_cast<size_t>(tuple);
      if (stamp_[t] != epoch_) {
        stamp_[t] = epoch_;
        forward_[t] = 0.0;
        reverse_[t] = 0.0;
        count_[t] = 0.0;
        touched_.push_back(tuple);
      }
      forward_[t] += forward;
      reverse_[t] += reverse;
      count_[t] += count;
    }

    double forward(int32_t tuple) const {
      return forward_[static_cast<size_t>(tuple)];
    }
    double reverse(int32_t tuple) const {
      return reverse_[static_cast<size_t>(tuple)];
    }
    double count(int32_t tuple) const {
      return count_[static_cast<size_t>(tuple)];
    }

    /// Tuples touched this epoch, in ascending id after SortTouched().
    const std::vector<int32_t>& touched() const { return touched_; }

    /// Orders the frontier by tuple id — every sweep sorts before iterating
    /// so floating-point accumulation order is reproducible.
    void SortTouched() { std::sort(touched_.begin(), touched_.end()); }

   private:
    friend class PropagationWorkspace;

    void Begin() {
      touched_.clear();
      if (++epoch_ == 0) {  // stamp wrap: old stamps could alias epoch 0
        std::fill(stamp_.begin(), stamp_.end(), 0u);
        epoch_ = 1;
      }
    }

    std::vector<double> forward_;
    std::vector<double> reverse_;
    std::vector<double> count_;
    std::vector<uint32_t> stamp_;
    uint32_t epoch_ = 0;
    std::vector<int32_t> touched_;
    bool in_use_ = false;
  };

  explicit PropagationWorkspace(const LinkGraph& link) : link_(&link) {}

  PropagationWorkspace(PropagationWorkspace&&) = default;
  PropagationWorkspace& operator=(PropagationWorkspace&&) = default;
  PropagationWorkspace(const PropagationWorkspace&) = delete;
  PropagationWorkspace& operator=(const PropagationWorkspace&) = delete;

  const LinkGraph& link() const { return *link_; }

  /// A fresh (epoch-bumped) slab over `node_id`'s universe. Several slabs
  /// of the same node can be live at once (adjacent levels of a self-loop
  /// path); allocation happens only the first time a node needs an extra
  /// slab, after which slabs are recycled.
  Slab& Acquire(int node_id);

  /// Returns a slab to the free pool. Its contents stay readable until the
  /// next Acquire of the same slab.
  void Release(Slab& slab) { slab.in_use_ = false; }

 private:
  const LinkGraph* link_;
  /// slabs_[node] = every slab ever needed for that node (usually one).
  std::vector<std::vector<std::unique_ptr<Slab>>> slabs_;
};

/// One neighbor of a memoized subtree: suffix-forward and suffix-reverse
/// mass reaching `tuple` from the junction tuple.
struct SubtreeEntry {
  int32_t tuple = -1;
  double forward = 0.0;
  double reverse = 0.0;
};

/// Distribution of one path suffix from one junction tuple.
struct SubtreeDistribution {
  std::vector<SubtreeEntry> entries;  // ascending tuple id
  /// Complete suffix walks (for the instance budget); exact below 2^53.
  double instances = 0.0;

  size_t ByteSize() const {
    return sizeof(SubtreeDistribution) +
           entries.capacity() * sizeof(SubtreeEntry);
  }
};

/// Counters of one SubtreeCache (cumulative since construction).
struct SubtreeCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;  // evicted or rejected-at-insert entries
  int64_t entries = 0;    // currently resident
  int64_t bytes = 0;      // currently resident
};

/// Size-bounded concurrent memo of subtree distributions, keyed by
/// (path id, junction tuple) — the test oracle described above. Sharded:
/// lookups touch one mutex; values are shared_ptrs so an entry being merged
/// from stays alive across eviction. Also feeds the prop.memo_* counters of
/// the global MetricsRegistry.
class SubtreeCache {
 public:
  /// `capacity_bytes` bounds resident entry payload; PropagateDense treats
  /// a capacity-0 memo like none at all.
  explicit SubtreeCache(size_t capacity_bytes);

  /// Releases the resident payload from the kSubtreeCache byte gauge.
  ~SubtreeCache();

  size_t capacity_bytes() const { return capacity_bytes_; }

  /// The memoized distribution, or nullptr on miss.
  std::shared_ptr<const SubtreeDistribution> Find(int path_id, int32_t tuple);

  /// Stores `dist` (evicting FIFO-oldest entries of the shard to fit) and
  /// returns the resident copy — the previously inserted one when another
  /// thread won the race (values are identical by construction).
  std::shared_ptr<const SubtreeDistribution> Insert(int path_id,
                                                    int32_t tuple,
                                                    SubtreeDistribution dist);

  SubtreeCacheStats stats() const;

 private:
  static constexpr size_t kNumShards = 16;

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<uint64_t, std::shared_ptr<const SubtreeDistribution>>
        map;
    std::deque<uint64_t> fifo;  // insertion order, for eviction
    size_t bytes = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  static uint64_t Key(int path_id, int32_t tuple) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(path_id)) << 32) |
           static_cast<uint32_t>(tuple);
  }
  Shard& ShardOf(uint64_t key) {
    // Mix so consecutive tuple ids spread across shards.
    uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return shards_[(h >> 60) & (kNumShards - 1)];
  }

  size_t capacity_bytes_;
  size_t shard_capacity_;
  std::array<Shard, kNumShards> shards_;
};

/// Approximate resident footprint of one fully warmed PropagationWorkspace
/// over `link`: one dense slab per schema node (forward/reverse/count
/// doubles, an epoch stamp, and a touched-list slot per tuple). Paths that
/// revisit a node need an extra slab for it, so treat this as a lower-bound
/// estimate — the sharded scan uses it to decide how many concurrent
/// workspaces a memory budget affords.
size_t ApproxWorkspaceBytes(const LinkGraph& link);

/// Level where `path`'s reference-dependent prefix ends. With origin
/// exclusion, walks can be pruned at every level whose schema node is the
/// start node, so the junction is the deepest such level (the suffix below
/// it is reference-independent); without one — and always when exclusion is
/// off — it is level 1. Equal to path length when the path ends at a
/// start-node level (no suffix).
size_t SubtreeJunctionLevel(const JoinPath& path,
                            const std::vector<int>& node_at,
                            bool exclude_start_tuple);

/// Dense-scratch propagation (the kWorkspace engine). `node_at` holds the
/// schema node of every level (size path.steps.size() + 1). A null or
/// capacity-0 `cache` merges every suffix straight from its sweep (the
/// production path); otherwise suffixes are memoized through `cache`, keyed
/// by `cache_path_id` (the caller's stable index of `path`). Returns
/// nullopt when the number of complete path instances exceeds
/// options.max_instances — the caller falls back to the depth-first engine
/// so truncation semantics stay identical across algorithms.
std::optional<NeighborProfile> PropagateDense(
    const LinkGraph& link, const JoinPath& path, int32_t start_tuple,
    const PropagationOptions& options, const std::vector<int>& node_at,
    PropagationWorkspace& workspace, SubtreeCache* cache, int cache_path_id);

}  // namespace distinct

#endif  // DISTINCT_PROP_WORKSPACE_H_
