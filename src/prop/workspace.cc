#include "prop/workspace.h"

#include "common/logging.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "prop/propagation.h"

namespace {

/// Resident-payload delta of the memo, into the kSubtreeCache gauge.
void TrackCacheBytes(int64_t delta) {
  distinct::obs::MemoryTracker::Global().Add(
      distinct::obs::MemoryTracker::kSubtreeCache, delta);
}

}  // namespace

namespace distinct {

PropagationWorkspace::Slab& PropagationWorkspace::Acquire(int node_id) {
  if (static_cast<size_t>(node_id) >= slabs_.size()) {
    slabs_.resize(static_cast<size_t>(node_id) + 1);
  }
  auto& pool = slabs_[static_cast<size_t>(node_id)];
  for (auto& slab : pool) {
    if (!slab->in_use_) {
      slab->in_use_ = true;
      slab->Begin();
      return *slab;
    }
  }
  auto slab = std::make_unique<Slab>();
  const auto universe =
      static_cast<size_t>(link_->NumTuples(node_id));
  slab->forward_.resize(universe);
  slab->reverse_.resize(universe);
  slab->count_.resize(universe);
  slab->stamp_.assign(universe, 0u);
  slab->in_use_ = true;
  slab->Begin();
  pool.push_back(std::move(slab));
  return *pool.back();
}

SubtreeCache::SubtreeCache(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes),
      shard_capacity_(capacity_bytes / kNumShards) {}

SubtreeCache::~SubtreeCache() {
  for (const Shard& shard : shards_) {
    TrackCacheBytes(-static_cast<int64_t>(shard.bytes));
  }
}

std::shared_ptr<const SubtreeDistribution> SubtreeCache::Find(
    int path_id, int32_t tuple) {
  if (capacity_bytes_ == 0) {
    DISTINCT_COUNTER_ADD("prop.memo_misses", 1);
    return nullptr;
  }
  const uint64_t key = Key(path_id, tuple);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    DISTINCT_COUNTER_ADD("prop.memo_misses", 1);
    return nullptr;
  }
  ++shard.hits;
  DISTINCT_COUNTER_ADD("prop.memo_hits", 1);
  return it->second;
}

std::shared_ptr<const SubtreeDistribution> SubtreeCache::Insert(
    int path_id, int32_t tuple, SubtreeDistribution dist) {
  dist.entries.shrink_to_fit();
  auto resident = std::make_shared<const SubtreeDistribution>(std::move(dist));
  if (capacity_bytes_ == 0) {
    return resident;
  }
  const size_t size = resident->ByteSize();
  const uint64_t key = Key(path_id, tuple);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (auto it = shard.map.find(key); it != shard.map.end()) {
    return it->second;  // another thread computed the identical value first
  }
  if (size > shard_capacity_) {
    ++shard.evictions;  // would never fit; dropped immediately
    DISTINCT_COUNTER_ADD("prop.memo_evictions", 1);
    return resident;
  }
  while (shard.bytes + size > shard_capacity_ && !shard.fifo.empty()) {
    const uint64_t victim = shard.fifo.front();
    shard.fifo.pop_front();
    auto victim_it = shard.map.find(victim);
    if (victim_it != shard.map.end()) {
      shard.bytes -= victim_it->second->ByteSize();
      TrackCacheBytes(-static_cast<int64_t>(victim_it->second->ByteSize()));
      shard.map.erase(victim_it);
      ++shard.evictions;
      DISTINCT_COUNTER_ADD("prop.memo_evictions", 1);
    }
  }
  shard.map.emplace(key, resident);
  shard.fifo.push_back(key);
  shard.bytes += size;
  TrackCacheBytes(static_cast<int64_t>(size));
  return resident;
}

SubtreeCacheStats SubtreeCache::stats() const {
  SubtreeCacheStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.entries += static_cast<int64_t>(shard.map.size());
    stats.bytes += static_cast<int64_t>(shard.bytes);
  }
  return stats;
}

size_t ApproxWorkspaceBytes(const LinkGraph& link) {
  // Per tuple: forward/reverse/count doubles, the uint32 epoch stamp, and
  // one touched-list slot (the touched vector grows to the node universe in
  // the worst case).
  constexpr size_t kBytesPerTuple =
      3 * sizeof(double) + sizeof(uint32_t) + sizeof(int32_t);
  size_t total = sizeof(PropagationWorkspace);
  for (int node = 0; node < link.schema().num_nodes(); ++node) {
    total += static_cast<size_t>(link.NumTuples(node)) * kBytesPerTuple;
  }
  return total;
}

size_t SubtreeJunctionLevel(const JoinPath& path,
                            const std::vector<int>& node_at,
                            bool exclude_start_tuple) {
  const size_t k = path.steps.size();
  size_t junction = 1;
  if (exclude_start_tuple) {
    for (size_t level = 1; level <= k; ++level) {
      if (node_at[level] == node_at[0]) {
        junction = level;
      }
    }
  }
  return std::min(junction, k);
}

namespace {

using Slab = PropagationWorkspace::Slab;

/// One forward sweep step: frontier at `cur` (sorted) through `step` into
/// `next`, optionally pruning walks into the origin tuple.
void SweepStep(const LinkGraph& link, const JoinStep& step, const Slab& cur,
               Slab& next, bool exclude, int32_t start_tuple) {
  for (const int32_t t : cur.touched()) {
    const std::span<const int32_t> targets = link.Neighbors(step, t);
    if (targets.empty()) {
      continue;  // NULL FK or no referencing rows: this mass is lost
    }
    const double share =
        cur.forward(t) / static_cast<double>(targets.size());
    const double reverse = cur.reverse(t);
    const double count = cur.count(t);
    for (const int32_t target : targets) {
      if (exclude && target == start_tuple) {
        continue;  // walks through the origin carry no identity signal
      }
      const auto back =
          static_cast<double>(link.ReverseFanout(step, target));
      next.Add(target, share, reverse / back, count);
    }
  }
}

/// Sweeps the suffix below `junction` from junction tuple `tuple`: the
/// returned slab (node_at[k], sorted, acquired from `workspace`) holds the
/// suffix-forward/reverse products and complete-walk counts per end tuple.
/// Reference-independent by construction (the suffix contains no
/// start-node level). The caller releases the slab.
Slab& SweepSubtree(const LinkGraph& link, const JoinPath& path,
                   const std::vector<int>& node_at, size_t junction,
                   int32_t tuple, PropagationWorkspace& workspace) {
  const size_t k = path.steps.size();
  Slab* cur = &workspace.Acquire(node_at[junction + 1]);
  {
    const JoinStep& step = path.steps[junction];
    const std::span<const int32_t> targets = link.Neighbors(step, tuple);
    const double share =
        targets.empty() ? 0.0 : 1.0 / static_cast<double>(targets.size());
    for (const int32_t target : targets) {
      const auto back =
          static_cast<double>(link.ReverseFanout(step, target));
      cur->Add(target, share, 1.0 / back, 1.0);
    }
  }
  for (size_t i = junction + 1; i < k; ++i) {
    Slab* next = &workspace.Acquire(node_at[i + 1]);
    cur->SortTouched();
    SweepStep(link, path.steps[i], *cur, *next, /*exclude=*/false,
              /*start_tuple=*/-1);
    workspace.Release(*cur);
    cur = next;
  }
  cur->SortTouched();
  return *cur;
}

/// The suffix distribution of SweepSubtree as a memo value.
SubtreeDistribution ComputeSubtree(const LinkGraph& link,
                                   const JoinPath& path,
                                   const std::vector<int>& node_at,
                                   size_t junction, int32_t tuple,
                                   PropagationWorkspace& workspace) {
  Slab& suffix = SweepSubtree(link, path, node_at, junction, tuple, workspace);
  SubtreeDistribution dist;
  dist.entries.reserve(suffix.touched().size());
  for (const int32_t e : suffix.touched()) {
    dist.entries.push_back(
        SubtreeEntry{e, suffix.forward(e), suffix.reverse(e)});
    dist.instances += suffix.count(e);
  }
  workspace.Release(suffix);
  return dist;
}

}  // namespace

std::optional<NeighborProfile> PropagateDense(
    const LinkGraph& link, const JoinPath& path, int32_t start_tuple,
    const PropagationOptions& options, const std::vector<int>& node_at,
    PropagationWorkspace& workspace, SubtreeCache* cache,
    int cache_path_id) {
  DISTINCT_DCHECK(&workspace.link() == &link);
  const size_t k = path.steps.size();
  const size_t junction =
      SubtreeJunctionLevel(path, node_at, options.exclude_start_tuple);

  // Reference-dependent prefix: levels 0..junction with origin exclusion,
  // accumulating forward mass, reverse mass, and instance counts together.
  Slab* cur = &workspace.Acquire(node_at[0]);
  cur->Add(start_tuple, 1.0, 1.0, 1.0);
  for (size_t i = 0; i < junction; ++i) {
    Slab* next = &workspace.Acquire(node_at[i + 1]);
    const bool exclude = options.exclude_start_tuple &&
                         node_at[i + 1] == node_at[0];
    cur->SortTouched();
    SweepStep(link, path.steps[i], *cur, *next, exclude, start_tuple);
    workspace.Release(*cur);
    cur = next;
  }
  cur->SortTouched();

  double total_instances = 0.0;
  std::vector<ProfileEntry> entries;
  if (junction == k) {
    entries.reserve(cur->touched().size());
    for (const int32_t t : cur->touched()) {
      entries.push_back(
          ProfileEntry{t, cur->forward(t), cur->reverse(t)});
      total_instances += cur->count(t);
    }
    workspace.Release(*cur);
  } else {
    // Shared suffix: merge each junction tuple's suffix distribution in
    // ascending tuple order. Without a memo it is merged straight from the
    // sweep's slab; with one (a test oracle), a hit returns exactly the
    // entries a miss recomputes, so the floating-point sequence — and the
    // profile — is the same either way.
    const bool memo = cache != nullptr && cache->capacity_bytes() > 0;
    Slab* out = &workspace.Acquire(node_at[k]);
    for (const int32_t t : cur->touched()) {
      const double forward = cur->forward(t);
      const double reverse = cur->reverse(t);
      if (!memo) {
        Slab& suffix =
            SweepSubtree(link, path, node_at, junction, t, workspace);
        double instances = 0.0;
        for (const int32_t e : suffix.touched()) {
          out->Add(e, forward * suffix.forward(e), reverse * suffix.reverse(e),
                   0.0);
          instances += suffix.count(e);
        }
        workspace.Release(suffix);
        total_instances += cur->count(t) * instances;
        continue;
      }
      std::shared_ptr<const SubtreeDistribution> dist =
          cache->Find(cache_path_id, t);
      if (dist == nullptr) {
        dist = cache->Insert(
            cache_path_id, t,
            ComputeSubtree(link, path, node_at, junction, t, workspace));
      }
      for (const SubtreeEntry& entry : dist->entries) {
        out->Add(entry.tuple, forward * entry.forward,
                 reverse * entry.reverse, 0.0);
      }
      total_instances += cur->count(t) * dist->instances;
    }
    workspace.Release(*cur);
    out->SortTouched();
    entries.reserve(out->touched().size());
    for (const int32_t e : out->touched()) {
      entries.push_back(
          ProfileEntry{e, out->forward(e), out->reverse(e)});
    }
    workspace.Release(*out);
  }

  if (total_instances > static_cast<double>(options.max_instances)) {
    return std::nullopt;  // over budget: caller reruns depth-first
  }
  NeighborProfile profile{std::move(entries)};
  profile.set_truncated(false);
  return profile;
}

}  // namespace distinct
