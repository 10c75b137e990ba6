#include "sim/profile_store.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace distinct {

std::unique_ptr<PropagationWorkspace> WorkspacePool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto workspace = std::move(free_.back());
      free_.pop_back();
      return workspace;
    }
    ++created_;
  }
  return std::make_unique<PropagationWorkspace>(*link_);
}

void WorkspacePool::Release(std::unique_ptr<PropagationWorkspace> workspace) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(workspace));
}

int64_t WorkspacePool::num_created() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return created_;
}

ProfileStore ProfileStore::Build(const PropagationEngine& engine,
                                 const std::vector<JoinPath>& paths,
                                 const PropagationOptions& options,
                                 std::vector<int32_t> refs,
                                 ThreadPool* pool,
                                 size_t min_parallel_refs,
                                 SubtreeCache* shared_cache,
                                 WorkspacePool* shared_workspaces) {
  Stopwatch watch;
  ProfileStore store;
  store.refs_ = std::move(refs);
  store.num_paths_ = paths.size();
  store.profiles_.resize(store.refs_.size());
  store.index_.reserve(store.refs_.size());
  for (size_t i = 0; i < store.refs_.size(); ++i) {
    store.index_.emplace_back(store.refs_[i], i);
  }
  // Stable sort by ref only: duplicates keep their first position, like
  // the hash map this replaces.
  std::stable_sort(store.index_.begin(), store.index_.end(),
                   [](const std::pair<int32_t, size_t>& a,
                      const std::pair<int32_t, size_t>& b) {
                     return a.first < b.first;
                   });

  const bool dense =
      options.algorithm == PropagationAlgorithm::kWorkspace;
  WorkspacePool local_workspaces(engine.link());
  WorkspacePool& workspaces =
      shared_workspaces != nullptr ? *shared_workspaces : local_workspaces;

  const auto compute_one = [&](int64_t i) {
    std::unique_ptr<PropagationWorkspace> workspace;
    if (dense) {
      workspace = workspaces.Acquire();
    }
    std::vector<NeighborProfile> profiles;
    profiles.reserve(paths.size());
    for (size_t p = 0; p < paths.size(); ++p) {
      if (dense) {
        profiles.push_back(engine.Compute(paths[p], store.refs_[i], options,
                                          *workspace, shared_cache,
                                          static_cast<int>(p)));
      } else {
        profiles.push_back(engine.Compute(paths[p], store.refs_[i], options));
      }
    }
    store.profiles_[static_cast<size_t>(i)] = std::move(profiles);
    if (workspace != nullptr) {
      workspaces.Release(std::move(workspace));
    }
  };

  if (pool != nullptr && store.refs_.size() >= min_parallel_refs) {
    ParallelForShared(*pool, static_cast<int64_t>(store.refs_.size()),
                      compute_one);
  } else {
    for (size_t i = 0; i < store.refs_.size(); ++i) {
      compute_one(static_cast<int64_t>(i));
    }
  }
  DISTINCT_COUNTER_ADD("sim.profile_store_builds", 1);
  DISTINCT_COUNTER_ADD("prop.profiles_built",
                       static_cast<int64_t>(store.refs_.size()));
  DISTINCT_HISTOGRAM_RECORD("sim.profile_build_nanos", watch.ElapsedNanos());
  return store;
}

ProfileStore ProfileStore::FromProfiles(
    std::vector<std::vector<NeighborProfile>> profiles) {
  ProfileStore store;
  store.num_paths_ = profiles.empty() ? 0 : profiles[0].size();
  store.profiles_ = std::move(profiles);
  for (size_t i = 0; i < store.profiles_.size(); ++i) {
    DISTINCT_CHECK(store.profiles_[i].size() == store.num_paths_);
    store.refs_.push_back(static_cast<int32_t>(i));
    store.index_.emplace_back(static_cast<int32_t>(i), i);
  }
  return store;
}

void ProfileStore::Update(const PropagationEngine& engine,
                          const std::vector<JoinPath>& paths,
                          const PropagationOptions& options,
                          const std::vector<size_t>& positions,
                          std::vector<int32_t> new_refs,
                          ThreadPool* pool,
                          size_t min_parallel_refs,
                          SubtreeCache* shared_cache,
                          WorkspacePool* shared_workspaces,
                          const std::vector<uint64_t>* position_path_masks) {
  Stopwatch watch;
  num_paths_ = paths.size();
  std::vector<size_t> work(positions);
  for (int32_t ref : new_refs) {
    work.push_back(refs_.size());
    refs_.push_back(ref);
    profiles_.emplace_back();
  }
  // Rebuilt whole with Build()'s exact construction (stable sort, first
  // position wins for duplicates).
  index_.clear();
  index_.reserve(refs_.size());
  for (size_t i = 0; i < refs_.size(); ++i) {
    index_.emplace_back(refs_[i], i);
  }
  std::stable_sort(index_.begin(), index_.end(),
                   [](const std::pair<int32_t, size_t>& a,
                      const std::pair<int32_t, size_t>& b) {
                     return a.first < b.first;
                   });

  const bool dense = options.algorithm == PropagationAlgorithm::kWorkspace;
  WorkspacePool local_workspaces(engine.link());
  WorkspacePool& workspaces =
      shared_workspaces != nullptr ? *shared_workspaces : local_workspaces;

  // The exact per-reference loop of Build(); only the work list differs.
  // A position's path mask (when masks are given) limits the recompute to
  // the dirtied paths — untouched path profiles are kept verbatim, which
  // is exact because propagation is independent per (reference, path).
  // Paths past bit 63 are always recomputed (conservative).
  const auto compute_one = [&](int64_t i) {
    const size_t position = work[static_cast<size_t>(i)];
    const uint64_t mask =
        (position_path_masks != nullptr &&
         static_cast<size_t>(i) < positions.size())
            ? (*position_path_masks)[static_cast<size_t>(i)]
            : ~uint64_t{0};
    std::unique_ptr<PropagationWorkspace> workspace;
    if (dense) {
      workspace = workspaces.Acquire();
    }
    std::vector<NeighborProfile>& profiles = profiles_[position];
    profiles.resize(paths.size());
    for (size_t p = 0; p < paths.size(); ++p) {
      if (p < 64 && ((mask >> p) & 1) == 0) {
        continue;
      }
      if (dense) {
        profiles[p] = engine.Compute(paths[p], refs_[position], options,
                                     *workspace, shared_cache,
                                     static_cast<int>(p));
      } else {
        profiles[p] = engine.Compute(paths[p], refs_[position], options);
      }
    }
    if (workspace != nullptr) {
      workspaces.Release(std::move(workspace));
    }
  };

  if (pool != nullptr && work.size() >= min_parallel_refs) {
    ParallelForShared(*pool, static_cast<int64_t>(work.size()), compute_one);
  } else {
    for (size_t i = 0; i < work.size(); ++i) {
      compute_one(static_cast<int64_t>(i));
    }
  }
  DISTINCT_COUNTER_ADD("sim.profile_store_updates", 1);
  DISTINCT_COUNTER_ADD("prop.profiles_built",
                       static_cast<int64_t>(work.size()));
  DISTINCT_HISTOGRAM_RECORD("sim.profile_build_nanos", watch.ElapsedNanos());
}

int64_t ProfileStore::IndexOf(int32_t ref) const {
  auto it = std::lower_bound(index_.begin(), index_.end(), ref,
                             [](const std::pair<int32_t, size_t>& entry,
                                int32_t value) {
                               return entry.first < value;
                             });
  if (it == index_.end() || it->first != ref) {
    return -1;
  }
  return static_cast<int64_t>(it->second);
}

}  // namespace distinct
