#include "sim/fused_kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace distinct {

PairFeatures FusedFeatures(const ProfileArena& arena, size_t i, size_t j,
                           KernelIsa isa) {
  const MergeJoinFn join = MergeJoinForIsa(ResolveKernelIsa(isa));
  PairFeatures features;
  features.resemblance.resize(arena.num_paths());
  features.walk.resize(arena.num_paths());
  for (size_t p = 0; p < arena.num_paths(); ++p) {
    const FusedPathFeatures fused = join(arena.path(p), i, j);
    features.resemblance[p] = fused.resemblance;
    features.walk[p] = fused.walk;
  }
  return features;
}

std::vector<uint32_t> LivePaths(const SimilarityModel& model) {
  std::vector<uint32_t> live;
  for (size_t p = 0; p < model.num_paths(); ++p) {
    if (model.resem_weights()[p] != 0.0 || model.walk_weights()[p] != 0.0) {
      live.push_back(static_cast<uint32_t>(p));
    }
  }
  return live;
}

CandidateSet::CandidateSet(size_t n, std::vector<uint32_t> live_paths)
    : num_refs_(n),
      live_paths_(std::move(live_paths)),
      masks_(n < 2 ? 0 : n * (n - 1) / 2, 0),
      tracked_(obs::MemoryTracker::kCandidateMask) {
  tracked_.Set(static_cast<int64_t>(masks_.capacity() * sizeof(PathMask)));
}

int64_t CandidateSet::count() const {
  return std::count_if(masks_.begin(), masks_.end(),
                       [](PathMask mask) { return mask != 0; });
}

CandidateSet CandidateSet::Build(const ProfileArena& arena,
                                 std::vector<uint32_t> live_paths,
                                 const CandidateBuildOptions& options) {
  const size_t n = arena.num_refs();
  CandidateSet set(n, std::move(live_paths));

  // Scratch shared across paths (and, via thread_local, across the many
  // names one scan worker builds — same idiom and lifetime contract as
  // BuildPartial below): dense_of spans the tuple id space and is restored
  // to all -1 through `touched` after every path.
  static thread_local std::vector<int32_t> dense_of;  // tuple -> dense id
  static thread_local std::vector<int32_t> touched;   // numbered this path
  std::vector<uint32_t> counts;       // dense id -> occurrences
  std::vector<uint32_t> group_begin;  // dense id -> start in grouped
  std::vector<int32_t> grouped;       // refs grouped by dense tuple id
  std::vector<uint64_t> tuple_bits;   // dense id -> reference bitmap
  std::vector<uint64_t> row;          // one reference's overlap row

  const size_t words = (n + 63) / 64;
  for (size_t k = 0; k < set.live_paths_.size(); ++k) {
    const ProfileArena::Path& path = arena.path(set.live_paths_[k]);
    const PathMask bit = PathMask{1}
                         << std::min<size_t>(k, kOverflowBit);
    const size_t entries = path.tuples.size();
    if (entries == 0) {
      continue;
    }
    // Pass 1: dense-number every distinct tuple on this path and count its
    // postings — a counting sort's histogram.
    touched.clear();
    counts.clear();
    for (size_t e = 0; e < entries; ++e) {
      const auto t = static_cast<size_t>(path.tuples[e]);
      if (t >= dense_of.size()) {
        dense_of.resize(t + 1, -1);
      }
      if (dense_of[t] < 0) {
        dense_of[t] = static_cast<int32_t>(touched.size());
        touched.push_back(static_cast<int32_t>(t));
        counts.push_back(0);
      }
      ++counts[static_cast<size_t>(dense_of[t])];
    }
    const size_t distinct = touched.size();

    // The counting pass's histogram prices both machines before either
    // runs: grouped marking visits every within-group pair (Σ count²),
    // the bitset path ORs ~(entries + n) · words/2 words. Hub tuples send
    // Σ count² quadratic, which is exactly when the word ops win.
    double grouped_cost = 0.0;
    for (size_t d = 0; d < distinct; ++d) {
      grouped_cost += static_cast<double>(counts[d]) *
                      static_cast<double>(counts[d]);
    }
    const double bitset_cost =
        static_cast<double>(entries + n) * static_cast<double>(words) * 0.5;
    const bool use_bitset =
        n >= static_cast<size_t>(std::max(options.bitset_min_refs, 0)) &&
        distinct * words <= options.bitset_max_scratch_words &&
        (options.bitset_cost_factor <= 0.0 ||
         grouped_cost > options.bitset_cost_factor * bitset_cost);

    if (use_bitset) {
      // Dense path: tuple -> reference bitmaps, then one word-parallel OR
      // per (reference, tuple) posting into a row of the references below
      // r sharing a tuple with it, and this path's bit ORed into each of
      // the row's cells. Hub tuples cost words, not pairs².
      tuple_bits.assign(distinct * words, 0);
      for (size_t r = 0; r < n; ++r) {
        for (size_t e = path.offsets[r]; e < path.offsets[r + 1]; ++e) {
          const auto d = static_cast<size_t>(
              dense_of[static_cast<size_t>(path.tuples[e])]);
          tuple_bits[d * words + (r >> 6)] |= uint64_t{1} << (r & 63);
        }
      }
      row.assign(words, 0);
      for (size_t r = 1; r < n; ++r) {
        if (path.size(r) == 0) {
          continue;
        }
        // Only bits below r are cells of row r, so only the words that can
        // hold them are ORed (and re-zeroed).
        const size_t row_words = (r + 63) / 64;
        for (size_t e = path.offsets[r]; e < path.offsets[r + 1]; ++e) {
          const auto d = static_cast<size_t>(
              dense_of[static_cast<size_t>(path.tuples[e])]);
          const uint64_t* src = tuple_bits.data() + d * words;
          for (size_t w = 0; w < row_words; ++w) {
            row[w] |= src[w];
          }
        }
        if (r % 64 != 0) {
          row[row_words - 1] &= (uint64_t{1} << (r % 64)) - 1;
        }
        PathMask* cells = set.masks_.data() + r * (r - 1) / 2;
        for (size_t w = 0; w < row_words; ++w) {
          for (uint64_t word = row[w]; word != 0; word &= word - 1) {
            cells[64 * w + static_cast<size_t>(std::countr_zero(word))] |=
                bit;
          }
          row[w] = 0;
        }
      }
    } else {
      // Sparse path: scatter references into per-tuple groups (counting
      // sort, ref order preserved ascending) and mark every pair inside a
      // group — exactly the incidences the fused kernel would visit.
      group_begin.assign(distinct + 1, 0);
      for (size_t d = 0; d < distinct; ++d) {
        group_begin[d + 1] = group_begin[d] + counts[d];
      }
      grouped.resize(entries);
      counts.assign(distinct, 0);  // reused as per-group cursors
      for (size_t r = 0; r < n; ++r) {
        for (size_t e = path.offsets[r]; e < path.offsets[r + 1]; ++e) {
          const auto d = static_cast<size_t>(
              dense_of[static_cast<size_t>(path.tuples[e])]);
          grouped[group_begin[d] + counts[d]++] = static_cast<int32_t>(r);
        }
      }
      for (size_t d = 0; d < distinct; ++d) {
        const size_t begin = group_begin[d];
        const size_t end = group_begin[d + 1];
        for (size_t a = begin; a < end; ++a) {
          const auto i = static_cast<size_t>(grouped[a]);
          PathMask* cells = set.masks_.data() + i * (i - 1) / 2;
          for (size_t b = begin; b < a; ++b) {
            cells[static_cast<size_t>(grouped[b])] |= bit;
          }
        }
      }
    }
    for (const int32_t t : touched) {
      dense_of[static_cast<size_t>(t)] = -1;
    }
  }
  return set;
}

CandidateSet CandidateSet::BuildPartial(const ProfileArena& arena,
                                        std::vector<uint32_t> live_paths,
                                        const std::vector<char>& dirty) {
  const size_t n = arena.num_refs();
  CandidateSet set(n, std::move(live_paths));

  // Build()'s tuple groups, restricted to the dirty rows' neighborhoods,
  // without the sort: pass 1 numbers each tuple a dirty reference holds
  // (a direct-indexed tuple -> bucket map, reset via the touched list
  // between paths), pass 2 scatters every reference holding a numbered
  // tuple into its bucket, and only pairs touching a dirty reference are
  // marked per bucket — clean-clean cells are never consulted by the
  // partial refill, and marking a both-dirty pair from either end twice
  // is idempotent. Per path the cost is one O(entries) scan plus
  // O(dirty_members x members) marking per bucket, instead of Build()'s
  // O(members^2) groups.
  // Scratch persists across calls (bucket_of alone spans the tuple id
  // space, ~100KB) — one IncrementalCatalog apply runs this for hundreds
  // of names, and re-zeroing per name would dwarf the real work. Each path
  // iteration restores bucket_of to all -1 via `touched` and leaves the
  // bucket vectors cleared, so a new call always sees clean scratch.
  static thread_local std::vector<int32_t> bucket_of;  // tuple -> bucket id
  static thread_local std::vector<int32_t> touched;    // numbered this path
  static thread_local std::vector<std::vector<int32_t>> buckets;
  for (size_t k = 0; k < set.live_paths_.size(); ++k) {
    const ProfileArena::Path& path = arena.path(set.live_paths_[k]);
    const PathMask bit = PathMask{1}
                         << std::min<size_t>(k, kOverflowBit);
    touched.clear();
    for (size_t r = 0; r < n; ++r) {
      if (!dirty[r]) {
        continue;
      }
      for (size_t e = path.offsets[r]; e < path.offsets[r + 1]; ++e) {
        const auto t = static_cast<size_t>(path.tuples[e]);
        if (t >= bucket_of.size()) {
          bucket_of.resize(t + 1, -1);
        }
        if (bucket_of[t] < 0) {
          bucket_of[t] = static_cast<int32_t>(touched.size());
          touched.push_back(static_cast<int32_t>(t));
        }
      }
    }
    if (touched.empty()) {
      continue;  // no dirty reference has entries on this path
    }
    if (buckets.size() < touched.size()) {
      buckets.resize(touched.size());
    }
    for (size_t r = 0; r < n; ++r) {
      for (size_t e = path.offsets[r]; e < path.offsets[r + 1]; ++e) {
        const auto t = static_cast<size_t>(path.tuples[e]);
        if (t < bucket_of.size() && bucket_of[t] >= 0) {
          buckets[static_cast<size_t>(bucket_of[t])].push_back(
              static_cast<int32_t>(r));
        }
      }
    }
    for (size_t b = 0; b < touched.size(); ++b) {
      std::vector<int32_t>& members = buckets[b];
      for (const int32_t ai : members) {
        const auto i = static_cast<size_t>(ai);
        if (!dirty[i]) {
          continue;
        }
        for (const int32_t bj : members) {
          const auto j = static_cast<size_t>(bj);
          if (j == i) {
            continue;
          }
          const size_t hi = i > j ? i : j;
          const size_t lo = i > j ? j : i;
          set.masks_[hi * (hi - 1) / 2 + lo] |= bit;
        }
      }
      members.clear();
    }
    for (const int32_t t : touched) {
      bucket_of[static_cast<size_t>(t)] = -1;
    }
  }
  return set;
}

double PairSimilarityUpperBound(const ProfileArena& arena,
                                const SimilarityModel& model,
                                const PrunePolicy& policy, size_t i,
                                size_t j) {
  double resem_bound = 0.0;
  double walk_bound = 0.0;
  const std::vector<double>& resem_weights = model.resem_weights();
  const std::vector<double>& walk_weights = model.walk_weights();
  for (size_t p = 0; p < arena.num_paths(); ++p) {
    const ProfileArena::Path& path = arena.path(p);
    const double mass_i = path.mass[i];
    const double mass_j = path.mass[j];
    const auto matches =
        static_cast<double>(std::min(path.size(i), path.size(j)));
    // Resem_P = ν/δ with δ = mass_i + mass_j − ν exactly (Σmax + Σmin over
    // the union is the total mass), and ν/(M−ν) increases in ν — so any
    // upper bound ν* on the numerator gives the bound ν*/(M−ν*). The
    // numerator is capped by the smaller mass and by the match count times
    // the smaller per-entry maximum; the latter tightens hub-vs-small
    // pairs whose masses alone look similar.
    double nu = std::min(mass_i, mass_j);
    nu = std::min(nu, matches * std::min(path.forward_max[i],
                                         path.forward_max[j]));
    if (nu > 0.0) {
      const double delta = mass_i + mass_j - nu;
      const double resem =
          delta > 0.0 ? std::min(nu / delta, 1.0) : 1.0;
      resem_bound += std::max(resem_weights[p], 0.0) * resem;
    }
    // Walk_P(a->b) = Σ f_a(t)·r_b(t) over shared tuples; bound each factor
    // by its profile-wide aggregate (both ways), or the whole sum by the
    // match count times the largest single product, and keep the tightest.
    const double walk_ij =
        std::min({mass_i * path.reverse_max[j],
                  path.forward_max[i] * path.reverse_sum[j],
                  matches * path.forward_max[i] * path.reverse_max[j]});
    const double walk_ji =
        std::min({mass_j * path.reverse_max[i],
                  path.forward_max[j] * path.reverse_sum[i],
                  matches * path.forward_max[j] * path.reverse_max[i]});
    walk_bound += std::max(walk_weights[p], 0.0) * 0.5 * (walk_ij + walk_ji);
  }
  switch (policy.measure) {
    case ClusterMeasure::kResemblanceOnly:
      return resem_bound;
    case ClusterMeasure::kWalkOnly:
      return walk_bound;
    case ClusterMeasure::kComposite:
      break;
  }
  if (policy.combine == CombineRule::kArithmeticMean) {
    return 0.5 * (resem_bound + walk_bound);
  }
  return std::sqrt(resem_bound * walk_bound);
}

}  // namespace distinct
