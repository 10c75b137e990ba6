// DISTINCT: the public entry point of this library.
//
// Typical use:
//   auto dataset = GenerateDblpDataset({});                    // or your DB
//   auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), {});
//   auto result = engine->ResolveName("Wei Wang");
//   // result->clustering.assignment groups result->refs by real person.
//
// Create() builds the schema/link graphs, enumerates join paths, and (by
// default) constructs the automatic training set and fits the SVM path
// weights — the paper's offline phase. ResolveName()/ResolveRefs() run the
// per-name clustering — the paper's online phase.

#ifndef DISTINCT_CORE_DISTINCT_H_
#define DISTINCT_CORE_DISTINCT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/agglomerative.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/group_resolve.h"
#include "prop/propagation.h"
#include "relational/join_path.h"
#include "relational/reference_spec.h"
#include "prop/workspace.h"
#include "sim/feature_vector.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_arena.h"
#include "sim/profile_store.h"
#include "sim/similarity_model.h"
#include "svm/linear_svm.h"
#include "train/training_set.h"

namespace distinct {

struct DatabaseDelta;  // core/delta.h
struct DeltaReport;    // core/delta.h

/// Everything configurable about the pipeline. The defaults mirror the
/// paper's setup on DBLP.
struct DistinctConfig {
  // --- Join paths ---
  /// Maximum join-path length ("coauthors of coauthors" needs 4).
  int max_path_length = 4;
  /// Skip paths that start by following the reference's own name edge;
  /// every resembling reference shares that neighbor by definition.
  bool exclude_identity_first_step = true;
  /// Non-key attributes to promote to tuples, as (table, column) pairs.
  /// Empty means none (use DblpDefaultPromotions() for the DBLP set).
  std::vector<std::pair<std::string, std::string>> promotions;
  /// Propagation engine and limits. Its cache_bytes sizes only test-oracle
  /// memos (prop/workspace.h); the engine itself never builds one.
  PropagationOptions propagation;

  // --- Path-weight model ---
  /// false: uniform weights (the unsupervised baselines of Fig. 4).
  bool supervised = true;
  TrainingSetOptions training;
  SvmParams svm;
  /// Fraction of negative examples drawn from *linked* distinct-author
  /// pairs (pairs with at least one nonzero path similarity). Random
  /// negatives are mostly unlinked, which would teach the SVM that any
  /// linkage implies equivalence; hard negatives make it learn which
  /// linkage types discriminate. Negatives are oversampled
  /// `negative_oversample`x to find enough linked ones.
  double hard_negative_fraction = 0.5;
  int negative_oversample = 4;

  // --- Clustering ---
  /// Merge floor (the paper's min-sim). Calibrated on the standard
  /// synthetic dataset (see bench_minsim_sweep).
  double min_sim = 3e-2;
  /// Extension: derive min_sim from the training pairs instead of using
  /// the fixed value — the threshold that best classifies the automatic
  /// positive/negative pairs by their composite similarity. Removes the
  /// per-dataset calibration (supervised mode only).
  bool auto_min_sim = false;
  ClusterMeasure measure = ClusterMeasure::kComposite;
  CombineRule combine = CombineRule::kGeometricMean;
  /// When to stop merging: the paper's fixed min-sim floor, or the
  /// threshold-free largest-gap extension.
  StoppingRule stopping = StoppingRule::kFixedThreshold;
  /// When false, cluster-pair sums are recomputed from the base matrices at
  /// every merge (the §4.2 cost ablation strawman).
  bool incremental = true;

  // --- Execution ---
  /// Worker threads for the intra-name similarity kernel: per-reference
  /// profile propagation and the tiled pair-matrix fill both fan out over
  /// one shared pool. 1 keeps everything on the calling thread. Results
  /// are bit-identical across thread counts.
  int num_threads = 1;
  /// Which pair kernel fills the similarity matrices. kFused (the default)
  /// streams a flat profile arena and skips provably-zero pairs via an
  /// inverted-index candidate set; bit-identical to kReference, which runs
  /// the three-pass merges over the per-profile vectors.
  PairKernelType kernel = PairKernelType::kFused;
  /// Fused kernel only, opt-in: additionally skip candidate pairs whose
  /// mass-bound combined-similarity upper bound is below min_sim when the
  /// matrices feed clustering (ResolveName/ResolveRefs and the bulk
  /// scans). A pruned pair can never trigger a singleton merge, but its
  /// cell reads 0.0 instead of a sub-floor value, and sub-floor cells
  /// still contribute to Average-Link cluster sums — so pruning is an
  /// approximation that may shift merges whose cluster-pair average sits
  /// near the floor (DESIGN.md §11 has the three-reference
  /// counterexample). Off by default; ComputeMatrices() never prunes
  /// regardless — its matrices serve threshold sweeps below min_sim.
  bool kernel_pruning = false;
  /// Merge-join ISA of the fused kernel (sim/intersect.h). kAuto resolves
  /// once to the fastest variant this host supports (AVX2 where present,
  /// galloping otherwise); explicit values pin one variant, with an avx2
  /// request on a host or build without it degrading to scalar. Every
  /// variant returns bit-identical matrices — this is purely a speed knob.
  KernelIsa kernel_isa = KernelIsa::kAuto;
  /// Per-shard memory budget (in MiB) of the sharded bulk scan
  /// (core/scan_shard.h). Bounds how many concurrent
  /// PropagationWorkspaces (and therefore worker threads) a shard may use;
  /// a name group whose pair matrices alone would exceed
  /// the budget fails its shard instead of OOMing the process. 0 = no
  /// bound. Results are bit-identical at every budget that completes.
  int64_t scan_memory_mb = 0;
  /// Catalog generation stamp carried into checkpoints. When the database
  /// was materialised from an on-disk columnar catalog (catalog/reader.h)
  /// the caller seeds this with the catalog's generation, so --resume and
  /// append --delta reject checkpoints taken against a different ingest
  /// generation even when the row counts happen to agree. 0 (in-memory
  /// datasets) keeps the engine-local versioning that starts at zero and
  /// increments per applied delta.
  int64_t base_catalog_version = 0;
  /// Enables the process-wide metrics registry and span tracer
  /// (src/obs/) for this engine. Create() flips the global obs switch;
  /// when false (the default) every instrumentation site reduces to a
  /// single relaxed load + branch, so benchmark numbers and the
  /// bit-identical parallel-kernel guarantee are unaffected.
  bool observability = false;
};

/// Timings and diagnostics from Create().
struct TrainingReport {
  int num_paths = 0;
  size_t num_training_pairs = 0;
  size_t num_unique_refs = 0;      // distinct references in training pairs
  double seconds_features = 0.0;   // propagation + merges
  double seconds_svm = 0.0;
  double seconds_total = 0.0;
  double train_accuracy_resem = 0.0;  // SVM fit on its own training set
  double train_accuracy_walk = 0.0;
  /// Composite-similarity threshold that best separates the training
  /// pairs; what auto_min_sim installs (0 when not trained).
  double suggested_min_sim = 0.0;
};

/// A trained object-distinction engine bound to one database.
class Distinct {
 public:
  /// Builds graphs, enumerates paths, and fits the model. `db` must outlive
  /// the engine.
  static StatusOr<Distinct> Create(const Database& db,
                                   const ReferenceSpec& spec,
                                   DistinctConfig config = {});

  /// Like Create, but installs a previously trained model (see
  /// sim/similarity_model_io.h) instead of training. The model must have
  /// one weight pair per enumerated join path; when it carries path names
  /// they must match the current schema's paths (drift detection).
  static StatusOr<Distinct> CreateWithModel(const Database& db,
                                            const ReferenceSpec& spec,
                                            DistinctConfig config,
                                            SimilarityModel model);

  Distinct(Distinct&&) = default;
  Distinct& operator=(Distinct&&) = default;
  Distinct(const Distinct&) = delete;
  Distinct& operator=(const Distinct&) = delete;

  /// A resolved name: the references found and their grouping.
  struct ResolveResult {
    std::vector<int32_t> refs;  // rows of the reference table
    ClusteringResult clustering;
  };

  /// Groups every reference carrying `name` (NotFound if the name is
  /// absent).
  StatusOr<ResolveResult> ResolveName(const std::string& name);

  /// Groups an explicit set of (resembling) references.
  StatusOr<ClusteringResult> ResolveRefs(const std::vector<int32_t>& refs);

  /// Everything ResolveRefs computes on the way to a clustering, kept so a
  /// later delta can be spliced in instead of recomputed from scratch (see
  /// core/group_resolve.h).
  using ResolveArtifacts = GroupArtifacts;

  /// ResolveRefs, returning the intermediate artifacts for caching (the
  /// clustering inside is exactly what ResolveRefs(refs) returns).
  StatusOr<ResolveArtifacts> ResolveRefsArtifacts(
      const std::vector<int32_t>& refs);

  /// Splice-updates `cached` (artifacts over a prefix of `refs`) after an
  /// ApplyDelta: recomputes only the profiles of references listed in
  /// `dirty_refs` (sorted row ids — DeltaReport::dirty_refs) plus the
  /// appended suffix, patches the pair-matrix cells with a dirty endpoint,
  /// and re-clusters. `dirty_ref_path_masks` (optional, aligned with
  /// `dirty_refs` — DeltaReport::dirty_ref_path_masks) further restricts
  /// each dirty reference's profile recompute to the flagged paths; empty
  /// means all paths. Bit-identical to ResolveRefsArtifacts(refs), at cost
  /// proportional to the dirty rows rather than the whole group.
  /// InvalidArgument when cached.store.refs() is not a prefix of `refs`
  /// (append-only deltas keep existing references in place).
  StatusOr<ResolveArtifacts> PatchResolveArtifacts(
      ResolveArtifacts cached, const std::vector<int32_t>& refs,
      const std::vector<int32_t>& dirty_refs,
      const std::vector<uint64_t>& dirty_ref_path_masks = {});

  /// Ingests appended rows without rebuilding the engine. `db` must be the
  /// database this engine was created over; `delta` holds rows to append
  /// per table. The delta is validated (arity, types, primary-key
  /// uniqueness, foreign-key resolvability — against existing and pending
  /// rows alike) before anything mutates, so a bad delta leaves database
  /// and engine untouched. On success the link graph is extended in place,
  /// the name index absorbs the new name/reference rows, the workspace
  /// pool is renewed for the grown universes, and the report lists every
  /// name whose evidence changed (and therefore must be re-resolved — see
  /// core/delta.h's IncrementalCatalog for the cached-resolution layer).
  /// Resolutions computed after ApplyDelta are bit-identical to a fresh
  /// Create() over the appended database with the same model.
  StatusOr<DeltaReport> ApplyDelta(Database& db, const DatabaseDelta& delta);

  /// Bumped once per successful ApplyDelta (0 at Create).
  int64_t catalog_version() const { return catalog_version_; }
  /// Total database rows covered by the current catalog state; checkpoints
  /// record it so --resume can reject plans that predate appended data.
  int64_t tuple_watermark() const { return tuple_watermark_; }

  /// Pairwise model-combined similarity matrices for `refs` — (set
  /// resemblance, random walk). Useful for min-sim sweeps: compute once,
  /// cluster many times with ClusterReferences. Always exact: the
  /// mass-bound prune is never applied here, so every cell carries its
  /// true value even below config.min_sim.
  StatusOr<std::pair<PairMatrix, PairMatrix>> ComputeMatrices(
      const std::vector<int32_t>& refs);

  /// All reference rows whose name equals `name` (possibly empty). Served
  /// from the name index built at Create() time — no table scan per query.
  StatusOr<std::vector<int32_t>> RefsForName(const std::string& name) const;

  /// Every (name, reference rows) group in name-table row order, built once
  /// at Create() time. Rows of several same-named name-table entries are
  /// one group. ScanNameGroups(engine, ...) filters this index instead of
  /// rescanning the database.
  const std::vector<std::pair<std::string, std::vector<int32_t>>>&
  name_groups() const {
    return name_groups_;
  }

  const DistinctConfig& config() const { return config_; }
  const std::vector<JoinPath>& paths() const;
  /// The stateless propagation engine; safe to share across threads (build
  /// a shared ProfileStore, or one FeatureExtractor per thread, on top of
  /// it).
  const PropagationEngine& propagation_engine() const { return *engine_; }
  const SimilarityModel& model() const { return model_; }
  const TrainingReport& report() const { return report_; }
  const SchemaGraph& schema_graph() const { return *schema_graph_; }

  /// Clustering options derived from config (measure/combine/min_sim).
  AgglomerativeOptions cluster_options() const;

  /// Pair-kernel options derived from config. With `for_clustering`, the
  /// mass-bound prune is armed at the clusterer's merge floor (when
  /// config.kernel_pruning allows); matrices handed back to callers — who
  /// may sweep thresholds below min_sim — must pass false.
  PairKernelOptions kernel_options(bool for_clustering) const;

  /// The per-group unit of work over this engine's paths, model and
  /// options. With `for_clustering` it clusters (under the prune-armed
  /// kernel options); without, it stops at exact matrices. It borrows this
  /// engine: use it while the engine stays in place, never across a move.
  GroupResolver resolver(bool for_clustering) const;

 private:
  Distinct() = default;

  /// The engine-lifetime warm state: workspaces and kernel pool,
  /// with stage spans on (Distinct's methods run on the calling thread).
  WarmState warm() const;

  const Database* db_ = nullptr;
  ResolvedReferenceSpec resolved_;
  DistinctConfig config_;
  // unique_ptr keeps addresses stable across moves (members hold borrowed
  // pointers to each other).
  std::unique_ptr<SchemaGraph> schema_graph_;
  std::unique_ptr<LinkGraph> link_graph_;
  std::unique_ptr<PropagationEngine> engine_;
  std::unique_ptr<FeatureExtractor> extractor_;
  SimilarityModel model_;
  TrainingReport report_;
  /// Kernel pool, created at Create() when config.num_threads > 1; null in
  /// serial mode.
  std::unique_ptr<ThreadPool> pool_;
  /// name -> position in name_groups_ (groups in name-table row order).
  std::vector<std::pair<std::string, std::vector<int32_t>>> name_groups_;
  std::unordered_map<std::string, size_t> name_index_;
  /// name-table primary key -> position in name_groups_; lets ApplyDelta
  /// route appended reference rows to their group without a rescan.
  std::unordered_map<int64_t, size_t> name_group_of_pk_;
  /// Engine-lifetime workspace pool, so dense scratch is recycled across
  /// queries; ApplyDelta renews it after the universes grew.
  PropagationCaches caches_;
  int64_t catalog_version_ = 0;
  int64_t tuple_watermark_ = 0;
};

}  // namespace distinct

#endif  // DISTINCT_CORE_DISTINCT_H_
