#include "core/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/distinct.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "prop/link_graph.h"
#include "sim/profile_arena.h"
#include "sim/profile_store.h"

namespace distinct {
namespace {

// Known DBLP schema column orders (dblp/schema.cc).
constexpr int kAuthorsName = 1;
constexpr int kPublicationsProc = 2;

DistinctConfig TestConfig(int num_threads = 1) {
  DistinctConfig config;
  config.supervised = false;  // uniform weights: no training-set RNG to share
  config.promotions = DblpDefaultPromotions();
  config.min_sim = 1e-3;
  config.num_threads = num_threads;
  return config;
}

int64_t MaxPrimaryKey(const Database& db, const std::string& table) {
  const Table& t = **db.FindTable(table);
  const int pk = t.primary_key_column();
  int64_t max_pk = 0;
  for (int64_t row = 0; row < t.num_rows(); ++row) {
    max_pk = std::max(max_pk, t.GetInt(row, pk));
  }
  return max_pk;
}

/// Exact comparison: names, sizes, assignments, and bit-identical merge
/// similarities — the differential contract of the incremental catalog.
void ExpectSameResolutions(const std::vector<BulkResolution>& got,
                           const std::vector<BulkResolution>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t g = 0; g < want.size(); ++g) {
    SCOPED_TRACE("name " + want[g].name);
    EXPECT_EQ(got[g].name, want[g].name);
    EXPECT_EQ(got[g].num_refs, want[g].num_refs);
    EXPECT_EQ(got[g].clustering.num_clusters, want[g].clustering.num_clusters);
    EXPECT_EQ(got[g].clustering.assignment, want[g].clustering.assignment);
    ASSERT_EQ(got[g].clustering.merges.size(), want[g].clustering.merges.size());
    for (size_t m = 0; m < want[g].clustering.merges.size(); ++m) {
      EXPECT_EQ(got[g].clustering.merges[m].into,
                want[g].clustering.merges[m].into);
      EXPECT_EQ(got[g].clustering.merges[m].from,
                want[g].clustering.merges[m].from);
      EXPECT_EQ(got[g].clustering.merges[m].similarity,
                want[g].clustering.merges[m].similarity);
    }
  }
}

void ExpectSameProfiles(const ProfileStore& got, const ProfileStore& want) {
  ASSERT_EQ(got.refs(), want.refs());
  ASSERT_EQ(got.num_paths(), want.num_paths());
  for (size_t r = 0; r < want.num_refs(); ++r) {
    const std::vector<NeighborProfile>& a = got.profiles(r);
    const std::vector<NeighborProfile>& b = want.profiles(r);
    ASSERT_EQ(a.size(), b.size());
    for (size_t p = 0; p < b.size(); ++p) {
      SCOPED_TRACE("ref position " + std::to_string(r) + " path " +
                   std::to_string(p));
      ASSERT_EQ(a[p].size(), b[p].size());
      EXPECT_EQ(a[p].truncated(), b[p].truncated());
      for (size_t e = 0; e < b[p].entries().size(); ++e) {
        EXPECT_EQ(a[p].entries()[e].tuple, b[p].entries()[e].tuple);
        EXPECT_EQ(a[p].entries()[e].forward, b[p].entries()[e].forward);
        EXPECT_EQ(a[p].entries()[e].reverse, b[p].entries()[e].reverse);
      }
    }
  }
}

void ExpectSameArenas(const ProfileArena& got, const ProfileArena& want) {
  ASSERT_EQ(got.num_refs(), want.num_refs());
  ASSERT_EQ(got.num_paths(), want.num_paths());
  for (size_t p = 0; p < want.num_paths(); ++p) {
    SCOPED_TRACE("path " + std::to_string(p));
    const ProfileArena::Path& a = got.path(p);
    const ProfileArena::Path& b = want.path(p);
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.tuples, b.tuples);
    EXPECT_EQ(a.forward, b.forward);
    EXPECT_EQ(a.reverse, b.reverse);
    EXPECT_EQ(a.mass, b.mass);
    EXPECT_EQ(a.reverse_sum, b.reverse_sum);
    EXPECT_EQ(a.forward_max, b.forward_max);
    EXPECT_EQ(a.reverse_max, b.reverse_max);
  }
}

TEST(DatabaseDeltaTest, BatchesRowsPerTableInAddOrder) {
  DatabaseDelta delta;
  EXPECT_TRUE(delta.empty());
  delta.Add("A", {Value::Int(1)});
  delta.Add("B", {Value::Int(2)});
  delta.Add("A", {Value::Int(3)});
  EXPECT_EQ(delta.num_rows(), 3);
  ASSERT_EQ(delta.tables().size(), 2u);
  EXPECT_EQ(delta.tables()[0].table, "A");
  EXPECT_EQ(delta.tables()[0].rows.size(), 2u);
  EXPECT_EQ(delta.tables()[1].table, "B");
  EXPECT_EQ(delta.tables()[1].rows.size(), 1u);
  EXPECT_EQ(delta.tables()[0].rows[1][0].AsInt(), 3);
}

/// One generated DBLP world with planted ambiguity (skewed name sizes: one
/// 3-way 40-publication case, one 2-way 12-publication case, plus the
/// organic background); every mutating test copies it.
class DeltaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig generator;
    generator.seed = 11;
    generator.num_communities = 8;
    generator.authors_per_community = 10;
    generator.ambiguous = {{"Wei Wang", 3, 40}, {"Jing Li", 2, 12}};
    auto dataset = GenerateDblpDataset(generator);
    DISTINCT_CHECK(dataset.ok());
    dataset_ = new DblpDataset(*std::move(dataset));
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  /// A full copy of the generated database (MakeTailDelta with an empty
  /// tail is exactly a deep copy).
  static Database CopyDb() {
    auto split = MakeTailDelta(dataset_->db, kPublishTable, 0);
    DISTINCT_CHECK(split.ok());
    return std::move(split->first);
  }

  /// Resolves every filtered name group of a fresh batch engine over `db` —
  /// the ground truth the incremental path must reproduce.
  static std::vector<BulkResolution> BatchRebuild(const Database& db,
                                                  int num_threads = 1) {
    auto engine = Distinct::Create(db, DblpReferenceSpec(),
                                   TestConfig(num_threads));
    DISTINCT_CHECK(engine.ok());
    IncrementalCatalog catalog(*engine);
    DISTINCT_CHECK(catalog.Build().ok());
    return catalog.resolutions();
  }

  static DblpDataset* dataset_;
};

DblpDataset* DeltaTest::dataset_ = nullptr;

TEST_F(DeltaTest, MakeTailDeltaSplitsThePublishTable) {
  const int64_t total = (**dataset_->db.FindTable(kPublishTable)).num_rows();
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 25);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ((**split->first.FindTable(kPublishTable)).num_rows(), total - 25);
  EXPECT_EQ(split->second.num_rows(), 25);
  // Other tables are copied whole.
  EXPECT_EQ((**split->first.FindTable(kAuthorsTable)).num_rows(),
            (**dataset_->db.FindTable(kAuthorsTable)).num_rows());
  EXPECT_FALSE(MakeTailDelta(dataset_->db, kPublishTable, total + 1).ok());
  EXPECT_FALSE(MakeTailDelta(dataset_->db, "Nope", 1).ok());
}

TEST_F(DeltaTest, LinkGraphApplyAppendMatchesFreshBuild) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 30);
  ASSERT_TRUE(split.ok());
  Database base = std::move(split->first);

  auto build_schema = [](const Database& db) {
    auto schema = SchemaGraph::Build(db);
    DISTINCT_CHECK(schema.ok());
    for (const auto& [table, column] : DblpDefaultPromotions()) {
      DISTINCT_CHECK(schema->PromoteAttribute(table, column).ok());
    }
    return *std::move(schema);
  };

  const SchemaGraph base_schema = build_schema(base);
  auto appended = LinkGraph::Build(base_schema);
  ASSERT_TRUE(appended.ok());
  Table& publish = **base.FindMutableTable(kPublishTable);
  for (const DatabaseDelta::TableRows& batch : split->second.tables()) {
    for (const std::vector<Value>& row : batch.rows) {
      ASSERT_TRUE(publish.AppendRow(row).ok());
    }
  }
  ASSERT_TRUE(appended->ApplyAppend().ok());

  const SchemaGraph full_schema = build_schema(dataset_->db);
  auto fresh = LinkGraph::Build(full_schema);
  ASSERT_TRUE(fresh.ok());

  ASSERT_EQ(base_schema.num_nodes(), full_schema.num_nodes());
  ASSERT_EQ(base_schema.num_edges(), full_schema.num_edges());
  for (int n = 0; n < full_schema.num_nodes(); ++n) {
    EXPECT_EQ(appended->NumTuples(n), fresh->NumTuples(n)) << "node " << n;
  }
  auto as_vector = [](std::span<const int32_t> span) {
    return std::vector<int32_t>(span.begin(), span.end());
  };
  for (int e = 0; e < full_schema.num_edges(); ++e) {
    const SchemaEdge& edge = full_schema.edge(e);
    for (int32_t t = 0; t < fresh->NumTuples(edge.from_node); ++t) {
      ASSERT_EQ(as_vector(appended->Forward(e, t)),
                as_vector(fresh->Forward(e, t)))
          << "edge " << e << " forward tuple " << t;
    }
    for (int32_t t = 0; t < fresh->NumTuples(edge.to_node); ++t) {
      ASSERT_EQ(as_vector(appended->Reverse(e, t)),
                as_vector(fresh->Reverse(e, t)))
          << "edge " << e << " reverse tuple " << t;
    }
  }
}

// --- Delta validation: every rejection leaves database and engine untouched.

class DeltaValidationTest : public DeltaTest {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(CopyDb());
    auto engine = Distinct::Create(*db_, DblpReferenceSpec(), TestConfig());
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<Distinct>(*std::move(engine));
    rows_before_ = db_->TotalRows();
  }

  void ExpectRejected(const DatabaseDelta& delta, StatusCode code) {
    auto report = engine_->ApplyDelta(*db_, delta);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), code) << report.status().ToString();
    // Nothing mutated: the dry run rejects before any append.
    EXPECT_EQ(db_->TotalRows(), rows_before_);
    EXPECT_EQ(engine_->catalog_version(), 0);
    EXPECT_TRUE(engine_->ResolveName("Wei Wang").ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Distinct> engine_;
  int64_t rows_before_ = 0;
};

TEST_F(DeltaValidationTest, RejectsUnknownTable) {
  DatabaseDelta delta;
  delta.Add("NoSuchTable", {Value::Int(1)});
  ExpectRejected(delta, StatusCode::kNotFound);
}

TEST_F(DeltaValidationTest, RejectsArityMismatch) {
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Int(MaxPrimaryKey(*db_, kAuthorsTable) + 1)});
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

TEST_F(DeltaValidationTest, RejectsTypeMismatch) {
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Int(MaxPrimaryKey(*db_, kAuthorsTable) + 1),
                            Value::Int(7)});  // name column expects a string
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

TEST_F(DeltaValidationTest, RejectsNullPrimaryKey) {
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Null(), Value::Str("Nobody")});
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

TEST_F(DeltaValidationTest, RejectsPrimaryKeyCollidingWithExistingRow) {
  const Table& authors = **db_->FindTable(kAuthorsTable);
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Int(authors.GetInt(0, 0)),
                            Value::Str("Impostor")});
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

TEST_F(DeltaValidationTest, RejectsDuplicatePrimaryKeyWithinTheDelta) {
  const int64_t pk = MaxPrimaryKey(*db_, kAuthorsTable) + 1;
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Int(pk), Value::Str("First")});
  delta.Add(kAuthorsTable, {Value::Int(pk), Value::Str("Second")});
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

TEST_F(DeltaValidationTest, RejectsDanglingForeignKey) {
  const Table& publish = **db_->FindTable(kPublishTable);
  DatabaseDelta delta;
  delta.Add(kPublishTable,
            {Value::Int(MaxPrimaryKey(*db_, kPublishTable) + 1),
             Value::Int(99999999), publish.GetValue(0, 2)});
  ExpectRejected(delta, StatusCode::kFailedPrecondition);
}

TEST_F(DeltaValidationTest, RejectsTheWrongDatabaseInstance) {
  Database other = CopyDb();
  auto report = engine_->ApplyDelta(other, DatabaseDelta{});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// --- The differential harness: incremental must equal batch rebuild.

TEST_F(DeltaTest, TailAppendMatchesBatchRebuild) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);

  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  IncrementalCatalog catalog(*engine);
  ASSERT_TRUE(catalog.Build().ok());

  auto report = catalog.Apply(db, split->second);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_appended, 40);
  EXPECT_EQ(report->new_refs, 40);
  EXPECT_EQ(report->catalog_version, 1);
  EXPECT_EQ(engine->catalog_version(), 1);
  EXPECT_EQ(report->tuple_watermark, db.TotalRows());
  EXPECT_FALSE(report->dirty_names.empty());
  EXPECT_EQ(report->names_reused + report->names_reresolved,
            static_cast<int64_t>(catalog.resolutions().size()));
  // The point of the delta path: most names are untouched and reuse their
  // cached resolution.
  EXPECT_GT(report->names_reused, 0);

  ExpectSameResolutions(catalog.resolutions(), BatchRebuild(db));
}

TEST_F(DeltaTest, HubPaperAndNewAmbiguousAuthorMatchBatchRebuild) {
  Database db = CopyDb();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  IncrementalCatalog catalog(*engine);
  ASSERT_TRUE(catalog.Build().ok());

  const Table& authors = **db.FindTable(kAuthorsTable);
  const Table& publications = **db.FindTable(kPublicationsTable);
  int64_t next_author = MaxPrimaryKey(db, kAuthorsTable) + 1;
  int64_t next_paper = MaxPrimaryKey(db, kPublicationsTable) + 1;
  int64_t next_pub = MaxPrimaryKey(db, kPublishTable) + 1;

  DatabaseDelta delta;
  // A hub paper: the two planted ambiguous names plus ten background
  // authors all on one publication. This is the merging stressor — every
  // pair of its authors gains a shared neighbor, which can pull previously
  // split clusters together.
  const int64_t hub_paper = next_paper++;
  delta.Add(kPublicationsTable, {Value::Int(hub_paper), Value::Str("Hub"),
                                 publications.GetValue(0, kPublicationsProc)});
  int background = 0;
  int hub_rows = 0;
  for (int64_t row = 0; row < authors.num_rows(); ++row) {
    const std::string& name = authors.GetString(row, kAuthorsName);
    const bool ambiguous = name == "Wei Wang" || name == "Jing Li";
    if (!ambiguous && background >= 10) {
      continue;
    }
    background += ambiguous ? 0 : 1;
    ++hub_rows;
    delta.Add(kPublishTable, {Value::Int(next_pub++),
                              Value::Int(authors.GetInt(row, 0)),
                              Value::Int(hub_paper)});
  }
  // A brand-new author whose name collides with a planted case, publishing
  // two papers (one of them new — FK onto a row of this same delta). Their
  // group splits: a new reference cluster appears out of nothing.
  const int64_t new_author = next_author++;
  const int64_t new_paper = next_paper++;
  delta.Add(kAuthorsTable, {Value::Int(new_author), Value::Str("Jing Li")});
  delta.Add(kPublicationsTable,
            {Value::Int(new_paper), Value::Str("Fresh Results"),
             publications.GetValue(0, kPublicationsProc)});
  delta.Add(kPublishTable, {Value::Int(next_pub++), Value::Int(new_author),
                            Value::Int(new_paper)});
  delta.Add(kPublishTable, {Value::Int(next_pub++), Value::Int(new_author),
                            Value::Int(publications.GetInt(0, 0))});

  auto report = catalog.Apply(db, delta);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->new_refs, static_cast<int64_t>(hub_rows) + 2);
  const auto& dirty = report->dirty_names;
  EXPECT_NE(std::find(dirty.begin(), dirty.end(), "Wei Wang"), dirty.end());
  EXPECT_NE(std::find(dirty.begin(), dirty.end(), "Jing Li"), dirty.end());

  ExpectSameResolutions(catalog.resolutions(), BatchRebuild(db));
}

TEST_F(DeltaTest, SequentialDeltasCompose) {
  auto outer = MakeTailDelta(dataset_->db, kPublishTable, 20);
  ASSERT_TRUE(outer.ok());
  auto inner = MakeTailDelta(outer->first, kPublishTable, 20);
  ASSERT_TRUE(inner.ok());
  Database db = std::move(inner->first);

  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  IncrementalCatalog catalog(*engine);
  ASSERT_TRUE(catalog.Build().ok());

  ASSERT_TRUE(catalog.Apply(db, inner->second).ok());
  ExpectSameResolutions(catalog.resolutions(), BatchRebuild(db));
  auto report = catalog.Apply(db, outer->second);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->catalog_version, 2);
  ExpectSameResolutions(catalog.resolutions(), BatchRebuild(db));
}

// Exercised by the TSan job (this binary carries the `parallel` label):
// the incremental path with a worker pool — profile builds fan out over
// shared workspaces — must produce the same bits as the serial
// batch rebuild.
TEST_F(DeltaTest, ParallelIncrementalMatchesSerialBatchRebuild) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);

  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig(4));
  ASSERT_TRUE(engine.ok());
  IncrementalCatalog catalog(*engine);
  ASSERT_TRUE(catalog.Build().ok());
  ASSERT_TRUE(catalog.Apply(db, split->second).ok());

  ExpectSameResolutions(catalog.resolutions(),
                        BatchRebuild(db, /*num_threads=*/1));
}

// The report's dirty-reference list is the splice contract: ascending,
// duplicate-free, aligned with its per-path masks, and covering every
// appended reference row.
TEST_F(DeltaTest, DirtyRefsAreSortedAndCoverAppendedRows) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);
  const int64_t base_rows = (**db.FindTable(kPublishTable)).num_rows();

  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  auto report = engine->ApplyDelta(db, split->second);
  ASSERT_TRUE(report.ok());

  const std::vector<int32_t>& dirty = report->dirty_refs;
  ASSERT_EQ(report->dirty_ref_path_masks.size(), dirty.size());
  EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end()));
  EXPECT_EQ(std::adjacent_find(dirty.begin(), dirty.end()), dirty.end());
  for (const uint64_t mask : report->dirty_ref_path_masks) {
    EXPECT_NE(mask, 0u);  // a dirty reference is dirty on some path
  }
  for (int64_t row = base_rows; row < base_rows + report->new_refs; ++row) {
    EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(),
                                   static_cast<int32_t>(row)))
        << "appended reference row " << row;
  }
}

TEST_F(DeltaTest, PatchResolveArtifactsRejectsNonPrefixRefs) {
  Database db = CopyDb();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  auto refs = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(refs.ok());
  ASSERT_GE(refs->size(), 3u);
  auto artifacts = engine->ResolveRefsArtifacts(*refs);
  ASSERT_TRUE(artifacts.ok());

  std::vector<int32_t> reordered = *refs;
  std::swap(reordered.front(), reordered.back());
  auto patched = engine->PatchResolveArtifacts(*std::move(artifacts),
                                               reordered, /*dirty_refs=*/{});
  EXPECT_EQ(patched.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DeltaTest, EmptyDeltaDirtiesNothing) {
  Database db = CopyDb();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  auto report = engine->ApplyDelta(db, DatabaseDelta{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rows_appended, 0);
  EXPECT_EQ(report->new_refs, 0);
  EXPECT_TRUE(report->dirty_names.empty());
  EXPECT_EQ(report->catalog_version, 1);  // the version still ticks
}

// --- The serving-path seam: splice updates of store and arena.

TEST_F(DeltaTest, ProfileStoreUpdateMatchesFullBuildAfterDelta) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());

  auto before = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(before.ok());
  ASSERT_GE(before->size(), 2u);
  const PropagationOptions& options = engine->config().propagation;
  ProfileStore store =
      ProfileStore::Build(engine->propagation_engine(), engine->paths(),
                          options, *before);
  ProfileArena arena = ProfileArena::FromStore(store);

  auto report = engine->ApplyDelta(db, split->second);
  ASSERT_TRUE(report.ok());

  auto after = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(after.ok());
  ASSERT_GT(after->size(), before->size());  // the tail held Wei Wang rows
  ASSERT_TRUE(std::equal(before->begin(), before->end(), after->begin()));

  // Conservative splice: every old position dirty, new refs appended.
  std::vector<size_t> positions(before->size());
  std::iota(positions.begin(), positions.end(), size_t{0});
  const std::vector<int32_t> appended(after->begin() + before->size(),
                                      after->end());
  store.Update(engine->propagation_engine(), engine->paths(), options,
               positions, appended);
  const ProfileStore full =
      ProfileStore::Build(engine->propagation_engine(), engine->paths(),
                          options, *after);
  ExpectSameProfiles(store, full);
  for (const int32_t ref : *after) {
    EXPECT_GE(store.IndexOf(ref), 0);
  }

  arena.PatchFromStore(store, positions);
  ExpectSameArenas(arena, ProfileArena::FromStore(full));
}

TEST_F(DeltaTest, CleanNameProfilesSurviveTheDeltaVerbatim) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());

  IncrementalCatalog probe(*engine);  // only used to enumerate names
  ASSERT_TRUE(probe.Build().ok());
  std::vector<std::string> names;
  for (const BulkResolution& resolution : probe.resolutions()) {
    names.push_back(resolution.name);
  }

  auto report = engine->ApplyDelta(db, split->second);
  ASSERT_TRUE(report.ok());
  // Pick a name the delta did not dirty; its profiles must be identical
  // before and after — that is what licenses the catalog's reuse.
  std::string clean;
  for (const std::string& name : names) {
    if (std::find(report->dirty_names.begin(), report->dirty_names.end(),
                  name) == report->dirty_names.end()) {
      clean = name;
      break;
    }
  }
  ASSERT_FALSE(clean.empty()) << "every name dirty — grow the corpus";

  auto refs = engine->RefsForName(clean);
  ASSERT_TRUE(refs.ok());
  const PropagationOptions& options = engine->config().propagation;
  ProfileStore store =
      ProfileStore::Build(engine->propagation_engine(), engine->paths(),
                          options, *refs);
  // No positions, no new refs: Update must be a no-op that still equals a
  // full rebuild, proving the kept-verbatim profiles are genuinely
  // unchanged by the append.
  store.Update(engine->propagation_engine(), engine->paths(), options, {}, {});
  ExpectSameProfiles(store, ProfileStore::Build(engine->propagation_engine(),
                                                engine->paths(), options,
                                                *refs));
}

}  // namespace
}  // namespace distinct
