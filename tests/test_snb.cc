// Tests for the SNB-like datagen, the update stream, and — crucially — the
// equivalence of the vanilla and indexed implementations of all seven
// short-read queries, and of the plans the query service runs for them.
#include "snb/short_queries.h"
#include "snb/update_stream.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "indexed/multi_indexed_table.h"
#include "service/query_service.h"

#include <gtest/gtest.h>

namespace idf {
namespace snb {
namespace {

SnbConfig SmallConfig() {
  SnbConfig cfg;
  cfg.scale_factor = 0.2;  // 200 persons
  cfg.seed = 7;
  return cfg;
}

TEST(SnbDatagenTest, DeterministicForSameSeed) {
  SnbDataset a = GenerateSnb(SmallConfig());
  SnbDataset b = GenerateSnb(SmallConfig());
  ASSERT_EQ(a.persons.size(), b.persons.size());
  ASSERT_EQ(a.knows.size(), b.knows.size());
  EXPECT_EQ(a.persons[0], b.persons[0]);
  EXPECT_EQ(a.knows.back(), b.knows.back());
  EXPECT_EQ(a.posts[a.posts.size() / 2], b.posts[b.posts.size() / 2]);
}

TEST(SnbDatagenTest, DifferentSeedsDiffer) {
  SnbConfig c1 = SmallConfig();
  SnbConfig c2 = SmallConfig();
  c2.seed = 8;
  SnbDataset a = GenerateSnb(c1);
  SnbDataset b = GenerateSnb(c2);
  EXPECT_NE(a.persons[0], b.persons[0]);
}

TEST(SnbDatagenTest, SizesScaleWithFactor) {
  SnbConfig small = SmallConfig();
  SnbConfig big = SmallConfig();
  big.scale_factor = 1.0;
  SnbDataset a = GenerateSnb(small);
  SnbDataset b = GenerateSnb(big);
  EXPECT_EQ(a.persons.size(), 200u);
  EXPECT_EQ(b.persons.size(), 1000u);
  EXPECT_GT(b.knows.size(), a.knows.size() * 3);
  EXPECT_EQ(b.posts.size(), 12000u);
  EXPECT_EQ(b.comments.size(), 18000u);
}

TEST(SnbDatagenTest, RowsValidateAgainstSchemas) {
  SnbDataset ds = GenerateSnb(SmallConfig());
  for (const Row& r : ds.persons) ASSERT_TRUE(ValidateRow(*PersonSchema(), r).ok());
  for (const Row& r : ds.knows) ASSERT_TRUE(ValidateRow(*KnowsSchema(), r).ok());
  for (const Row& r : ds.posts) ASSERT_TRUE(ValidateRow(*PostSchema(), r).ok());
  for (const Row& r : ds.comments) {
    ASSERT_TRUE(ValidateRow(*CommentSchema(), r).ok());
  }
  for (const Row& r : ds.forums) ASSERT_TRUE(ValidateRow(*ForumSchema(), r).ok());
  for (const Row& r : ds.forum_members) {
    ASSERT_TRUE(ValidateRow(*ForumMemberSchema(), r).ok());
  }
}

TEST(SnbDatagenTest, ForeignKeysResolve) {
  SnbDataset ds = GenerateSnb(SmallConfig());
  std::set<int64_t> person_ids;
  for (const Row& r : ds.persons) person_ids.insert(r[person::kId].AsInt64());
  for (const Row& r : ds.knows) {
    ASSERT_TRUE(person_ids.count(r[knows::kPerson1].AsInt64()));
    ASSERT_TRUE(person_ids.count(r[knows::kPerson2].AsInt64()));
    ASSERT_NE(r[knows::kPerson1], r[knows::kPerson2]);  // no self-loops
  }
  std::set<int64_t> post_ids;
  for (const Row& r : ds.posts) {
    post_ids.insert(r[post::kId].AsInt64());
    ASSERT_TRUE(person_ids.count(r[post::kCreatorId].AsInt64()));
  }
  for (const Row& r : ds.comments) {
    ASSERT_TRUE(post_ids.count(r[comment::kReplyOfPostId].AsInt64()));
    ASSERT_TRUE(person_ids.count(r[comment::kCreatorId].AsInt64()));
  }
}

TEST(SnbDatagenTest, KnowsEdgesAreSymmetric) {
  SnbDataset ds = GenerateSnb(SmallConfig());
  std::set<std::pair<int64_t, int64_t>> edges;
  for (const Row& r : ds.knows) {
    edges.insert({r[knows::kPerson1].AsInt64(), r[knows::kPerson2].AsInt64()});
  }
  for (const auto& [a, b] : edges) {
    EXPECT_TRUE(edges.count({b, a})) << a << "-" << b;
  }
}

TEST(SnbDatagenTest, AuthorshipIsSkewed) {
  SnbDataset ds = GenerateSnb(SmallConfig());
  std::map<int64_t, int> posts_per_person;
  for (const Row& r : ds.posts) ++posts_per_person[r[post::kCreatorId].AsInt64()];
  int max_posts = 0;
  for (const auto& [id, n] : posts_per_person) max_posts = std::max(max_posts, n);
  double avg = static_cast<double>(ds.posts.size()) /
               static_cast<double>(ds.persons.size());
  EXPECT_GT(max_posts, 3 * avg);  // heavy hitters exist
}

TEST(UpdateStreamTest, FreshIdsContinueBeyondBase) {
  SnbDataset ds = GenerateSnb(SmallConfig());
  UpdateStreamGenerator gen(ds);
  RowVec posts = gen.NextPostBatch(10);
  ASSERT_EQ(posts.size(), 10u);
  for (const Row& r : posts) {
    EXPECT_GE(r[post::kId].AsInt64(), ds.first_post_id + ds.num_posts);
    ASSERT_TRUE(ValidateRow(*PostSchema(), r).ok());
  }
  RowVec comments = gen.NextCommentBatch(10);
  for (const Row& r : comments) {
    EXPECT_GE(r[comment::kId].AsInt64(), ds.first_comment_id + ds.num_comments);
    ASSERT_TRUE(ValidateRow(*CommentSchema(), r).ok());
  }
}

TEST(UpdateStreamTest, KnowsBatchesAreSymmetricPairs) {
  SnbDataset ds = GenerateSnb(SmallConfig());
  UpdateStreamGenerator gen(ds);
  RowVec edges = gen.NextKnowsBatch(5);
  ASSERT_EQ(edges.size(), 10u);
  for (size_t i = 0; i < edges.size(); i += 2) {
    EXPECT_EQ(edges[i][knows::kPerson1], edges[i + 1][knows::kPerson2]);
    EXPECT_EQ(edges[i][knows::kPerson2], edges[i + 1][knows::kPerson1]);
    ASSERT_TRUE(ValidateRow(*KnowsSchema(), edges[i]).ok());
  }
}

class SnbQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    EngineConfig cfg;
    cfg.num_partitions = 4;
    cfg.num_threads = 2;
    cfg.row_batch_bytes = 256 * 1024;
    auto session = Session::Make(cfg).ValueOrDie();
    ctx_ = new SnbContext(
        MakeSnbContext(session, GenerateSnb(SmallConfig())).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }
  static SnbContext* ctx_;
};

SnbContext* SnbQueryTest::ctx_ = nullptr;

class SnbQueryEquivalence : public SnbQueryTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(SnbQueryEquivalence, IndexedMatchesVanilla) {
  const int q = GetParam();
  // Exercise several parameters per query, including misses.
  std::vector<int64_t> params = {DefaultParam(*ctx_, q)};
  if (q <= 3) {
    params.push_back(ctx_->dataset.first_person_id);
    params.push_back(ctx_->dataset.first_person_id + 7);
    params.push_back(-1);  // miss
  } else if (q == 4 || q == 7) {
    params.push_back(ctx_->dataset.first_post_id);
    params.push_back(-1);
  } else {
    params.push_back(ctx_->dataset.first_comment_id);
    params.push_back(-1);
  }
  for (int64_t param : params) {
    RowVec vanilla = RunShortQuery(*ctx_, q, /*indexed=*/false, param).ValueOrDie();
    RowVec indexed = RunShortQuery(*ctx_, q, /*indexed=*/true, param).ValueOrDie();
    SortRows(&vanilla);
    SortRows(&indexed);
    EXPECT_EQ(vanilla, indexed) << "SQ" << q << " param " << param;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSevenQueries, SnbQueryEquivalence,
                         ::testing::Range(1, 8));

TEST_F(SnbQueryTest, DefaultParamsProduceNonEmptyResultsWhereExpected) {
  // SQ1 (profile), SQ4 (message) always hit with the default parameter.
  EXPECT_EQ(RunShortQuery(*ctx_, 1, true, DefaultParam(*ctx_, 1))
                .ValueOrDie()
                .size(),
            1u);
  EXPECT_EQ(RunShortQuery(*ctx_, 4, true, DefaultParam(*ctx_, 4))
                .ValueOrDie()
                .size(),
            1u);
  EXPECT_FALSE(RunShortQuery(*ctx_, 7, true, DefaultParam(*ctx_, 7))
                   .ValueOrDie()
                   .empty());
}

TEST_F(SnbQueryTest, InvalidQueryNumberRejected) {
  EXPECT_TRUE(RunShortQuery(*ctx_, 0, true, 1).status().IsInvalidArgument());
  EXPECT_TRUE(RunShortQuery(*ctx_, 8, true, 1).status().IsInvalidArgument());
}

TEST_F(SnbQueryTest, IndexedPointQueriesUseTheIndex) {
  ctx_->session->metrics().Reset();
  RunShortQuery(*ctx_, 1, /*indexed=*/true, DefaultParam(*ctx_, 1)).ValueOrDie();
  EXPECT_GE(ctx_->session->metrics().index_probes(), 1u);
}

TEST_F(SnbQueryTest, VanillaQueriesDoNotTouchTheIndex) {
  ctx_->session->metrics().Reset();
  RunShortQuery(*ctx_, 1, /*indexed=*/false, DefaultParam(*ctx_, 1)).ValueOrDie();
  EXPECT_EQ(ctx_->session->metrics().index_probes(), 0u);
}

TEST_F(SnbQueryTest, QueriesReflectAppendedData) {
  // Append a fresh burst of replies to the SQ7 post; the indexed query
  // must see them immediately (the paper's updatable-cache claim).
  int64_t post_id = DefaultParam(*ctx_, 7);
  size_t before =
      RunShortQuery(*ctx_, 7, true, post_id).ValueOrDie().size();
  UpdateStreamGenerator gen(ctx_->dataset);
  RowVec burst;
  for (int i = 0; i < 5; ++i) {
    RowVec batch = gen.NextCommentBatch(1);
    batch[0][comment::kReplyOfPostId] = Value(post_id);
    burst.push_back(batch[0]);
  }
  ASSERT_TRUE(ctx_->comment_by_reply->AppendRowsDirect(burst).ok());
  size_t after = RunShortQuery(*ctx_, 7, true, post_id).ValueOrDie().size();
  EXPECT_EQ(after, before + 5);
}

TEST_F(SnbQueryTest, DescriptionsExist) {
  for (int q = 1; q <= 7; ++q) {
    EXPECT_NE(std::string(ShortQueryDescription(q)), "unknown");
  }
}

// SQ1-SQ7 as parameterized SQL, result columns in the vanilla
// RunShortQuery order.
const char* const kShortQuerySql[7] = {
    "SELECT firstName, lastName, gender, birthday, creationDate, locationIP, "
    "browserUsed, cityId FROM person WHERE id = ?",
    "SELECT id, content, creationDate FROM post WHERE creatorId = ? "
    "ORDER BY creationDate DESC LIMIT 10",
    "SELECT p.id, p.firstName, p.lastName, k.creationDate AS friendshipDate "
    "FROM knows k JOIN person p ON k.person2Id = p.id WHERE k.person1Id = ? "
    "ORDER BY k.creationDate DESC",
    "SELECT creationDate, content FROM post WHERE id = ?",
    "SELECT p.id, p.firstName, p.lastName FROM comment c "
    "JOIN person p ON c.creatorId = p.id WHERE c.id = ?",
    "SELECT f.title AS forumTitle, m.firstName AS moderatorFirstName, "
    "m.lastName AS moderatorLastName FROM comment c "
    "JOIN post p ON c.replyOfPostId = p.id JOIN forum f ON p.forumId = f.id "
    "JOIN person m ON f.moderatorId = m.id WHERE c.id = ?",
    "SELECT c.content AS replyContent, p.firstName AS authorFirstName, "
    "p.lastName AS authorLastName FROM comment c "
    "JOIN person p ON c.creatorId = p.id WHERE c.replyOfPostId = ? "
    "ORDER BY c.creationDate DESC",
};

/// The operator kinds of the physical plan in an EXPLAIN rendering,
/// top-down: each line's operator name up to its first '[' or ' '.
std::vector<std::string> OperatorKinds(const std::string& explain) {
  const std::string header = "== Physical Plan ==\n";
  const size_t at = explain.find(header);
  std::istringstream in(at == std::string::npos ? explain
                                                : explain.substr(at + header.size()));
  std::vector<std::string> kinds;
  for (std::string line; std::getline(in, line);) {
    line.erase(0, line.find_first_not_of(' '));
    if (!line.empty()) kinds.push_back(line.substr(0, line.find_first_of("[ ")));
  }
  return kinds;
}

/// The SNB tables registered the way a deployment serves them, both in a
/// QueryService and as Indexed DataFrames in a session over the same live
/// relations: person(id), knows(person1Id), comment(replyOfPostId),
/// forum(id), and post indexed on id and creatorId with a bitmap index on
/// browserUsed.
class SnbServiceTest : public SnbQueryTest {
 protected:
  void SetUp() override {
    ServiceConfig cfg;
    cfg.engine.num_partitions = 4;
    cfg.engine.num_threads = 2;
    service_ = QueryService::Make(cfg).ValueOrDie();
    session_ = Session::Make(cfg.engine).ValueOrDie();
    const SnbDataset& data = ctx_->dataset;
    auto index = [this](SchemaPtr schema, const RowVec& rows, const char* table,
                        int col) {
      auto df = session_->CreateDataFrame(std::move(schema), rows, table).ValueOrDie();
      auto idf = IndexedDataFrame::CreateIndex(df, col, table).ValueOrDie();
      ASSERT_TRUE(service_->RegisterTable(table, idf.relation()).ok());
      ASSERT_TRUE(session_->RegisterTable(table, idf.ToDataFrame()).ok());
    };
    index(PersonSchema(), data.persons, "person", person::kId);
    index(KnowsSchema(), data.knows, "knows", knows::kPerson1);
    index(CommentSchema(), data.comments, "comment", comment::kReplyOfPostId);
    index(ForumSchema(), data.forums, "forum", forum::kId);
    auto post_df = session_->CreateDataFrame(PostSchema(), data.posts, "post")
                       .ValueOrDie();
    auto post = std::make_shared<MultiIndexedTable>(
        MultiIndexedTable::Create(post_df, {"id", "creatorId"}, "post").ValueOrDie());
    ASSERT_TRUE(post->AddBitmapIndex("browserUsed").ok());
    ASSERT_TRUE(service_->RegisterTable("post", post).ok());
    ASSERT_TRUE(session_->RegisterTable("post", post->ToDataFrame().ValueOrDie()).ok());
  }

  static int64_t Param(int q) { return DefaultParam(*ctx_, q); }

  static std::string WithLiteral(int q) {
    std::string sql = kShortQuerySql[q - 1];
    return sql.replace(sql.find('?'), 1, std::to_string(Param(q)));
  }

  QueryServicePtr service_;
  SessionPtr session_;
};

TEST_F(SnbServiceTest, ServicePlansMatchTheDataFrameApi) {
  for (int q = 1; q <= 7; ++q) {
    const std::string sql = WithLiteral(q);
    auto api = OperatorKinds(session_->Sql(sql).ValueOrDie().Explain().ValueOrDie());
    const std::string adhoc = service_->Explain(sql).ValueOrDie();
    auto prep = service_->Prepare(kShortQuerySql[q - 1]).ValueOrDie();
    const std::string prepared = service_->ExplainPrepared(prep.handle).ValueOrDie();
    EXPECT_EQ(OperatorKinds(adhoc), api) << "SQ" << q << "\n" << adhoc;
    EXPECT_EQ(OperatorKinds(prepared), api) << "SQ" << q << "\n" << prepared;
    if (q == 3 || q >= 5) {
      EXPECT_NE(std::find(api.begin(), api.end(), "IndexedEquiJoin"), api.end())
          << "SQ" << q << "\n" << adhoc;
    }
    if (q == 2) {
      // Posts by creator read the post index keyed on creatorId.
      for (const std::string* plan : {&adhoc, &prepared}) {
        EXPECT_NE(plan->find("IndexLookup[post_by_creatorId]"), std::string::npos)
            << *plan;
        EXPECT_EQ(plan->find("IndexedScanFilter"), std::string::npos) << *plan;
      }
    }
    if (q == 4) {
      EXPECT_NE(adhoc.find("IndexLookup[post_by_id]"), std::string::npos) << adhoc;
      EXPECT_NE(prepared.find("IndexLookup[post_by_id]"), std::string::npos)
          << prepared;
    }
    if (q == 6) {
      // The comment lookup probes the post index, not the other way round.
      EXPECT_NE(adhoc.find("IndexedEquiJoin[post_by_id]"), std::string::npos) << adhoc;
      EXPECT_EQ(adhoc.find("IndexedEquiJoin[comment]"), std::string::npos) << adhoc;
    }
  }
}

TEST_F(SnbServiceTest, ServiceResultsMatchVanilla) {
  for (int q = 1; q <= 7; ++q) {
    auto prep = service_->Prepare(kShortQuerySql[q - 1]).ValueOrDie();
    QueryResult prepared = service_->ExecutePrepared(prep.handle, {Value(Param(q))});
    QueryResult adhoc = service_->Execute(WithLiteral(q));
    ASSERT_TRUE(prepared.ok()) << "SQ" << q << ": " << prepared.status.ToString();
    ASSERT_TRUE(adhoc.ok()) << "SQ" << q << ": " << adhoc.status.ToString();
    RowVec vanilla = RunShortQuery(*ctx_, q, /*indexed=*/false, Param(q)).ValueOrDie();
    SortRows(&vanilla);
    SortRows(&prepared.rows);
    SortRows(&adhoc.rows);
    EXPECT_EQ(prepared.rows, vanilla) << "SQ" << q;
    EXPECT_EQ(adhoc.rows, vanilla) << "SQ" << q;
  }
}

}  // namespace
}  // namespace snb
}  // namespace idf
