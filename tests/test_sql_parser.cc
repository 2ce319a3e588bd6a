// Tests for the SQL front-end: parsing, binding, execution equivalence
// with the DataFrame API, and transparent indexed execution of SQL over
// registered Indexed DataFrames.
#include "sql/sql_parser.h"

#include <gtest/gtest.h>

#include "indexed/indexed_dataframe.h"
#include "snb/tables.h"
#include "sql/session.h"

namespace idf {
namespace {

class SqlParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig cfg;
    cfg.num_partitions = 4;
    cfg.num_threads = 2;
    session_ = Session::Make(cfg).ValueOrDie();

    auto people_schema = Schema::Make({{"id", TypeId::kInt64, false},
                                       {"name", TypeId::kString, false},
                                       {"age", TypeId::kInt64, true},
                                       {"city_id", TypeId::kInt64, true}});
    RowVec people;
    for (int64_t i = 0; i < 100; ++i) {
      people.push_back({Value(i), Value("p" + std::to_string(i)),
                        Value(20 + i % 50), Value(i % 10)});
    }
    auto people_df =
        session_->CreateDataFrame(people_schema, people, "people").ValueOrDie();
    ASSERT_TRUE(session_->RegisterTable("people", people_df).ok());

    auto city_schema = Schema::Make({{"cid", TypeId::kInt64, false},
                                     {"city", TypeId::kString, false}});
    RowVec cities;
    for (int64_t c = 0; c < 10; ++c) {
      cities.push_back({Value(c), Value("city" + std::to_string(c))});
    }
    auto city_df =
        session_->CreateDataFrame(city_schema, cities, "cities").ValueOrDie();
    ASSERT_TRUE(session_->RegisterTable("cities", city_df).ok());
  }

  RowVec Run(const std::string& sql) {
    auto df = session_->Sql(sql);
    EXPECT_TRUE(df.ok()) << sql << " -> " << df.status().ToString();
    auto rows = df->Collect();
    EXPECT_TRUE(rows.ok()) << sql << " -> " << rows.status().ToString();
    return std::move(rows).ValueOrDie();
  }

  Status Fails(const std::string& sql) {
    auto df = session_->Sql(sql);
    if (!df.ok()) return df.status();
    auto rows = df->Collect();
    return rows.status();
  }

  SessionPtr session_;
};

TEST_F(SqlParserTest, SelectStar) {
  RowVec rows = Run("SELECT * FROM people");
  EXPECT_EQ(rows.size(), 100u);
  ASSERT_EQ(rows[0].size(), 4u);
}

TEST_F(SqlParserTest, SelectColumns) {
  RowVec rows = Run("SELECT name, age FROM people");
  ASSERT_EQ(rows.size(), 100u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_TRUE(rows[0][0].is_string());
}

TEST_F(SqlParserTest, SchemaNamesFromAliases) {
  auto df = session_->Sql("SELECT age * 2 AS doubled, name FROM people")
                .ValueOrDie();
  auto schema = df.schema().ValueOrDie();
  EXPECT_EQ(schema->field(0).name, "doubled");
  EXPECT_EQ(schema->field(1).name, "name");
}

TEST_F(SqlParserTest, WhereEquality) {
  RowVec rows = Run("SELECT id FROM people WHERE id = 42");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int64_t{42}));
}

TEST_F(SqlParserTest, WhereComparisonsAndLogic) {
  EXPECT_EQ(Run("SELECT id FROM people WHERE id < 10").size(), 10u);
  EXPECT_EQ(Run("SELECT id FROM people WHERE id <= 10").size(), 11u);
  EXPECT_EQ(Run("SELECT id FROM people WHERE id >= 90 AND id != 95").size(), 9u);
  EXPECT_EQ(Run("SELECT id FROM people WHERE id < 2 OR id > 97").size(), 4u);
  EXPECT_EQ(Run("SELECT id FROM people WHERE NOT id < 50").size(), 50u);
  EXPECT_EQ(Run("SELECT id FROM people WHERE id <> 0").size(), 99u);
}

TEST_F(SqlParserTest, WhereStringLiteral) {
  RowVec rows = Run("SELECT id FROM people WHERE name = 'p7'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int64_t{7}));
}

TEST_F(SqlParserTest, StringEscapedQuote) {
  auto schema = Schema::Make({{"s", TypeId::kString, false}});
  auto df = session_->CreateDataFrame(schema, {{Value("it's")}}, "q").ValueOrDie();
  ASSERT_TRUE(session_->RegisterTable("q", df).ok());
  RowVec rows = Run("SELECT s FROM q WHERE s = 'it''s'");
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(SqlParserTest, BetweenDesugars) {
  EXPECT_EQ(Run("SELECT id FROM people WHERE id BETWEEN 10 AND 19").size(), 10u);
}

TEST_F(SqlParserTest, InList) {
  EXPECT_EQ(Run("SELECT id FROM people WHERE id IN (1, 5, 9, 500)").size(), 3u);
  EXPECT_EQ(Run("SELECT id FROM people WHERE id NOT IN (1, 5)").size(), 98u);
}

TEST_F(SqlParserTest, UnionAllConcatenates) {
  RowVec rows = Run(
      "SELECT id FROM people WHERE id < 3 UNION ALL SELECT id FROM people "
      "WHERE id >= 97");
  EXPECT_EQ(rows.size(), 6u);
}

TEST_F(SqlParserTest, UnionAllWithOrderByAndLimitAppliesToWhole) {
  RowVec rows = Run(
      "SELECT id FROM people WHERE id < 3 UNION ALL SELECT id FROM people "
      "WHERE id >= 97 ORDER BY id DESC LIMIT 4");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0], Value(int64_t{99}));
  EXPECT_EQ(rows[3][0], Value(int64_t{2}));
}

TEST_F(SqlParserTest, UnionAllKeepsDuplicates) {
  RowVec rows = Run(
      "SELECT id FROM people WHERE id = 5 UNION ALL SELECT id FROM people "
      "WHERE id = 5");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(SqlParserTest, UnionAllTypeMismatchRejected) {
  EXPECT_FALSE(
      Fails("SELECT id FROM people UNION ALL SELECT name FROM people").ok());
  EXPECT_FALSE(
      Fails("SELECT id FROM people UNION ALL SELECT id, age FROM people").ok());
  // Plain UNION (distinct) is unsupported; the error should say so.
  EXPECT_FALSE(
      Fails("SELECT id FROM people UNION SELECT id FROM people").ok());
}

TEST_F(SqlParserTest, DataFrameUnionAllApi) {
  auto people = session_->Table("people").ValueOrDie();
  auto low = people.Filter(Lt(Col("id"), Lit(Value(int64_t{10})))).ValueOrDie();
  auto high = people.Filter(Ge(Col("id"), Lit(Value(int64_t{95})))).ValueOrDie();
  auto u = low.UnionAll(high).ValueOrDie();
  EXPECT_EQ(u.Count().ValueOrDie(), 15u);
  // Unions compose with aggregation.
  auto agg = u.Aggregate({}, {CountStar("n")}).ValueOrDie();
  EXPECT_EQ(agg.Collect().ValueOrDie()[0][0], Value(int64_t{15}));
}

TEST_F(SqlParserTest, LikePatterns) {
  EXPECT_EQ(Run("SELECT id FROM people WHERE name LIKE 'p1%'").size(),
            11u);  // p1, p10..p19
  EXPECT_EQ(Run("SELECT id FROM people WHERE name LIKE 'p_'").size(), 10u);
  EXPECT_EQ(Run("SELECT id FROM people WHERE name NOT LIKE 'p%'").size(), 0u);
  EXPECT_FALSE(Fails("SELECT id FROM people WHERE name LIKE 5").ok());
}

TEST_F(SqlParserTest, IsNullAndIsNotNull) {
  auto schema = Schema::Make({{"v", TypeId::kInt64, true}});
  auto df = session_
                ->CreateDataFrame(schema, {{Value(int64_t{1})}, {Value::Null()}},
                                  "nullable")
                .ValueOrDie();
  ASSERT_TRUE(session_->RegisterTable("nullable", df).ok());
  EXPECT_EQ(Run("SELECT v FROM nullable WHERE v IS NULL").size(), 1u);
  EXPECT_EQ(Run("SELECT v FROM nullable WHERE v IS NOT NULL").size(), 1u);
}

TEST_F(SqlParserTest, ArithmeticInSelectAndWhere) {
  RowVec rows = Run("SELECT id + 1000 AS shifted FROM people WHERE id * 2 = 10");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int64_t{1005}));
}

TEST_F(SqlParserTest, NegativeLiterals) {
  EXPECT_EQ(Run("SELECT id FROM people WHERE id > -5").size(), 100u);
  RowVec rows = Run("SELECT -3 AS neg FROM people LIMIT 1");
  EXPECT_EQ(rows[0][0], Value(int64_t{-3}));
}

TEST_F(SqlParserTest, OrderByAndLimit) {
  RowVec rows = Run("SELECT id FROM people ORDER BY id DESC LIMIT 3");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value(int64_t{99}));
  EXPECT_EQ(rows[2][0], Value(int64_t{97}));
}

TEST_F(SqlParserTest, OrderByColumnNotInProjection) {
  RowVec rows = Run("SELECT name FROM people ORDER BY id ASC LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value("p0"));
  EXPECT_EQ(rows[1][0], Value("p1"));
}

TEST_F(SqlParserTest, GlobalAggregates) {
  RowVec rows = Run("SELECT COUNT(*), SUM(age), MIN(id), MAX(id), AVG(age) "
                    "FROM people");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int64_t{100}));
  EXPECT_EQ(rows[0][2], Value(int64_t{0}));
  EXPECT_EQ(rows[0][3], Value(int64_t{99}));
}

TEST_F(SqlParserTest, GroupByWithAggregates) {
  RowVec rows = Run(
      "SELECT city_id, COUNT(*) AS n FROM people GROUP BY city_id ORDER BY "
      "city_id");
  ASSERT_EQ(rows.size(), 10u);
  for (int64_t c = 0; c < 10; ++c) {
    EXPECT_EQ(rows[static_cast<size_t>(c)][0], Value(c));
    EXPECT_EQ(rows[static_cast<size_t>(c)][1], Value(int64_t{10}));
  }
}

/// SNB-shaped `post` and `comment` tables for the grouped-join ORDER BY
/// cases. Per post browser: Chrome 3 comments, Safari 3, Firefox 1. Per
/// comment creator: 5 -> 3, 7 -> 2, 1 -> 1, 9 -> 1. Comment browsers: Opera
/// 4, Edge 3.
void RegisterSnbPair(const SessionPtr& session) {
  RowVec posts;
  const char* browsers[] = {"Chrome", "Firefox", "Safari"};
  for (int64_t id = 1; id <= 3; ++id) {
    posts.push_back({Value(id), Value(int64_t{100}), Value(int64_t{0}),
                     Value(int64_t{0}), Value("ip"), Value(browsers[id - 1]),
                     Value("text"), Value(int32_t{4})});
  }
  // (creatorId, replyOfPostId, browserUsed)
  const struct {
    int64_t creator;
    int64_t post;
    const char* browser;
  } comments[] = {{9, 1, "Opera"}, {5, 1, "Edge"},  {5, 1, "Opera"},
                  {1, 2, "Edge"},  {7, 3, "Opera"}, {7, 3, "Opera"},
                  {5, 3, "Edge"}};
  RowVec rows;
  int64_t id = 10;
  for (const auto& c : comments) {
    rows.push_back({Value(id++), Value(c.creator), Value(int64_t{0}), Value("ip"),
                    Value(c.browser), Value("reply"), Value(int32_t{5}),
                    Value(c.post)});
  }
  auto post_df =
      session->CreateDataFrame(snb::PostSchema(), posts, "post").ValueOrDie();
  ASSERT_TRUE(session->RegisterTable("post", post_df).ok());
  auto comment_df =
      session->CreateDataFrame(snb::CommentSchema(), rows, "comment").ValueOrDie();
  ASSERT_TRUE(session->RegisterTable("comment", comment_df).ok());
}

TEST_F(SqlParserTest, QualifiedOrderByKeyOverGroupedJoinAggregate) {
  RegisterSnbPair(session_);
  const std::vector<Row> by_post_browser = {
      {Value("Chrome"), Value(int64_t{3})},
      {Value("Safari"), Value(int64_t{3})},
      {Value("Firefox"), Value(int64_t{1})}};
  // Qualified and unqualified keys name the same select item.
  for (const char* key : {"p.browserUsed", "browserUsed"}) {
    EXPECT_EQ(Run(std::string("SELECT p.browserUsed, COUNT(*) AS n FROM comment c "
                              "JOIN post p ON c.replyOfPostId = p.id GROUP BY "
                              "p.browserUsed ORDER BY n DESC, ") +
                  key),
              by_post_browser)
        << key;
  }
  EXPECT_EQ(Run("SELECT c.browserUsed, COUNT(*) AS n FROM comment c JOIN post p "
                "ON c.replyOfPostId = p.id GROUP BY c.browserUsed ORDER BY n "
                "DESC, c.browserUsed"),
            (std::vector<Row>{{Value("Opera"), Value(int64_t{4})},
                              {Value("Edge"), Value(int64_t{3})}}));
}

TEST_F(SqlParserTest, QualifiedOrderByKeyNamingNoSelectItemIsRejected) {
  RegisterSnbPair(session_);
  // `c.creatorId` is not selected; its FROM-scope ordinal would land on
  // `n` over the projection.
  Status st = Fails(
      "SELECT p.browserUsed, COUNT(*) AS n FROM comment c JOIN post p ON "
      "c.replyOfPostId = p.id GROUP BY p.browserUsed ORDER BY c.creatorId");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("ORDER BY"), std::string::npos);
}

TEST_F(SqlParserTest, QualifiedIntegerOrderByKeySortsByItsOwnColumn) {
  RegisterSnbPair(session_);
  // `c.creatorId` is FROM-scope ordinal 1, which over the projection is
  // `n`: a key left on that ordinal would sort by the count instead.
  EXPECT_EQ(Run("SELECT c.creatorId, COUNT(*) AS n FROM comment c JOIN post p "
                "ON c.replyOfPostId = p.id GROUP BY c.creatorId ORDER BY "
                "c.creatorId DESC"),
            (std::vector<Row>{{Value(int64_t{9}), Value(int64_t{1})},
                              {Value(int64_t{7}), Value(int64_t{2})},
                              {Value(int64_t{5}), Value(int64_t{3})},
                              {Value(int64_t{1}), Value(int64_t{1})}}));
  EXPECT_EQ(Run("SELECT c.creatorId, COUNT(*) AS n FROM comment c JOIN post p "
                "ON c.replyOfPostId = p.id GROUP BY c.creatorId ORDER BY n "
                "DESC, c.creatorId"),
            (std::vector<Row>{{Value(int64_t{5}), Value(int64_t{3})},
                              {Value(int64_t{7}), Value(int64_t{2})},
                              {Value(int64_t{1}), Value(int64_t{1})},
                              {Value(int64_t{9}), Value(int64_t{1})}}));
}

TEST_F(SqlParserTest, GroupBySelectItemMustBeGrouped) {
  Status st = Fails("SELECT name, COUNT(*) FROM people GROUP BY city_id");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("GROUP BY"), std::string::npos);
}

TEST_F(SqlParserTest, Having) {
  // Only city 3 gets extra members via a second registered view.
  RowVec rows = Run(
      "SELECT city_id, COUNT(*) AS n FROM people WHERE id < 31 GROUP BY "
      "city_id HAVING COUNT(*) > 3 ORDER BY city_id");
  // ids 0..30: city 0 has 4 (0,10,20,30); cities 1..9 have 3 each.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int64_t{0}));
  EXPECT_EQ(rows[0][1], Value(int64_t{4}));
}

TEST_F(SqlParserTest, HavingReusesSelectAggregate) {
  RowVec rows = Run(
      "SELECT city_id, COUNT(*) AS n FROM people GROUP BY city_id HAVING n "
      "= 10 ORDER BY city_id");
  EXPECT_EQ(rows.size(), 10u);
  ASSERT_EQ(rows[0].size(), 2u);  // hidden aggregates are projected away
}

TEST_F(SqlParserTest, Distinct) {
  RowVec rows = Run("SELECT DISTINCT city_id FROM people ORDER BY city_id");
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0][0], Value(int64_t{0}));
  EXPECT_EQ(rows[9][0], Value(int64_t{9}));
}

TEST_F(SqlParserTest, JoinWithQualifiedKeys) {
  RowVec rows = Run(
      "SELECT p.name, c.city FROM people p JOIN cities c ON p.city_id = "
      "c.cid WHERE p.id = 17");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("p17"));
  EXPECT_EQ(rows[0][1], Value("city7"));
}

TEST_F(SqlParserTest, JoinConditionOrderIrrelevant) {
  RowVec a = Run(
      "SELECT p.id FROM people p JOIN cities c ON p.city_id = c.cid");
  RowVec b = Run(
      "SELECT p.id FROM people p JOIN cities c ON c.cid = p.city_id");
  SortRows(&a);
  SortRows(&b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);
}

TEST_F(SqlParserTest, ThreeWayJoin) {
  auto extra_schema = Schema::Make({{"city_ref", TypeId::kInt64, false},
                                    {"population", TypeId::kInt64, false}});
  RowVec extra;
  for (int64_t c = 0; c < 10; ++c) extra.push_back({Value(c), Value(c * 1000)});
  auto df = session_->CreateDataFrame(extra_schema, extra, "stats").ValueOrDie();
  ASSERT_TRUE(session_->RegisterTable("stats", df).ok());
  RowVec rows = Run(
      "SELECT p.name, c.city, s.population FROM people p "
      "JOIN cities c ON p.city_id = c.cid "
      "JOIN stats s ON c.cid = s.city_ref WHERE p.id = 5");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][2], Value(int64_t{5000}));
}

TEST_F(SqlParserTest, QualifiedRefsDisambiguateDuplicateNames) {
  // Self-join: both sides expose "id"; qualification picks the right one.
  RowVec rows = Run(
      "SELECT a.id, b.id FROM people a JOIN people b ON a.city_id = b.id "
      "WHERE a.id = 12");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int64_t{12}));
  EXPECT_EQ(rows[0][1], Value(int64_t{2}));  // city_id of 12 is 2
}

TEST_F(SqlParserTest, MatchesDataFrameApiResults) {
  RowVec via_sql = Run(
      "SELECT city_id, COUNT(*) AS n, SUM(age) AS total FROM people WHERE id "
      ">= 20 GROUP BY city_id");
  auto people = session_->Table("people").ValueOrDie();
  RowVec via_api = people.Filter(Ge(Col("id"), Lit(Value(int64_t{20}))))
                       .ValueOrDie()
                       .GroupByAgg({"city_id"}, {CountStar("n"),
                                                 SumOf(Col("age"), "total")})
                       .ValueOrDie()
                       .Collect()
                       .ValueOrDie();
  SortRows(&via_sql);
  SortRows(&via_api);
  EXPECT_EQ(via_sql, via_api);
}

TEST_F(SqlParserTest, SqlOverIndexedDataFrameUsesIndex) {
  auto people = session_->Table("people").ValueOrDie();
  auto indexed =
      IndexedDataFrame::CreateIndex(people, "id", "people_idx").ValueOrDie();
  ASSERT_TRUE(
      session_->RegisterTable("people_indexed", indexed.ToDataFrame()).ok());
  auto df =
      session_->Sql("SELECT name FROM people_indexed WHERE id = 33").ValueOrDie();
  std::string plan = df.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedLookup"), std::string::npos);
  RowVec rows = df.Collect().ValueOrDie();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("p33"));
}

TEST_F(SqlParserTest, SqlFilterReachesIndexThroughJoin) {
  // WHERE p.id = 33 sits above the join in the parsed plan; predicate
  // pushdown moves it onto the IndexedScan, where the indexed filter rule
  // turns it into a point lookup — SQL-to-index, end to end.
  auto people = session_->Table("people").ValueOrDie();
  auto indexed =
      IndexedDataFrame::CreateIndex(people, "id", "people_idx2").ValueOrDie();
  ASSERT_TRUE(
      session_->RegisterTable("ipeople", indexed.ToDataFrame()).ok());
  auto df = session_
                ->Sql("SELECT p.name, c.city FROM ipeople p JOIN cities c ON "
                      "p.city_id = c.cid WHERE p.id = 33")
                .ValueOrDie();
  std::string plan = df.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedLookup"), std::string::npos) << plan;
  RowVec rows = df.Collect().ValueOrDie();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("p33"));
  EXPECT_EQ(rows[0][1], Value("city3"));
}

TEST_F(SqlParserTest, SqlInListOverIndexBecomesMultiKeyLookup) {
  auto people = session_->Table("people").ValueOrDie();
  auto indexed =
      IndexedDataFrame::CreateIndex(people, "id", "people_in_idx").ValueOrDie();
  ASSERT_TRUE(session_->RegisterTable("ip", indexed.ToDataFrame()).ok());
  auto df = session_->Sql("SELECT name FROM ip WHERE id IN (3, 7, 11, 500)")
                .ValueOrDie();
  std::string plan = df.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedLookup"), std::string::npos) << plan;
  EXPECT_EQ(df.Count().ValueOrDie(), 3u);  // 500 misses
}

TEST_F(SqlParserTest, BatchOrderingLetsPushdownPrecedeIndexedRewrites) {
  // Two indexed tables joined on one index with a filter on the other: the
  // generic pushdown batch must run before the extension batch so the plan
  // becomes IndexedJoin over IndexedLookup (not a post-join filter).
  auto people = session_->Table("people").ValueOrDie();
  auto by_id =
      IndexedDataFrame::CreateIndex(people, "id", "p_by_id").ValueOrDie();
  auto by_city =
      IndexedDataFrame::CreateIndex(people, "city_id", "p_by_city").ValueOrDie();
  ASSERT_TRUE(session_->RegisterTable("p_by_id", by_id.ToDataFrame()).ok());
  ASSERT_TRUE(
      session_->RegisterTable("p_by_city", by_city.ToDataFrame()).ok());
  auto df = session_
                ->Sql("SELECT a.name, b.name FROM p_by_city a JOIN p_by_id b "
                      "ON a.id = b.id WHERE a.city_id = 4")
                .ValueOrDie();
  std::string plan = df.Explain().ValueOrDie();
  EXPECT_NE(plan.find("IndexedLookup [p_by_city] key=4"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("IndexedJoin [p_by_id]"), std::string::npos) << plan;
  RowVec rows = df.Collect().ValueOrDie();
  EXPECT_EQ(rows.size(), 10u);  // city 4 has ids 4, 14, ..., 94
  for (const Row& row : rows) EXPECT_EQ(row[0], row[1]);
}

TEST_F(SqlParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_EQ(Run("select id from people where id = 1 order by id limit 5").size(),
            1u);
}

TEST_F(SqlParserTest, ErrorsAreDescriptive) {
  EXPECT_NE(Fails("SELECT").message().find("FROM"), std::string::npos);
  EXPECT_NE(Fails("SELECT * FROM nope").message().find("not registered"),
            std::string::npos);
  EXPECT_NE(Fails("SELECT zz FROM people").message().find("zz"),
            std::string::npos);
  EXPECT_FALSE(Fails("SELECT * FROM people WHERE").ok());
  EXPECT_FALSE(Fails("SELECT * FROM people LIMIT x").ok());
  EXPECT_FALSE(Fails("SELECT * FROM people trailing garbage (").ok());
  EXPECT_FALSE(Fails("SELECT id FROM people p JOIN cities c ON p.id = p.id").ok());
  EXPECT_FALSE(Fails("SELECT * FROM people WHERE name = 'unterminated").ok());
  EXPECT_FALSE(Fails("SELECT COUNT(*) FROM people HAVING 1 = 1 GROUP").ok());
}

TEST_F(SqlParserTest, SemanticErrorsFailAtSqlTime) {
  // Eager analysis: type mismatch is reported by Sql(), not Collect().
  auto df = session_->Sql("SELECT * FROM people WHERE name = 5");
  EXPECT_TRUE(df.status().IsTypeError());
}

TEST_F(SqlParserTest, DuplicateAliasRejected) {
  EXPECT_FALSE(
      Fails("SELECT * FROM people p JOIN cities p ON p.cid = p.cid").ok());
}

TEST_F(SqlParserTest, AggregateInWhereRejected) {
  EXPECT_FALSE(Fails("SELECT id FROM people WHERE COUNT(*) > 1").ok());
}

TEST_F(SqlParserTest, RegisterTableReplaces) {
  auto schema = Schema::Make({{"x", TypeId::kInt64, false}});
  auto df1 = session_->CreateDataFrame(schema, {{Value(int64_t{1})}}, "v")
                 .ValueOrDie();
  auto df2 = session_
                 ->CreateDataFrame(schema, {{Value(int64_t{1})},
                                            {Value(int64_t{2})}},
                                   "v")
                 .ValueOrDie();
  ASSERT_TRUE(session_->RegisterTable("view", df1).ok());
  EXPECT_EQ(Run("SELECT * FROM view").size(), 1u);
  ASSERT_TRUE(session_->RegisterTable("view", df2).ok());
  EXPECT_EQ(Run("SELECT * FROM view").size(), 2u);
}

TEST_F(SqlParserTest, TableNamesLists) {
  auto names = session_->TableNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "people"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "cities"), names.end());
}

}  // namespace
}  // namespace idf
