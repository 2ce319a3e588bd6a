// Property-based and fuzz-style tests: randomized inputs against model
// implementations and malformed-input robustness.
#include <atomic>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "ctrie/ctrie.h"
#include "ctrie_deep_keys.h"
#include "indexed/indexed_partition.h"
#include "io/csv.h"
#include "sql/predicate_compiler.h"
#include "sql/session.h"
#include "sql/vectorized_eval.h"
#include "storage/row_batch.h"
#include "storage/row_batch_store.h"

namespace idf {
namespace {

// ---------------------------------------------------------------------------
// CTrie vs std::map model
// ---------------------------------------------------------------------------

class CTrieModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CTrieModelTest, RandomOpsMatchModelAndSnapshotsStayFrozen) {
  Random64 rng(GetParam());
  // Keys sharing their first nine trie levels on odd seeds: deep paths.
  const bool deep = GetParam() % 2 != 0;
  CTrie trie;
  std::map<uint64_t, uint64_t> model;

  const uint64_t key_space = 1 + rng.Uniform(500);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t i = rng.Uniform(key_space);
    const uint64_t key = deep ? DeepKey(i) : i;
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
      case 2: {  // lookup
        auto got = trie.Lookup(key);
        auto it = model.find(key);
        ASSERT_EQ(got.has_value(), it != model.end()) << "op " << op;
        if (got.has_value()) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      case 3: {  // in-place store into a present key's cell
        std::atomic<uint64_t>* cell = trie.Cell(key);
        ASSERT_EQ(cell != nullptr, model.count(key) == 1) << "op " << op;
        if (cell != nullptr) {
          const uint64_t value = rng.Next();
          cell->store(value);
          model[key] = value;
        }
        break;
      }
      default: {  // insert/update
        uint64_t value = rng.Next();
        auto prev = trie.Insert(key, value);
        auto it = model.find(key);
        if (it == model.end()) {
          ASSERT_FALSE(prev.has_value()) << "op " << op;
        } else {
          ASSERT_TRUE(prev.has_value());
          ASSERT_EQ(*prev, it->second);
        }
        model[key] = value;
        break;
      }
    }
  }

  // Final state equals the model, by lookup and by a live walk.
  ASSERT_EQ(trie.Size(), model.size());
  ASSERT_EQ(trie.size_hint(), model.size());
  for (const auto& [k, v] : model) {
    auto got = trie.Lookup(k);
    ASSERT_TRUE(got.has_value()) << k;
    ASSERT_EQ(*got, v);
  }
  std::map<uint64_t, uint64_t> contents;
  trie.ForEach([&contents](uint64_t k, uint64_t v) { contents[k] = v; });
  ASSERT_EQ(contents, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CTrieModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Row encoding over random schemas
// ---------------------------------------------------------------------------

class RowCodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowCodecFuzzTest, RandomSchemasRoundTrip) {
  Random64 rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    int num_fields = 1 + static_cast<int>(rng.Uniform(20));
    std::vector<Field> fields;
    for (int f = 0; f < num_fields; ++f) {
      TypeId type = static_cast<TypeId>(rng.Uniform(6));
      fields.push_back({"c" + std::to_string(f), type, true});
    }
    auto schema = Schema::Make(std::move(fields));

    Row row;
    for (int f = 0; f < num_fields; ++f) {
      if (rng.Uniform(5) == 0) {
        row.push_back(Value::Null());
        continue;
      }
      switch (schema->field(f).type) {
        case TypeId::kBool:
          row.push_back(Value(rng.Uniform(2) == 0));
          break;
        case TypeId::kInt32:
          row.push_back(Value(static_cast<int32_t>(rng.Next())));
          break;
        case TypeId::kInt64:
        case TypeId::kTimestamp:
          row.push_back(Value(static_cast<int64_t>(rng.Next())));
          break;
        case TypeId::kFloat64:
          row.push_back(Value(rng.NextDouble() * 1e9));
          break;
        case TypeId::kString: {
          std::string s;
          size_t len = rng.Uniform(50);
          for (size_t i = 0; i < len; ++i) {
            s.push_back(static_cast<char>(rng.Uniform(256)));
          }
          row.push_back(Value(std::move(s)));
          break;
        }
      }
    }
    std::vector<uint8_t> buf;
    ASSERT_TRUE(EncodeRow(*schema, row, &buf).ok()) << trial;
    ASSERT_EQ(DecodeRow(buf.data(), *schema), row) << trial;
    ASSERT_EQ(EncodedRowSize(buf.data(), *schema), buf.size()) << trial;
    // Per-column decode agrees with the full decode.
    for (int f = 0; f < num_fields; ++f) {
      ASSERT_EQ(DecodeColumn(buf.data(), *schema, f), row[static_cast<size_t>(f)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowCodecFuzzTest, ::testing::Values(101, 202, 303));

// ---------------------------------------------------------------------------
// SQL parser robustness: malformed input must error, never crash
// ---------------------------------------------------------------------------

TEST(SqlFuzzTest, TruncationsOfValidQueriesNeverCrash) {
  auto session = Session::Make().ValueOrDie();
  auto schema = Schema::Make({{"a", TypeId::kInt64, false},
                              {"b", TypeId::kString, true}});
  auto df = session->CreateDataFrame(schema, {{Value(int64_t{1}), Value("x")}},
                                     "t")
                .ValueOrDie();
  ASSERT_TRUE(session->RegisterTable("t", df).ok());
  const std::string query =
      "SELECT a, COUNT(*) AS n FROM t WHERE a BETWEEN 1 AND 5 AND b IN "
      "('x','y') GROUP BY a HAVING n > 0 ORDER BY a DESC LIMIT 3";
  for (size_t len = 0; len <= query.size(); ++len) {
    auto result = session->Sql(query.substr(0, len));
    if (len == query.size()) {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
    // Shorter prefixes may parse or fail; either way, no crash and a
    // Status-carrying result.
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(SqlFuzzTest, RandomTokenSoupNeverCrashes) {
  auto session = Session::Make().ValueOrDie();
  auto schema = Schema::Make({{"a", TypeId::kInt64, false}});
  auto df =
      session->CreateDataFrame(schema, {{Value(int64_t{1})}}, "t").ValueOrDie();
  ASSERT_TRUE(session->RegisterTable("t", df).ok());
  const char* fragments[] = {"SELECT", "FROM",  "WHERE", "t",     "a",
                             "*",      ",",     "(",     ")",     "=",
                             "1",      "'s'",   "AND",   "JOIN",  "ON",
                             "GROUP",  "BY",    "COUNT", "LIMIT", ".",
                             "LEFT",   "<",     "-",     "BETWEEN"};
  Random64 rng(2026);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string q;
    size_t len = 1 + rng.Uniform(15);
    for (size_t i = 0; i < len; ++i) {
      q += fragments[rng.Uniform(sizeof(fragments) / sizeof(fragments[0]))];
      q += ' ';
    }
    auto result = session->Sql(q);  // must never crash
    if (result.ok()) {
      // A random accidental success must still collect without crashing.
      (void)result->Collect();
    }
  }
}

TEST(SqlFuzzTest, RandomBytesNeverCrashLexer) {
  auto session = Session::Make().ValueOrDie();
  Random64 rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string q = "SELECT ";
    size_t len = rng.Uniform(40);
    for (size_t i = 0; i < len; ++i) {
      q.push_back(static_cast<char>(32 + rng.Uniform(95)));  // printable
    }
    (void)session->Sql(q);
  }
}

// ---------------------------------------------------------------------------
// Compiled predicates vs the interpreter: random schemas, rows (with
// nulls), and predicate trees. The compiled program must match Expr::Eval
// bit-for-bit (three-valued result, not just the filter decision), and
// SplitForCompilation must reproduce the original filter decision as
// compiled-part AND residual even when some conjuncts fall back.
// ---------------------------------------------------------------------------

// A type-disciplined random literal that lands near the row-value pools so
// comparisons hit equality, both zero signs, and type-widening boundaries.
Value RandomLiteral(Random64& rng, TypeId col_type) {
  switch (rng.Uniform(6)) {
    case 0:
      return Value(static_cast<int64_t>(rng.Uniform(7)) - 3);
    case 1:
      return Value(static_cast<int32_t>(rng.Uniform(7)) - 3);
    case 2: {
      const double pool[] = {-0.0, 0.0, 0.5, 1.0, 2.5, -1.0,
                             std::numeric_limits<double>::quiet_NaN()};
      return Value(pool[rng.Uniform(7)]);
    }
    case 3:
      return Value(rng.Uniform(2) == 0);
    case 4: {
      const char* pool[] = {"", "a", "ab", "abc", "b", "\x80z"};
      return Value(std::string(pool[rng.Uniform(6)]));
    }
    default:
      // Bias toward the column's own type for frequent equal/compare hits.
      switch (col_type) {
        case TypeId::kBool:
          return Value(rng.Uniform(2) == 0);
        case TypeId::kInt32:
          return Value(static_cast<int32_t>(rng.Uniform(7)) - 3);
        case TypeId::kInt64:
        case TypeId::kTimestamp:
          return Value(static_cast<int64_t>(rng.Uniform(7)) - 3);
        case TypeId::kFloat64:
          return Value(static_cast<double>(rng.Uniform(5)) - 1.5);
        case TypeId::kString: {
          const char* pool[] = {"", "a", "ab", "abc", "b", "\x80z"};
          return Value(std::string(pool[rng.Uniform(6)]));
        }
      }
      return Value::Null();
  }
}

Value RandomCell(Random64& rng, TypeId type) {
  if (rng.Uniform(5) == 0) return Value::Null();
  switch (type) {
    case TypeId::kBool:
      return Value(rng.Uniform(2) == 0);
    case TypeId::kInt32:
      return Value(static_cast<int32_t>(rng.Uniform(9)) - 4);
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return Value(static_cast<int64_t>(rng.Uniform(9)) - 4);
    case TypeId::kFloat64: {
      const double pool[] = {-0.0, 0.0, 0.5, 1.0, 2.5, -1.0, 3.0};
      return Value(pool[rng.Uniform(7)]);
    }
    case TypeId::kString: {
      const char* pool[] = {"", "a", "ab", "abc", "b", "\x80z"};
      return Value(std::string(pool[rng.Uniform(6)]));
    }
  }
  return Value::Null();
}

// A random predicate tree. Leaves mix compilable shapes (column-vs-literal
// comparisons, IS [NOT] NULL, bool columns, bool/null literals) with
// interpreter-only ones (LIKE on string columns, double arithmetic on
// numeric columns) so the split path is exercised, not just whole-tree
// compilation.
ExprPtr RandomPredicate(Random64& rng, const Schema& schema, int depth) {
  if (depth > 0 && rng.Uniform(3) != 0) {
    switch (rng.Uniform(3)) {
      case 0:
        return And(RandomPredicate(rng, schema, depth - 1),
                   RandomPredicate(rng, schema, depth - 1));
      case 1:
        return Or(RandomPredicate(rng, schema, depth - 1),
                  RandomPredicate(rng, schema, depth - 1));
      default:
        return Not(RandomPredicate(rng, schema, depth - 1));
    }
  }
  int col = static_cast<int>(rng.Uniform(static_cast<uint64_t>(schema.num_fields())));
  const Field& field = schema.field(col);
  switch (rng.Uniform(8)) {
    case 0:
      return IsNull(Col(field.name));
    case 1:
      return IsNotNull(Col(field.name));
    case 2:
      if (field.type == TypeId::kBool) return Col(field.name);
      break;
    case 3:
      if (rng.Uniform(4) == 0) return Lit(Value::Null());
      return Lit(Value(rng.Uniform(2) == 0));
    case 4:  // interpreter-only: LIKE
      if (field.type == TypeId::kString) {
        const char* pats[] = {"a%", "%b", "_b%", "", "%"};
        return Like(Col(field.name), pats[rng.Uniform(5)]);
      }
      break;
    case 5:  // interpreter-only: double arithmetic (no signed overflow)
      if (field.type == TypeId::kInt64 || field.type == TypeId::kInt32 ||
          field.type == TypeId::kFloat64) {
        return Gt(Add(Col(field.name), Lit(Value(0.5))), Lit(Value(1.0)));
      }
      break;
    default:
      break;
  }
  ExprPtr lhs = Col(field.name);
  ExprPtr rhs = Lit(RandomLiteral(rng, field.type));
  if (rng.Uniform(4) == 0) std::swap(lhs, rhs);  // mirrored literal-vs-column
  switch (rng.Uniform(6)) {
    case 0:
      return Eq(std::move(lhs), std::move(rhs));
    case 1:
      return Ne(std::move(lhs), std::move(rhs));
    case 2:
      return Lt(std::move(lhs), std::move(rhs));
    case 3:
      return Le(std::move(lhs), std::move(rhs));
    case 4:
      return Gt(std::move(lhs), std::move(rhs));
    default:
      return Ge(std::move(lhs), std::move(rhs));
  }
}

TriBool InterpreterTri(const ExprPtr& bound, const Row& row) {
  Result<Value> v = bound->Eval(row);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  if (v.ValueOrDie().is_null()) return TriBool::kNull;
  return v.ValueOrDie().bool_value() ? TriBool::kTrue : TriBool::kFalse;
}

class PredicateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicateFuzzTest, CompiledMatchesInterpreterBitForBit) {
  Random64 rng(GetParam());
  int compiled_trees = 0;
  for (int trial = 0; trial < 300; ++trial) {
    int num_fields = 1 + static_cast<int>(rng.Uniform(6));
    std::vector<Field> fields;
    for (int f = 0; f < num_fields; ++f) {
      fields.push_back(
          {"c" + std::to_string(f), static_cast<TypeId>(rng.Uniform(6)), true});
    }
    SchemaPtr schema = Schema::Make(std::move(fields));

    RowVec rows;
    for (int r = 0; r < 40; ++r) {
      Row row;
      for (int f = 0; f < num_fields; ++f) {
        row.push_back(RandomCell(rng, schema->field(f).type));
      }
      rows.push_back(std::move(row));
    }

    ExprPtr pred = RandomPredicate(rng, *schema, 3);
    ExprPtr bound = BindExpr(pred, *schema).ValueOrDie();

    // Whole-tree compilation (when the tree is fully compilable) must
    // match the interpreter's three-valued result exactly.
    std::optional<CompiledPredicate> whole =
        CompiledPredicate::Compile(bound, *schema);
    if (whole.has_value()) ++compiled_trees;

    PredicateSplit split = SplitForCompilation(bound, *schema);
    for (const Row& row : rows) {
      std::vector<uint8_t> payload;
      ASSERT_TRUE(EncodeRow(*schema, row, &payload).ok());
      TriBool want = InterpreterTri(bound, row);
      if (whole.has_value()) {
        ASSERT_EQ(static_cast<int>(whole->EvalEncoded(payload.data())),
                  static_cast<int>(want))
            << "seed " << GetParam() << " trial " << trial << ": "
            << bound->ToString();
      }
      // Split semantics: compiled-part Matches AND residual TRUE must equal
      // the original filter decision.
      bool keeps = true;
      if (split.compiled.has_value() && !split.compiled->Matches(payload.data())) {
        keeps = false;
      }
      if (keeps && split.residual != nullptr) {
        keeps = InterpreterTri(split.residual, row) == TriBool::kTrue;
      }
      ASSERT_EQ(keeps, want == TriBool::kTrue)
          << "seed " << GetParam() << " trial " << trial << ": "
          << bound->ToString();
    }

    // The same filter as a scan runs it: the compiled part over a store's
    // runs (fixed-width columns read from the column images), the
    // residual on the survivors.
    if (split.compiled.has_value()) {
      RowBatchStore store(*schema, 4096, 1024);
      for (const Row& row : rows) {
        ASSERT_TRUE(store.AppendRow(*schema, row, PackedPointer::Null(), 0).ok());
      }
      VectorizedPredicate vec(*split.compiled);
      VectorScratch scratch;
      std::vector<uint32_t> sel(rows.size());
      size_t base = 0;
      store.ForEachRun(0, rows.size(), [&](const RowRun& run) {
        const size_t kept = vec.FilterBatch(run, sel.data(), &scratch);
        size_t j = 0;
        for (size_t i = 0; i < run.count; ++i) {
          const Row& row = rows[base + i];
          const bool selected = j < kept && sel[j] == i;
          if (selected) ++j;
          const bool keeps =
              selected && (split.residual == nullptr ||
                           InterpreterTri(split.residual, row) == TriBool::kTrue);
          ASSERT_EQ(keeps, InterpreterTri(bound, row) == TriBool::kTrue)
              << "seed " << GetParam() << " trial " << trial << " row " << base + i
              << " (column images): " << bound->ToString();
        }
        ASSERT_EQ(j, kept);
        base += run.count;
      });
    }
  }
  // The generator must actually produce compilable trees, not fall back on
  // everything (which would turn this test into interpreter-vs-itself).
  EXPECT_GT(compiled_trees, 30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Vectorized batch evaluation vs the row-at-a-time compiled program: over
// the same random schemas/rows/predicates, EvalBatch must reproduce
// EvalEncoded bit-for-bit (full tri-state, including NULL), FilterBatch
// must select exactly the kTrue lanes in ascending order, and the split
// path (batch filter through the compiled conjunction, residual on the
// survivors) must keep the original filter decision. Each check runs on
// gathered payloads and on the runs of a store holding the same rows
// (column images). Runs under the ASan/UBSan and TSan CI jobs and in the
// SIMD-off matrix leg.
// ---------------------------------------------------------------------------

class VectorizedFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VectorizedFuzzTest, BatchEvalMatchesEvalEncodedBitForBit) {
  Random64 rng(GetParam());
  int vectorized_trees = 0;
  for (int trial = 0; trial < 200; ++trial) {
    int num_fields = 1 + static_cast<int>(rng.Uniform(6));
    std::vector<Field> fields;
    for (int f = 0; f < num_fields; ++f) {
      fields.push_back(
          {"c" + std::to_string(f), static_cast<TypeId>(rng.Uniform(6)), true});
    }
    SchemaPtr schema = Schema::Make(std::move(fields));

    // Cross the internal batch boundary on some trials so the batching
    // loop is exercised, not just one partial batch, and a directory chunk
    // boundary on a few, so a scan splits into several runs.
    const size_t num_rows = trial % 53 == 0   ? RowBatchStore::kDirectoryChunkRows + 37
                            : trial % 29 == 0 ? VectorizedPredicate::kBatchRows + 37
                                              : 64;
    RowVec rows;
    std::vector<std::vector<uint8_t>> payloads;
    for (size_t r = 0; r < num_rows; ++r) {
      Row row;
      for (int f = 0; f < num_fields; ++f) {
        row.push_back(RandomCell(rng, schema->field(f).type));
      }
      payloads.emplace_back();
      ASSERT_TRUE(EncodeRow(*schema, row, &payloads.back()).ok());
      rows.push_back(std::move(row));
    }
    std::vector<const uint8_t*> ptrs;
    ptrs.reserve(num_rows);
    for (const auto& buf : payloads) ptrs.push_back(buf.data());
    RowBatchStore store(*schema, 4096, 1024);
    for (const Row& row : rows) {
      ASSERT_TRUE(store.AppendRow(*schema, row, PackedPointer::Null(), 0).ok());
    }
    // Runs the filter over the store's runs; returns the selected row
    // ordinals, in order.
    auto dense_filter = [&](const VectorizedPredicate& vec, VectorScratch* vs) {
      std::vector<uint32_t> out;
      std::vector<uint32_t> run_sel(num_rows);
      size_t base = 0;
      store.ForEachRun(0, num_rows, [&](const RowRun& run) {
        const size_t kept = vec.FilterBatch(run, run_sel.data(), vs);
        for (size_t j = 0; j < kept; ++j) {
          out.push_back(static_cast<uint32_t>(base + run_sel[j]));
        }
        base += run.count;
      });
      return out;
    };

    ExprPtr pred = RandomPredicate(rng, *schema, 3);
    ExprPtr bound = BindExpr(pred, *schema).ValueOrDie();

    VectorScratch scratch;
    std::vector<uint8_t> tri(num_rows);
    std::vector<uint32_t> sel(num_rows);

    std::optional<CompiledPredicate> whole =
        CompiledPredicate::Compile(bound, *schema);
    if (whole.has_value()) {
      ++vectorized_trees;
      VectorizedPredicate vec(*whole);
      vec.EvalBatch(RowRun(ptrs.data(), num_rows), tri.data(), &scratch);
      std::vector<uint8_t> dense_tri(num_rows);
      size_t base = 0;
      store.ForEachRun(0, num_rows, [&](const RowRun& run) {
        vec.EvalBatch(run, dense_tri.data() + base, &scratch);
        base += run.count;
      });
      const size_t kept =
          vec.FilterBatch(RowRun(ptrs.data(), num_rows), sel.data(), &scratch);
      ASSERT_EQ(dense_filter(vec, &scratch),
                std::vector<uint32_t>(sel.begin(), sel.begin() + static_cast<long>(kept)))
          << "seed " << GetParam() << " trial " << trial << ": " << bound->ToString();
      size_t expect_kept = 0;
      for (size_t r = 0; r < num_rows; ++r) {
        const TriBool want = whole->EvalEncoded(ptrs[r]);
        ASSERT_EQ(static_cast<int>(tri[r]), static_cast<int>(want))
            << "seed " << GetParam() << " trial " << trial << " row " << r
            << ": " << bound->ToString();
        ASSERT_EQ(static_cast<int>(dense_tri[r]), static_cast<int>(want))
            << "seed " << GetParam() << " trial " << trial << " row " << r
            << " (column images): " << bound->ToString();
        if (want == TriBool::kTrue) {
          ASSERT_LT(expect_kept, kept);
          ASSERT_EQ(sel[expect_kept], r)
              << "seed " << GetParam() << " trial " << trial << ": "
              << bound->ToString();
          ++expect_kept;
        }
      }
      ASSERT_EQ(kept, expect_kept)
          << "seed " << GetParam() << " trial " << trial;
    }

    // Residual-conjunct split: vectorized filter over the compiled part,
    // interpreter residual over the survivors.
    PredicateSplit split = SplitForCompilation(bound, *schema);
    if (split.compiled.has_value()) {
      VectorizedPredicate vec(*split.compiled);
      const size_t kept =
          vec.FilterBatch(RowRun(ptrs.data(), num_rows), sel.data(), &scratch);
      ASSERT_EQ(dense_filter(vec, &scratch),
                std::vector<uint32_t>(sel.begin(), sel.begin() + static_cast<long>(kept)))
          << "seed " << GetParam() << " trial " << trial << ": " << bound->ToString();
      std::vector<bool> keeps(num_rows, false);
      for (size_t j = 0; j < kept; ++j) {
        const size_t r = sel[j];
        keeps[r] = split.residual == nullptr ||
                   InterpreterTri(split.residual, rows[r]) == TriBool::kTrue;
      }
      for (size_t r = 0; r < num_rows; ++r) {
        ASSERT_EQ(keeps[r], InterpreterTri(bound, rows[r]) == TriBool::kTrue)
            << "seed " << GetParam() << " trial " << trial << " row " << r
            << ": " << bound->ToString();
      }
    }
  }
  // The generator must produce vectorizable trees, not fall back on
  // everything.
  EXPECT_GT(vectorized_trees, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedFuzzTest,
                         ::testing::Values(66, 77, 88));

// ---------------------------------------------------------------------------
// Indexed chain-walk fast path vs a linear-scan model: the raw-slot key
// verification (EncodeFixedKeySlot) must agree with Value equality for
// every probe, including cross-type keys (double probing an int column,
// int probing a bool column) where the fast path must refuse or widen
// exactly like the interpreter.
// ---------------------------------------------------------------------------

class LookupFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LookupFuzzTest, ChainWalkMatchesLinearScanModel) {
  Random64 rng(GetParam());
  EngineConfig cfg;
  cfg.row_batch_bytes = 4096;
  cfg.max_row_bytes = 512;
  cfg.num_partitions = 1;
  cfg.num_threads = 1;
  cfg = cfg.Resolved();

  const TypeId key_types[] = {TypeId::kBool,    TypeId::kInt32,
                              TypeId::kInt64,   TypeId::kTimestamp,
                              TypeId::kFloat64, TypeId::kString};
  // Probe pool: cross-type keys around the fast path's boundary cases.
  const std::vector<Value> probes = {
      Value(int64_t{-2}),  Value(int64_t{0}),  Value(int64_t{1}),
      Value(int64_t{2}),   Value(int32_t{1}),  Value(int32_t{-2}),
      Value(0.0),          Value(-0.0),        Value(1.0),
      Value(2.5),          Value(-2.0),        Value(true),
      Value(false),        Value("a"),         Value("ab"),
      Value(int64_t{1} << 40)};

  for (TypeId key_type : key_types) {
    SchemaPtr schema = Schema::Make(
        {{"k", key_type, true}, {"v", TypeId::kString, true}});
    IndexedPartition part(schema, 0, cfg);
    RowVec model;
    for (int i = 0; i < 200; ++i) {
      Row row = {RandomCell(rng, key_type),
                 Value("r" + std::to_string(i))};
      ASSERT_TRUE(part.Append(row).ok());
      model.push_back(std::move(row));
    }
    for (const Value& key : probes) {
      RowVec got = part.GetRows(key);
      RowVec want;  // chain order: newest first
      for (auto it = model.rbegin(); it != model.rend(); ++it) {
        if (!(*it)[0].is_null() && (*it)[0] == key) want.push_back(*it);
      }
      ASSERT_EQ(got, want) << "key " << key.ToString() << " over column type "
                           << static_cast<int>(key_type);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookupFuzzTest, ::testing::Values(7, 17, 27));

// ---------------------------------------------------------------------------
// CSV robustness: malformed files error, never crash
// ---------------------------------------------------------------------------

TEST(CsvFuzzTest, RandomPayloadsNeverCrash) {
  auto schema = Schema::Make({{"a", TypeId::kInt64, true},
                              {"b", TypeId::kString, true}});
  Random64 rng(99);
  const char chars[] = "ab1,\"\n'x;|\\ -.";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string data = "a,b\n";
    size_t len = rng.Uniform(60);
    for (size_t i = 0; i < len; ++i) {
      data.push_back(chars[rng.Uniform(sizeof(chars) - 1)]);
    }
    auto result = io::FromCsvString(data, *schema);
    if (result.ok()) {
      for (const Row& row : *result) {
        EXPECT_EQ(row.size(), 2u);
      }
    }
  }
}

TEST(CsvFuzzTest, RoundTripRandomTables) {
  Random64 rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    auto schema = Schema::Make({{"i", TypeId::kInt64, true},
                                {"s", TypeId::kString, true},
                                {"d", TypeId::kFloat64, true}});
    RowVec rows;
    size_t n = rng.Uniform(40);
    for (size_t r = 0; r < n; ++r) {
      std::string s;
      size_t len = rng.Uniform(20);
      for (size_t i = 0; i < len; ++i) {
        s.push_back("a,\"\n'x"[rng.Uniform(6)]);
      }
      rows.push_back({rng.Uniform(3) == 0 ? Value::Null()
                                          : Value(static_cast<int64_t>(rng.Next())),
                      rng.Uniform(3) == 0 ? Value::Null() : Value(std::move(s)),
                      rng.Uniform(3) == 0 ? Value::Null()
                                          : Value(rng.NextDouble())});
    }
    std::string data = io::ToCsvString(*schema, rows);
    auto parsed = io::FromCsvString(data, *schema);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(*parsed, rows) << trial;
  }
}

}  // namespace
}  // namespace idf
