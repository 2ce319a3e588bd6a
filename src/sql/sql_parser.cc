#include "sql/sql_parser.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <vector>

#include "sql/analyzer.h"
#include "sql/parameters.h"
#include "sql/session.h"

namespace idf {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind : uint8_t {
  kIdent,
  kInt,
  kFloat,
  kString,
  kParam,  // `?` or `$n` placeholder; text = zero-based ordinal
  kComma,
  kLParen,
  kRParen,
  kStar,
  kPlus,
  kMinus,
  kSlash,
  kDot,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;  // ident (original case), string contents, number text
  size_t pos;        // byte offset, for error messages
};

Status LexError(size_t pos, const std::string& msg) {
  return Status::InvalidArgument("SQL at offset " + std::to_string(pos) + ": " +
                                 msg);
}

/// Lexes `sql`. Placeholder ordinals are assigned here, in textual order:
/// each `?` takes the next ordinal, `$n` is explicit (1-based in SQL,
/// stored 0-based). `num_params` (optional) receives the binding count —
/// the `?` count, or the highest `$n`. Mixing the two styles is an error.
Result<std::vector<Token>> Lex(const std::string& sql,
                               int* num_params = nullptr) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = sql.size();
  int qmark_count = 0;
  int max_dollar = 0;
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '_')) {
        ++j;
      }
      out.push_back(Token{TokKind::kIdent, sql.substr(i, j - i), start});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool is_float = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) ++j;
      if (j < n && sql[j] == '.' && j + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[j + 1]))) {
        is_float = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) ++j;
      }
      out.push_back(Token{is_float ? TokKind::kFloat : TokKind::kInt,
                          sql.substr(i, j - i), start});
      i = j;
      continue;
    }
    if (c == '\'') {
      std::string text;
      size_t j = i + 1;
      for (;;) {
        if (j >= n) return LexError(start, "unterminated string literal");
        if (sql[j] == '\'') {
          if (j + 1 < n && sql[j + 1] == '\'') {  // escaped quote
            text.push_back('\'');
            j += 2;
            continue;
          }
          break;
        }
        text.push_back(sql[j]);
        ++j;
      }
      out.push_back(Token{TokKind::kString, std::move(text), start});
      i = j + 1;
      continue;
    }
    if (c == '?') {
      out.push_back(Token{TokKind::kParam, std::to_string(qmark_count), start});
      ++qmark_count;
      ++i;
      continue;
    }
    if (c == '$') {
      size_t j = i + 1;
      while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) ++j;
      if (j == i + 1) return LexError(start, "expected digits after '$'");
      if (j - i - 1 > 6) return LexError(start, "parameter number too large");
      int one_based = std::stoi(sql.substr(i + 1, j - i - 1));
      if (one_based < 1) return LexError(start, "parameters are numbered from $1");
      max_dollar = std::max(max_dollar, one_based);
      out.push_back(Token{TokKind::kParam, std::to_string(one_based - 1), start});
      i = j;
      continue;
    }
    auto push = [&](TokKind k, size_t len) {
      out.push_back(Token{k, sql.substr(i, len), start});
      i += len;
    };
    switch (c) {
      case ',':
        push(TokKind::kComma, 1);
        break;
      case '(':
        push(TokKind::kLParen, 1);
        break;
      case ')':
        push(TokKind::kRParen, 1);
        break;
      case '*':
        push(TokKind::kStar, 1);
        break;
      case '+':
        push(TokKind::kPlus, 1);
        break;
      case '-':
        push(TokKind::kMinus, 1);
        break;
      case '/':
        push(TokKind::kSlash, 1);
        break;
      case '.':
        push(TokKind::kDot, 1);
        break;
      case '=':
        push(TokKind::kEq, 1);
        break;
      case '!':
        if (i + 1 < n && sql[i + 1] == '=') {
          push(TokKind::kNe, 2);
        } else {
          return LexError(start, "unexpected '!'");
        }
        break;
      case '<':
        if (i + 1 < n && sql[i + 1] == '=') {
          push(TokKind::kLe, 2);
        } else if (i + 1 < n && sql[i + 1] == '>') {
          push(TokKind::kNe, 2);
        } else {
          push(TokKind::kLt, 1);
        }
        break;
      case '>':
        if (i + 1 < n && sql[i + 1] == '=') {
          push(TokKind::kGe, 2);
        } else {
          push(TokKind::kGt, 1);
        }
        break;
      default:
        return LexError(start, std::string("unexpected character '") + c + "'");
    }
  }
  if (qmark_count > 0 && max_dollar > 0) {
    return LexError(0, "cannot mix '?' and '$n' parameter styles");
  }
  if (num_params != nullptr) {
    *num_params = qmark_count > 0 ? qmark_count : max_dollar;
  }
  out.push_back(Token{TokKind::kEnd, "", n});
  return out;
}

std::string Upper(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// One FROM/JOIN relation with its position in the concatenated schema.
struct FromEntry {
  std::string alias;
  SchemaPtr schema;
  int offset;  // first ordinal in the concatenated row
};

struct SelectItem {
  ExprPtr expr;            // non-aggregate item
  std::optional<AggSpec> agg;  // aggregate item
  std::string name;        // output name ("" = derived)
};

class Parser {
 public:
  Parser(SessionPtr session, std::vector<Token> tokens,
         bool allow_params = false)
      : session_(std::move(session)),
        tokens_(std::move(tokens)),
        allow_params_(allow_params) {}

  Result<DataFrame> ParseSelect();

 private:
  /// Parses one SELECT ... [GROUP BY/HAVING] unit including its projection.
  /// In branch mode (union members) ORDER BY / LIMIT are left unconsumed
  /// for the union level.
  Result<LogicalPlanPtr> ParseSelectBranch(bool branch_mode);

  /// True when a top-level (paren-depth-0) UNION keyword exists anywhere
  /// after `pos_`.
  bool HasTopLevelUnion() const;

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(const char* kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokKind::kIdent && Upper(t.text) == kw;
  }
  bool AcceptKeyword(const char* kw) {
    if (!PeekKeyword(kw)) return false;
    ++pos_;
    return true;
  }
  Status ExpectKeyword(const char* kw) {
    if (AcceptKeyword(kw)) return Status::OK();
    return Error(std::string("expected ") + kw);
  }
  bool Accept(TokKind k) {
    if (Peek().kind != k) return false;
    ++pos_;
    return true;
  }
  Status Expect(TokKind k, const char* what) {
    if (Accept(k)) return Status::OK();
    return Error(std::string("expected ") + what);
  }
  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("SQL at offset " +
                                   std::to_string(Peek().pos) + ": " + msg +
                                   " (near '" + Peek().text + "')");
  }

  bool IsClauseBoundary() const {
    static const char* kBoundaries[] = {"FROM",  "WHERE", "GROUP", "HAVING",
                                        "ORDER", "LIMIT", "JOIN",  "ON",
                                        "AS",    "ASC",   "DESC",  "AND",
                                        "OR",    "BY",    "LEFT",  "INNER",
                                        "OUTER", "UNION", "ALL"};
    if (Peek().kind != TokKind::kIdent) return false;
    std::string up = Upper(Peek().text);
    for (const char* b : kBoundaries) {
      if (up == b) return true;
    }
    return false;
  }

  // FROM handling --------------------------------------------------------

  Result<FromEntry*> ResolveAlias(const std::string& alias) {
    for (FromEntry& e : from_) {
      if (e.alias == alias) return &e;
    }
    return Status::KeyError("unknown table alias '" + alias + "' in SQL query");
  }

  /// Resolves alias.column to a bound reference in the concatenated schema.
  Result<ExprPtr> QualifiedRef(const std::string& alias, const std::string& col) {
    IDF_ASSIGN_OR_RETURN(FromEntry * entry, ResolveAlias(alias));
    IDF_ASSIGN_OR_RETURN(int idx, entry->schema->ResolveFieldIndex(col));
    return ExprPtr(
        std::make_shared<ColumnRefExpr>(col, entry->offset + idx));
  }

  Status ParseFromClause();
  Status ParseJoinClause(JoinType join_type);

  /// Parses `name [AS alias]` and registers a FromEntry; returns its
  /// DataFrame.
  Result<DataFrame> ParseTableRef();

  // Expressions ----------------------------------------------------------

  Result<ExprPtr> ParseExpr() { return ParseOr(); }
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParsePrimary();
  Result<Value> ParseLiteralValue();

  // Select items ---------------------------------------------------------

  Result<SelectItem> ParseSelectItem();
  Result<AggSpec> ParseAggregateCall();
  std::optional<AggFn> PeekAggregate() const;

  /// Consumes a kParam token into a (still untyped) ParameterRefExpr.
  Result<ExprPtr> ParseParam() {
    if (!allow_params_) {
      return Error("parameters are only allowed in prepared statements");
    }
    return Param(std::stoi(Advance().text));
  }

  SessionPtr session_;
  std::vector<Token> tokens_;
  bool allow_params_ = false;
  size_t pos_ = 0;
  std::vector<FromEntry> from_;
  LogicalPlanPtr plan_;  // running FROM/JOIN plan
  /// Non-null while parsing HAVING: aggregates encountered in expressions
  /// are appended here and replaced by references to their hidden output.
  std::vector<AggSpec>* having_aggs_ = nullptr;
};

Result<DataFrame> Parser::ParseTableRef() {
  if (Peek().kind != TokKind::kIdent || IsClauseBoundary()) {
    return Error("expected table name");
  }
  std::string name = Advance().text;
  std::string alias = name;
  if (AcceptKeyword("AS")) {
    if (Peek().kind != TokKind::kIdent) return Error("expected alias after AS");
    alias = Advance().text;
  } else if (Peek().kind == TokKind::kIdent && !IsClauseBoundary()) {
    alias = Advance().text;
  }
  IDF_ASSIGN_OR_RETURN(DataFrame df, session_->Table(name));
  IDF_ASSIGN_OR_RETURN(SchemaPtr schema, df.schema());
  int offset = 0;
  for (const FromEntry& e : from_) offset += e.schema->num_fields();
  for (const FromEntry& e : from_) {
    if (e.alias == alias) {
      return Status::InvalidArgument("duplicate table alias '" + alias + "'");
    }
  }
  from_.push_back(FromEntry{alias, schema, offset});
  return df;
}

Status Parser::ParseFromClause() {
  IDF_ASSIGN_OR_RETURN(DataFrame first, ParseTableRef());
  plan_ = first.plan();
  for (;;) {
    JoinType join_type = JoinType::kInner;
    if (AcceptKeyword("LEFT")) {
      (void)AcceptKeyword("OUTER");
      IDF_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      join_type = JoinType::kLeftOuter;
    } else if (AcceptKeyword("INNER")) {
      IDF_RETURN_NOT_OK(ExpectKeyword("JOIN"));
    } else if (!AcceptKeyword("JOIN")) {
      break;
    }
    IDF_RETURN_NOT_OK(ParseJoinClause(join_type));
  }
  return Status::OK();
}

Status Parser::ParseJoinClause(JoinType join_type) {
  // <table> [alias] ON qual = qual — one qualifier must name an earlier
  // table (left side of the running join tree), the other the new table.
  size_t right_index = from_.size();
  IDF_ASSIGN_OR_RETURN(DataFrame right_df, ParseTableRef());
  const FromEntry& right = from_[right_index];
  IDF_RETURN_NOT_OK(ExpectKeyword("ON"));

  auto parse_qual = [this]() -> Result<std::pair<std::string, std::string>> {
    if (Peek().kind != TokKind::kIdent) return Error("expected alias.column");
    std::string alias = Advance().text;
    IDF_RETURN_NOT_OK(Expect(TokKind::kDot, ". in join qualifier"));
    if (Peek().kind != TokKind::kIdent) return Error("expected column after '.'");
    std::string col = Advance().text;
    return std::make_pair(std::move(alias), std::move(col));
  };
  IDF_ASSIGN_OR_RETURN(auto qa, parse_qual());
  IDF_RETURN_NOT_OK(Expect(TokKind::kEq, "= in join condition"));
  IDF_ASSIGN_OR_RETURN(auto qb, parse_qual());

  auto side_of = [&](const std::string& alias) -> Result<bool> {
    // true = belongs to the new right table.
    for (size_t i = 0; i < from_.size(); ++i) {
      if (from_[i].alias == alias) return i == right_index;
    }
    return Status::KeyError("unknown alias '" + alias + "' in join condition");
  };
  IDF_ASSIGN_OR_RETURN(bool a_is_right, side_of(qa.first));
  IDF_ASSIGN_OR_RETURN(bool b_is_right, side_of(qb.first));
  if (a_is_right == b_is_right) {
    return Error("join condition must reference both sides");
  }
  const auto& left_qual = a_is_right ? qb : qa;
  const auto& right_qual = a_is_right ? qa : qb;

  // Left key: ordinal in the concatenation of all earlier tables.
  IDF_ASSIGN_OR_RETURN(ExprPtr left_key,
                       QualifiedRef(left_qual.first, left_qual.second));
  // Right key: ordinal local to the new table's schema.
  IDF_ASSIGN_OR_RETURN(int right_idx,
                       right.schema->ResolveFieldIndex(right_qual.second));
  ExprPtr right_key =
      std::make_shared<ColumnRefExpr>(right_qual.second, right_idx);

  plan_ = std::make_shared<JoinNode>(plan_, right_df.plan(), std::move(left_key),
                                     std::move(right_key), join_type);
  return Status::OK();
}

std::optional<AggFn> Parser::PeekAggregate() const {
  if (Peek().kind != TokKind::kIdent || Peek(1).kind != TokKind::kLParen) {
    return std::nullopt;
  }
  std::string up = Upper(Peek().text);
  if (up == "COUNT") return AggFn::kCount;
  if (up == "SUM") return AggFn::kSum;
  if (up == "MIN") return AggFn::kMin;
  if (up == "MAX") return AggFn::kMax;
  if (up == "AVG") return AggFn::kAvg;
  return std::nullopt;
}

Result<Value> Parser::ParseLiteralValue() {
  bool negative = Accept(TokKind::kMinus);
  const Token& t = Peek();
  switch (t.kind) {
    case TokKind::kInt: {
      Advance();
      int64_t v = std::stoll(t.text);
      return Value(negative ? -v : v);
    }
    case TokKind::kFloat: {
      Advance();
      double v = std::stod(t.text);
      return Value(negative ? -v : v);
    }
    case TokKind::kString:
      if (negative) return Error("cannot negate a string literal");
      Advance();
      return Value(t.text);
    case TokKind::kIdent: {
      std::string up = Upper(t.text);
      if (negative) return Error("cannot negate " + t.text);
      if (up == "TRUE") {
        Advance();
        return Value(true);
      }
      if (up == "FALSE") {
        Advance();
        return Value(false);
      }
      if (up == "NULL") {
        Advance();
        return Value::Null();
      }
      return Error("expected literal");
    }
    default:
      return Error("expected literal");
  }
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.kind) {
    case TokKind::kLParen: {
      Advance();
      IDF_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      IDF_RETURN_NOT_OK(Expect(TokKind::kRParen, ")"));
      return e;
    }
    case TokKind::kMinus: {
      // Unary minus: -literal folds, -expr becomes (0 - expr).
      if (Peek(1).kind == TokKind::kInt || Peek(1).kind == TokKind::kFloat) {
        IDF_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        return Lit(std::move(v));
      }
      Advance();
      IDF_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
      return Sub(Lit(Value(int64_t{0})), std::move(e));
    }
    case TokKind::kInt:
    case TokKind::kFloat:
    case TokKind::kString: {
      IDF_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      return Lit(std::move(v));
    }
    case TokKind::kParam:
      return ParseParam();
    case TokKind::kIdent: {
      std::string up = Upper(t.text);
      if (up == "TRUE" || up == "FALSE" || up == "NULL") {
        IDF_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        return Lit(std::move(v));
      }
      if (PeekAggregate().has_value()) {
        if (having_aggs_ == nullptr) {
          return Error(
              "aggregate calls are only allowed in the select list and in "
              "HAVING");
        }
        // HAVING: materialize the aggregate as a hidden output column and
        // reference it (reusing an existing structurally equal spec).
        IDF_ASSIGN_OR_RETURN(AggSpec spec, ParseAggregateCall());
        for (const AggSpec& existing : *having_aggs_) {
          bool same_arg = (existing.arg == nullptr && spec.arg == nullptr) ||
                          (existing.arg != nullptr && spec.arg != nullptr &&
                           ExprEquals(existing.arg, spec.arg));
          if (existing.fn == spec.fn && same_arg) {
            return Col(existing.out_name);
          }
        }
        spec.out_name =
            "_having_agg_" + std::to_string(having_aggs_->size());
        having_aggs_->push_back(spec);
        return Col(spec.out_name);
      }
      std::string first = Advance().text;
      if (Accept(TokKind::kDot)) {
        if (Peek().kind != TokKind::kIdent) {
          return Error("expected column after '.'");
        }
        std::string col = Advance().text;
        return QualifiedRef(first, col);
      }
      return Col(first);
    }
    default:
      return Error("expected expression");
  }
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  IDF_ASSIGN_OR_RETURN(ExprPtr left, ParsePrimary());
  for (;;) {
    if (Accept(TokKind::kStar)) {
      IDF_ASSIGN_OR_RETURN(ExprPtr right, ParsePrimary());
      left = Mul(std::move(left), std::move(right));
    } else if (Accept(TokKind::kSlash)) {
      IDF_ASSIGN_OR_RETURN(ExprPtr right, ParsePrimary());
      left = Div(std::move(left), std::move(right));
    } else {
      return left;
    }
  }
}

Result<ExprPtr> Parser::ParseAdditive() {
  IDF_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
  for (;;) {
    if (Accept(TokKind::kPlus)) {
      IDF_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = Add(std::move(left), std::move(right));
    } else if (Accept(TokKind::kMinus)) {
      IDF_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = Sub(std::move(left), std::move(right));
    } else {
      return left;
    }
  }
}

Result<ExprPtr> Parser::ParseComparison() {
  IDF_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());

  // IS [NOT] NULL
  if (PeekKeyword("IS")) {
    Advance();
    bool negated = AcceptKeyword("NOT");
    if (!AcceptKeyword("NULL")) return Error("expected NULL after IS");
    return negated ? IsNotNull(std::move(left)) : IsNull(std::move(left));
  }
  // BETWEEN a AND b  =>  left >= a AND left <= b
  if (PeekKeyword("BETWEEN")) {
    Advance();
    IDF_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    IDF_RETURN_NOT_OK(ExpectKeyword("AND"));
    IDF_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    return And(Ge(left, std::move(lo)), Le(left, std::move(hi)));
  }
  // [NOT] LIKE 'pattern'
  bool not_like = false;
  if (PeekKeyword("NOT") && PeekKeyword("LIKE", 1)) {
    Advance();
    not_like = true;
  }
  if (PeekKeyword("LIKE")) {
    Advance();
    if (Peek().kind != TokKind::kString) {
      return Error("expected string pattern after LIKE");
    }
    std::string pattern = Advance().text;
    return not_like ? NotLike(std::move(left), std::move(pattern))
                    : Like(std::move(left), std::move(pattern));
  }
  if (not_like) return Error("expected LIKE after NOT");

  // [NOT] IN (literal, ...)
  bool not_in = false;
  if (PeekKeyword("NOT") && PeekKeyword("IN", 1)) {
    Advance();
    not_in = true;
  }
  if (PeekKeyword("IN")) {
    Advance();
    IDF_RETURN_NOT_OK(Expect(TokKind::kLParen, "( after IN"));
    ExprPtr disjunction;
    for (;;) {
      ExprPtr element;
      if (Peek().kind == TokKind::kParam) {
        IDF_ASSIGN_OR_RETURN(element, ParseParam());
      } else {
        IDF_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        element = Lit(std::move(v));
      }
      ExprPtr eq = Eq(left, std::move(element));
      disjunction = disjunction ? Or(std::move(disjunction), std::move(eq))
                                : std::move(eq);
      if (!Accept(TokKind::kComma)) break;
    }
    IDF_RETURN_NOT_OK(Expect(TokKind::kRParen, ") after IN list"));
    return not_in ? Not(std::move(disjunction)) : disjunction;
  }

  switch (Peek().kind) {
    case TokKind::kEq:
      Advance();
      {
        IDF_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Eq(std::move(left), std::move(right));
      }
    case TokKind::kNe:
      Advance();
      {
        IDF_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Ne(std::move(left), std::move(right));
      }
    case TokKind::kLt:
      Advance();
      {
        IDF_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Lt(std::move(left), std::move(right));
      }
    case TokKind::kLe:
      Advance();
      {
        IDF_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Le(std::move(left), std::move(right));
      }
    case TokKind::kGt:
      Advance();
      {
        IDF_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Gt(std::move(left), std::move(right));
      }
    case TokKind::kGe:
      Advance();
      {
        IDF_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Ge(std::move(left), std::move(right));
      }
    default:
      return left;
  }
}

Result<ExprPtr> Parser::ParseNot() {
  if (PeekKeyword("NOT") && !PeekKeyword("IN", 1)) {
    Advance();
    IDF_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
    return Not(std::move(e));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseAnd() {
  IDF_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (AcceptKeyword("AND")) {
    IDF_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    left = And(std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseOr() {
  IDF_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (AcceptKeyword("OR")) {
    IDF_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    left = Or(std::move(left), std::move(right));
  }
  return left;
}

Result<AggSpec> Parser::ParseAggregateCall() {
  std::optional<AggFn> agg = PeekAggregate();
  if (!agg.has_value()) return Error("expected aggregate call");
  Advance();  // function name
  Advance();  // (
  AggSpec spec;
  if (*agg == AggFn::kCount && Accept(TokKind::kStar)) {
    spec = AggSpec{AggFn::kCountStar, nullptr, ""};
  } else {
    IDF_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
    spec = AggSpec{*agg, std::move(arg), ""};
  }
  IDF_RETURN_NOT_OK(Expect(TokKind::kRParen, ") after aggregate"));
  return spec;
}

Result<SelectItem> Parser::ParseSelectItem() {
  SelectItem item;
  if (PeekAggregate().has_value()) {
    IDF_ASSIGN_OR_RETURN(AggSpec spec, ParseAggregateCall());
    item.agg = std::move(spec);
  } else {
    IDF_ASSIGN_OR_RETURN(item.expr, ParseExpr());
  }
  if (AcceptKeyword("AS")) {
    if (Peek().kind != TokKind::kIdent) return Error("expected name after AS");
    item.name = Advance().text;
  } else if (Peek().kind == TokKind::kIdent && !IsClauseBoundary()) {
    item.name = Advance().text;
  }
  return item;
}

namespace {
std::string DisplayNameOf(const SelectItem& item) {
  if (!item.name.empty()) return item.name;
  if (item.agg.has_value()) {
    std::string out = AggFnToString(item.agg->fn);
    if (item.agg->arg) out += "(" + DeriveColumnName(item.agg->arg) + ")";
    return out;
  }
  return DeriveColumnName(item.expr);
}
}  // namespace

bool Parser::HasTopLevelUnion() const {
  int depth = 0;
  for (size_t i = pos_; i < tokens_.size(); ++i) {
    const Token& t = tokens_[i];
    if (t.kind == TokKind::kLParen) ++depth;
    if (t.kind == TokKind::kRParen) --depth;
    if (depth == 0 && t.kind == TokKind::kIdent && Upper(t.text) == "UNION") {
      return true;
    }
  }
  return false;
}

Result<DataFrame> Parser::ParseSelect() {
  const bool is_union = HasTopLevelUnion();
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr plan, ParseSelectBranch(is_union));
  if (is_union) {
    std::vector<LogicalPlanPtr> branches = {plan};
    while (AcceptKeyword("UNION")) {
      IDF_RETURN_NOT_OK(ExpectKeyword("ALL"));
      // Each branch gets a fresh FROM scope.
      from_.clear();
      plan_ = nullptr;
      IDF_ASSIGN_OR_RETURN(LogicalPlanPtr branch,
                           ParseSelectBranch(/*branch_mode=*/true));
      branches.push_back(std::move(branch));
    }
    if (branches.size() < 2) return Error("expected UNION ALL");
    plan = std::make_shared<UnionAllNode>(std::move(branches));
  }

  // ORDER BY / LIMIT: for plain selects they were handled inside the
  // branch; for unions they apply to the union's output columns here.
  if (is_union && AcceptKeyword("ORDER")) {
    IDF_RETURN_NOT_OK(ExpectKeyword("BY"));
    std::vector<SortKey> keys;
    for (;;) {
      IDF_ASSIGN_OR_RETURN(ExprPtr key, ParseExpr());
      bool ascending = true;
      if (AcceptKeyword("DESC")) {
        ascending = false;
      } else {
        (void)AcceptKeyword("ASC");
      }
      keys.push_back(SortKey{std::move(key), ascending});
      if (!Accept(TokKind::kComma)) break;
    }
    plan = std::make_shared<SortNode>(std::move(plan), std::move(keys));
  }
  if (is_union && AcceptKeyword("LIMIT")) {
    if (Peek().kind != TokKind::kInt) return Error("expected integer after LIMIT");
    size_t n = static_cast<size_t>(std::stoll(Advance().text));
    plan = std::make_shared<LimitNode>(std::move(plan), n);
  }

  if (Peek().kind != TokKind::kEnd) return Error("unexpected trailing input");

  // Analyze eagerly so syntax-valid but semantically broken queries fail
  // at Sql() time, not at the first action.
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr analyzed, Analyze(plan));
  return DataFrame(session_, std::move(analyzed));
}

Result<LogicalPlanPtr> Parser::ParseSelectBranch(bool branch_mode) {
  IDF_RETURN_NOT_OK(ExpectKeyword("SELECT"));
  bool distinct = AcceptKeyword("DISTINCT");

  // The select list references FROM aliases, so parse FROM first: remember
  // the select-list token range, skip to FROM, then come back.
  size_t select_start = pos_;
  int depth = 0;
  while (Peek().kind != TokKind::kEnd && !(depth == 0 && PeekKeyword("FROM"))) {
    if (Peek().kind == TokKind::kLParen) ++depth;
    if (Peek().kind == TokKind::kRParen) --depth;
    ++pos_;
  }
  if (Peek().kind == TokKind::kEnd) return Error("expected FROM");
  size_t from_pos = pos_;
  ++pos_;  // consume FROM
  IDF_RETURN_NOT_OK(ParseFromClause());
  size_t after_from = pos_;

  // --- select list ---
  pos_ = select_start;
  bool select_star = false;
  std::vector<SelectItem> items;
  if (Peek().kind == TokKind::kStar) {
    Advance();
    select_star = true;
  } else {
    for (;;) {
      IDF_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      items.push_back(std::move(item));
      if (!Accept(TokKind::kComma)) break;
    }
  }
  if (pos_ != from_pos) return Error("unexpected input before FROM");
  pos_ = after_from;

  // --- WHERE ---
  LogicalPlanPtr plan = plan_;
  if (AcceptKeyword("WHERE")) {
    IDF_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
    plan = std::make_shared<FilterNode>(std::move(plan), std::move(pred));
  }

  // --- GROUP BY / aggregates / DISTINCT ---
  std::vector<ExprPtr> group_exprs;
  bool has_group_by = false;
  if (AcceptKeyword("GROUP")) {
    IDF_RETURN_NOT_OK(ExpectKeyword("BY"));
    has_group_by = true;
    for (;;) {
      IDF_ASSIGN_OR_RETURN(ExprPtr g, ParseExpr());
      group_exprs.push_back(std::move(g));
      if (!Accept(TokKind::kComma)) break;
    }
  }
  bool has_aggs = false;
  for (const SelectItem& item : items) has_aggs |= item.agg.has_value();

  bool aggregated = has_group_by || has_aggs || distinct;
  if (distinct && (has_group_by || has_aggs)) {
    return Error("DISTINCT cannot be combined with GROUP BY or aggregates");
  }
  if (select_star && aggregated) {
    return Error("SELECT * cannot be combined with aggregation or DISTINCT");
  }

  std::vector<ExprPtr> project_exprs;
  std::vector<std::string> project_names;

  if (aggregated) {
    if (distinct) {
      for (const SelectItem& item : items) group_exprs.push_back(item.expr);
    }
    // Validate non-aggregate select items against the group list and
    // collect the aggregate specs.
    std::vector<std::string> group_names;
    for (const ExprPtr& g : group_exprs) group_names.push_back(DeriveColumnName(g));
    std::vector<AggSpec> aggs;
    for (SelectItem& item : items) {
      if (item.agg.has_value()) {
        AggSpec spec = *item.agg;
        spec.out_name = DisplayNameOf(item);
        aggs.push_back(std::move(spec));
        continue;
      }
      bool in_groups = false;
      for (const ExprPtr& g : group_exprs) in_groups |= ExprEquals(item.expr, g);
      if (!in_groups) {
        return Status::InvalidArgument(
            "SQL: select item '" + DisplayNameOf(item) +
            "' is neither aggregated nor in GROUP BY");
      }
    }
    // --- HAVING (may introduce hidden aggregate outputs) ---
    ExprPtr having_pred;
    if (AcceptKeyword("HAVING")) {
      having_aggs_ = &aggs;
      auto pred = ParseExpr();
      having_aggs_ = nullptr;
      IDF_RETURN_NOT_OK(pred.status());
      having_pred = std::move(pred).ValueUnsafe();
    }
    plan = std::make_shared<AggregateNode>(std::move(plan), group_exprs,
                                           group_names, std::move(aggs));
    if (having_pred != nullptr) {
      plan = std::make_shared<FilterNode>(std::move(plan), std::move(having_pred));
    }
    // Project the aggregate output into select-list order and names
    // (dropping hidden HAVING aggregates).
    for (const SelectItem& item : items) {
      std::string display = DisplayNameOf(item);
      project_exprs.push_back(Col(item.agg.has_value()
                                      ? display
                                      : DeriveColumnName(item.expr)));
      project_names.push_back(display);
    }
  } else {
    if (AcceptKeyword("HAVING")) {
      return Error("HAVING requires GROUP BY or aggregates");
    }
    if (!select_star) {
      for (const SelectItem& item : items) {
        project_exprs.push_back(item.expr);
        project_names.push_back(DisplayNameOf(item));
      }
    }
  }

  // --- ORDER BY (plain selects only; union branches leave it to the
  // union level) ---
  std::vector<SortKey> sort_keys;
  if (!branch_mode && AcceptKeyword("ORDER")) {
    IDF_RETURN_NOT_OK(ExpectKeyword("BY"));
    for (;;) {
      IDF_ASSIGN_OR_RETURN(ExprPtr key, ParseExpr());
      bool ascending = true;
      if (AcceptKeyword("DESC")) {
        ascending = false;
      } else {
        (void)AcceptKeyword("ASC");
      }
      sort_keys.push_back(SortKey{std::move(key), ascending});
      if (!Accept(TokKind::kComma)) break;
    }
  }

  if (aggregated) {
    // Project first (select names exist), then sort by output columns. A
    // key naming a select item, qualified or not, sorts by that item's
    // output column: a qualified ref is bound to a FROM-scope ordinal,
    // which means nothing over the projected aggregate.
    for (SortKey& key : sort_keys) {
      bool named = false;
      for (size_t i = 0; i < items.size() && !named; ++i) {
        if (!items[i].agg.has_value() && ExprEquals(key.expr, items[i].expr)) {
          key.expr = std::make_shared<ColumnRefExpr>(project_names[i],
                                                     static_cast<int>(i));
          named = true;
        }
      }
      std::vector<int> scope_refs;
      if (!named) CollectRefIndices(key.expr, &scope_refs);
      if (!scope_refs.empty()) {
        return Status::InvalidArgument(
            "SQL: ORDER BY key '" + key.expr->ToString() +
            "' over an aggregate must name a select item");
      }
    }
    plan = std::make_shared<ProjectNode>(std::move(plan),
                                         std::move(project_exprs),
                                         std::move(project_names));
    if (!sort_keys.empty()) {
      plan = std::make_shared<SortNode>(std::move(plan), std::move(sort_keys));
    }
  } else {
    // Sort over the full input schema (ORDER BY may reference columns the
    // projection drops), then project.
    if (!sort_keys.empty()) {
      plan = std::make_shared<SortNode>(std::move(plan), std::move(sort_keys));
    }
    if (!select_star) {
      plan = std::make_shared<ProjectNode>(std::move(plan),
                                           std::move(project_exprs),
                                           std::move(project_names));
    }
  }

  // --- LIMIT ---
  if (!branch_mode && AcceptKeyword("LIMIT")) {
    if (Peek().kind != TokKind::kInt) return Error("expected integer after LIMIT");
    size_t n = static_cast<size_t>(std::stoll(Advance().text));
    plan = std::make_shared<LimitNode>(std::move(plan), n);
  }

  return plan;
}

}  // namespace

Result<DataFrame> ParseSql(const SessionPtr& session, const std::string& sql) {
  IDF_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(session, std::move(tokens));
  return parser.ParseSelect();
}

Result<PreparedParse> ParseSqlPrepared(const SessionPtr& session,
                                       const std::string& sql) {
  int num_params = 0;
  IDF_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql, &num_params));
  Parser parser(session, std::move(tokens), /*allow_params=*/true);
  IDF_ASSIGN_OR_RETURN(DataFrame df, parser.ParseSelect());
  // The parse analyzed the plan with untyped placeholders; pin every
  // parameter's type from its context, then rewrite the tree with typed
  // ParameterRefs (schemas are preserved, so no re-analysis happens).
  IDF_ASSIGN_OR_RETURN(std::vector<TypeId> types,
                       InferParameterTypes(df.plan(), num_params));
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr typed,
                       ApplyParameterTypes(df.plan(), types));
  PreparedParse out;
  out.plan = std::move(typed);
  out.param_types = std::move(types);
  return out;
}

}  // namespace idf
