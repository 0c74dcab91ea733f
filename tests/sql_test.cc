#include <gtest/gtest.h>

#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/unparser.h"
#include "workload/sdss.h"

namespace ifgen {
namespace {

TEST(Lexer, BasicTokens) {
  auto tokens = Tokenize("select top 10 a, b from t where a >= 1.5 and b <> 'x'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[2].Is(TokenKind::kNumber));
}

TEST(Lexer, StringEscapes) {
  auto tokens = Tokenize("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(Lexer, UnterminatedString) {
  EXPECT_FALSE(Tokenize("select 'oops").ok());
}

TEST(Lexer, BadCharacter) {
  EXPECT_FALSE(Tokenize("select @foo").ok());
}

TEST(Lexer, NotEqualsVariants) {
  auto a = Tokenize("a <> b");
  auto b = Tokenize("a != b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)[1].text, "<>");
  EXPECT_EQ((*b)[1].text, "<>");  // normalized
}

TEST(Parser, MinimalQuery) {
  auto q = ParseQuery("select a from t");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->sym, Symbol::kSelect);
  ASSERT_EQ(q->children.size(), 2u);
  EXPECT_EQ(q->children[0].sym, Symbol::kProject);
  EXPECT_EQ(q->children[1].sym, Symbol::kFrom);
}

TEST(Parser, PaperFigure1Queries) {
  auto q1 = ParseQuery("SELECT Sales FROM sales WHERE cty = 'USA'");
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->ToSExpr(),
            "(Select (Project (ColExpr:Sales)) (From (Table:sales)) "
            "(Where (BiExpr:= (ColExpr:cty) (StrExpr:USA))))");
}

TEST(Parser, TopAndCount) {
  auto q = ParseQuery("select top 10 count(*) from stars");
  ASSERT_TRUE(q.ok());
  // Children order: Project, Top, From.
  EXPECT_EQ(q->children[0].sym, Symbol::kProject);
  EXPECT_EQ(q->children[1].sym, Symbol::kTop);
  EXPECT_EQ(q->children[1].value, "10");
  EXPECT_EQ(q->children[0].children[0].sym, Symbol::kFuncExpr);
  EXPECT_EQ(q->children[0].children[0].children[0].sym, Symbol::kStar);
}

TEST(Parser, AndChainFlattened) {
  auto q = ParseQuery("select a from t where a=1 and b=2 and c=3 and d=4");
  ASSERT_TRUE(q.ok());
  const Ast& where = q->children.back();
  ASSERT_EQ(where.sym, Symbol::kWhere);
  const Ast& conj = where.children[0];
  EXPECT_EQ(conj.sym, Symbol::kAnd);
  EXPECT_EQ(conj.children.size(), 4u);  // flattened n-ary
}

TEST(Parser, OrPrecedence) {
  auto q = ParseQuery("select a from t where a=1 or b=2 and c=3");
  ASSERT_TRUE(q.ok());
  const Ast& pred = q->children.back().children[0];
  EXPECT_EQ(pred.sym, Symbol::kOr);
  ASSERT_EQ(pred.children.size(), 2u);
  EXPECT_EQ(pred.children[1].sym, Symbol::kAnd);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  auto q = ParseQuery("select a from t where (a=1 or b=2) and c=3");
  ASSERT_TRUE(q.ok());
  const Ast& pred = q->children.back().children[0];
  EXPECT_EQ(pred.sym, Symbol::kAnd);
  EXPECT_EQ(pred.children[0].sym, Symbol::kOr);
}

TEST(Parser, Between) {
  auto q = ParseQuery("select a from t where u between 0 and 30");
  ASSERT_TRUE(q.ok());
  const Ast& b = q->children.back().children[0];
  EXPECT_EQ(b.sym, Symbol::kBetween);
  ASSERT_EQ(b.children.size(), 3u);
  EXPECT_EQ(b.children[1].value, "0");
  EXPECT_EQ(b.children[2].value, "30");
}

TEST(Parser, InList) {
  auto q = ParseQuery("select a from t where x in (1, 2, 3)");
  ASSERT_TRUE(q.ok());
  const Ast& in = q->children.back().children[0];
  EXPECT_EQ(in.sym, Symbol::kIn);
  EXPECT_EQ(in.children[1].sym, Symbol::kList);
  EXPECT_EQ(in.children[1].children.size(), 3u);
}

TEST(Parser, NotIn) {
  auto q = ParseQuery("select a from t where x not in (1, 2)");
  ASSERT_TRUE(q.ok());
  const Ast& n = q->children.back().children[0];
  EXPECT_EQ(n.sym, Symbol::kNot);
  EXPECT_EQ(n.children[0].sym, Symbol::kIn);
}

TEST(Parser, Like) {
  auto q = ParseQuery("select a from t where name like 'ab%'");
  ASSERT_TRUE(q.ok());
  const Ast& l = q->children.back().children[0];
  EXPECT_EQ(l.sym, Symbol::kBiExpr);
  EXPECT_EQ(l.value, "like");
}

TEST(Parser, GroupOrderLimit) {
  auto q = ParseQuery(
      "select carrier, avg(delay) from flights where m = 3 "
      "group by carrier order by carrier desc limit 5");
  ASSERT_TRUE(q.ok());
  bool has_group = false;
  bool has_order = false;
  bool has_limit = false;
  for (const Ast& c : q->children) {
    has_group |= c.sym == Symbol::kGroupBy;
    has_order |= c.sym == Symbol::kOrderBy;
    has_limit |= c.sym == Symbol::kLimit;
  }
  EXPECT_TRUE(has_group && has_order && has_limit);
}

TEST(Parser, Alias) {
  auto q = ParseQuery("select avg(delay) as d from flights");
  ASSERT_TRUE(q.ok());
  const Ast& item = q->children[0].children[0];
  EXPECT_EQ(item.sym, Symbol::kAlias);
  EXPECT_EQ(item.value, "d");
}

TEST(Parser, Distinct) {
  auto q = ParseQuery("select distinct a from t");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->children[0].value, "distinct");
}

TEST(Parser, Arithmetic) {
  auto q = ParseQuery("select a + b * 2 from t");
  ASSERT_TRUE(q.ok());
  const Ast& e = q->children[0].children[0];
  EXPECT_EQ(e.sym, Symbol::kBiExpr);
  EXPECT_EQ(e.value, "+");
  EXPECT_EQ(e.children[1].value, "*");
}

TEST(Parser, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("select").ok());
  EXPECT_FALSE(ParseQuery("select a").ok());          // missing FROM
  EXPECT_FALSE(ParseQuery("select from t").ok());     // missing items
  EXPECT_FALSE(ParseQuery("select a from").ok());     // missing table
  EXPECT_FALSE(ParseQuery("select a from t where").ok());
  EXPECT_FALSE(ParseQuery("select top x a from t").ok());
  EXPECT_FALSE(ParseQuery("select a from t extra junk").ok());
  EXPECT_FALSE(ParseQuery("select a from t where a between 1").ok());
}

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// Adversarial nesting is a ParseError, never a stack overflow.
TEST(Parser, DeepNestingIsParseError) {
  const int n = 20000;
  for (const std::string& sql :
       {"select a from t where " + Repeat("(", n) + "a = 1" + Repeat(")", n),
        "select a from t where " + Repeat("not ", n) + "a = 1",
        "select " + Repeat("f(", n) + "a" + Repeat(")", n) + " from t"}) {
    auto q = ParseQuery(sql);
    ASSERT_FALSE(q.ok()) << sql.substr(0, 40);
    EXPECT_EQ(q.status().code(), StatusCode::kParseError);
    EXPECT_NE(q.status().message().find("nested deeper than"), std::string::npos)
        << q.status().message();
  }
}

TEST(Parser, NestingWithinCapParsesAndUnparsesUnchanged) {
  const int n = 100;
  auto parens =
      ParseQuery("select a from t where " + Repeat("(", n) + "a = 1" + Repeat(")", n));
  ASSERT_TRUE(parens.ok()) << parens.status().ToString();
  EXPECT_EQ(*parens, *ParseQuery("select a from t where a = 1"));
  for (const std::string& sql :
       {"select a from t where " + Repeat("not ", n) + "a = 1",
        "select " + Repeat("f(", n) + "a" + Repeat(")", n) + " from t"}) {
    auto q = ParseQuery(sql);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto text = Unparse(*q);
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(*text, sql);
  }
}

TEST(Parser, ParseQueriesReportsIndex) {
  auto r = ParseQueries({"select a from t", "select bogus from"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("query 1"), std::string::npos);
}

TEST(Ast, EqualityAndHash) {
  Ast a = *ParseQuery("select a from t where x = 1");
  Ast b = *ParseQuery("select  a  from t where x=1");
  Ast c = *ParseQuery("select a from t where x = 2");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
  EXPECT_NE(a.Hash(), c.Hash());
}

TEST(Ast, CountsAndDepth) {
  Ast q = *ParseQuery("select a from t");
  EXPECT_EQ(q.NodeCount(), 5u);  // Select, Project, ColExpr, From, Table
  EXPECT_EQ(q.Depth(), 3u);
}

class RoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTripTest, UnparseParseFixpoint) {
  auto q1 = ParseQuery(GetParam());
  ASSERT_TRUE(q1.ok()) << GetParam();
  auto text = Unparse(*q1);
  ASSERT_TRUE(text.ok()) << GetParam();
  auto q2 = ParseQuery(*text);
  ASSERT_TRUE(q2.ok()) << *text;
  EXPECT_EQ(*q1, *q2) << "round-trip changed the AST for: " << *text;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, RoundTripTest,
    ::testing::Values(
        "select a from t",
        "select top 10 objid from stars where u between 0 and 30",
        "select count(*) from quasars",
        "select distinct a, b from t order by a desc, b limit 3",
        "select a from t where x in (1, 2, 3) and y like 'a%'",
        "select a from t where not (x = 1 or y = 2)",
        "select avg(d) as ad from f group by c",
        "select a + b * 2 from t where (a - 1) / 2 > 3",
        "select a from t where a=1 and b=2 and c=3 or d=4",
        "select 'lit' from t where s <> 'x''y'"));

class SdssRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SdssRoundTrip, Listing1Queries) {
  std::string sql = SdssListing1()[static_cast<size_t>(GetParam())];
  auto q1 = ParseQuery(sql);
  ASSERT_TRUE(q1.ok());
  auto text = Unparse(*q1);
  ASSERT_TRUE(text.ok());
  auto q2 = ParseQuery(*text);
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(*q1, *q2);
}

INSTANTIATE_TEST_SUITE_P(Listing1, SdssRoundTrip, ::testing::Range(0, 10));

TEST(Catalog, ValidatesColumnsAndTables) {
  Catalog cat;
  cat.AddTable({"t", {{"a", ColumnType::kInt64}, {"b", ColumnType::kString}}});
  EXPECT_TRUE(cat.HasTable("T"));  // case-insensitive
  EXPECT_TRUE(cat.ValidateQuery(*ParseQuery("select a from t where b = 'x'")).ok());
  EXPECT_FALSE(cat.ValidateQuery(*ParseQuery("select zz from t")).ok());
  EXPECT_FALSE(cat.ValidateQuery(*ParseQuery("select a from missing")).ok());
}

TEST(Catalog, FindColumn) {
  TableSchema s{"t", {{"alpha", ColumnType::kDouble}, {"beta", ColumnType::kInt64}}};
  EXPECT_EQ(s.FindColumn("BETA"), 1);
  EXPECT_EQ(s.FindColumn("gamma"), -1);
}

TEST(Unparser, FragmentsForWidgetLabels) {
  Ast top(Symbol::kTop, "10");
  EXPECT_EQ(UnparseFragment(top), "top 10");
  Ast where = ParseQuery("select a from t where x = 1")->children.back();
  EXPECT_EQ(UnparseFragment(where), "where x = 1");
  // Non-grammatical fragments must not crash (mid-search difftrees).
  Ast bad(Symbol::kBiExpr, "=", {Col("x")});  // missing rhs
  EXPECT_EQ(UnparseFragment(bad), "x = ?");
}

}  // namespace
}  // namespace ifgen
