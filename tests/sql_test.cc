#include <gtest/gtest.h>

#include "sql/ast.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace zv::sql {
namespace {

TEST(SqlParserTest, SimpleSelect) {
  ZV_ASSERT_OK_AND_ASSIGN(SelectStatement st,
                          ParseSelect("SELECT year, sales FROM t"));
  ASSERT_EQ(st.items.size(), 2u);
  EXPECT_EQ(st.items[0].column, "year");
  EXPECT_FALSE(st.items[0].is_aggregate());
  EXPECT_EQ(st.table, "t");
  EXPECT_EQ(st.where, nullptr);
}

TEST(SqlParserTest, Aggregates) {
  ZV_ASSERT_OK_AND_ASSIGN(
      SelectStatement st,
      ParseSelect("SELECT year, SUM(sales), COUNT(*), AVG(profit) FROM t "
                  "GROUP BY year"));
  EXPECT_EQ(st.items[1].agg, AggFunc::kSum);
  EXPECT_EQ(st.items[2].agg, AggFunc::kCount);
  EXPECT_EQ(st.items[2].column, "*");
  EXPECT_EQ(st.items[3].agg, AggFunc::kAvg);
  EXPECT_EQ(st.group_by, (std::vector<std::string>{"year"}));
}

TEST(SqlParserTest, WhereTree) {
  ZV_ASSERT_OK_AND_ASSIGN(
      SelectStatement st,
      ParseSelect("SELECT a FROM t WHERE x = 'u' AND (y > 3 OR z != 4)"));
  ASSERT_NE(st.where, nullptr);
  EXPECT_EQ(st.where->kind, Expr::Kind::kAnd);
  ASSERT_EQ(st.where->children.size(), 2u);
  EXPECT_EQ(st.where->children[1]->kind, Expr::Kind::kOr);
}

TEST(SqlParserTest, InBetweenLike) {
  ZV_ASSERT_OK_AND_ASSIGN(
      SelectStatement st,
      ParseSelect("SELECT a FROM t WHERE p IN ('x','y') AND w BETWEEN 2 AND 5 "
                  "AND zip LIKE '02%'"));
  ASSERT_EQ(st.where->children.size(), 3u);
  EXPECT_EQ(st.where->children[0]->kind, Expr::Kind::kIn);
  EXPECT_EQ(st.where->children[0]->values.size(), 2u);
  EXPECT_EQ(st.where->children[1]->kind, Expr::Kind::kBetween);
  EXPECT_EQ(st.where->children[2]->kind, Expr::Kind::kLike);
}

TEST(SqlParserTest, NotIn) {
  ZV_ASSERT_OK_AND_ASSIGN(
      SelectStatement st, ParseSelect("SELECT a FROM t WHERE p NOT IN (1,2)"));
  EXPECT_EQ(st.where->kind, Expr::Kind::kNot);
  EXPECT_EQ(st.where->children[0]->kind, Expr::Kind::kIn);
}

TEST(SqlParserTest, OrderLimit) {
  ZV_ASSERT_OK_AND_ASSIGN(
      SelectStatement st,
      ParseSelect("SELECT a, b FROM t ORDER BY a DESC, b LIMIT 7"));
  ASSERT_EQ(st.order_by.size(), 2u);
  EXPECT_TRUE(st.order_by[0].descending);
  EXPECT_FALSE(st.order_by[1].descending);
  EXPECT_EQ(st.limit, 7);
}

TEST(SqlParserTest, NegativeNumbers) {
  ZV_ASSERT_OK_AND_ASSIGN(SelectStatement st,
                          ParseSelect("SELECT a FROM t WHERE d > -3.5"));
  EXPECT_DOUBLE_EQ(st.where->value.AsDouble(), -3.5);
}

TEST(SqlParserTest, QuotedStringEscapes) {
  ZV_ASSERT_OK_AND_ASSIGN(
      SelectStatement st, ParseSelect("SELECT a FROM t WHERE p = 'o''brien'"));
  EXPECT_EQ(st.where->value.AsString(), "o'brien");
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  ZV_EXPECT_OK(ParseSelect("select a from t where b = 1 group by a "
                           "order by a limit 5")
                   .status());
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra junk").ok());
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM t").ok());
}

TEST(SqlParserTest, RoundTripThroughToSql) {
  const char* queries[] = {
      "SELECT year, SUM(sales) FROM sales WHERE location = 'US' GROUP BY "
      "year ORDER BY year",
      "SELECT a FROM t WHERE p IN ('x', 'y') AND w BETWEEN 2 AND 5",
      "SELECT a, b FROM t WHERE (a = 1 AND b = 2) OR c != 3 ORDER BY a DESC "
      "LIMIT 10",
  };
  for (const char* q : queries) {
    ZV_ASSERT_OK_AND_ASSIGN(SelectStatement st, ParseSelect(q));
    const std::string rendered = st.ToSql();
    ZV_ASSERT_OK_AND_ASSIGN(SelectStatement again, ParseSelect(rendered));
    EXPECT_EQ(again.ToSql(), rendered) << q;
  }
}

/// Binned GROUP BY keys — the form the ZQL binning pushdown hands to the
/// backend — parse back into group_bins, and print∘parse is a fixed point.
TEST(SqlParserTest, BinnedGroupByRoundTrips) {
  ZV_ASSERT_OK_AND_ASSIGN(
      SelectStatement st,
      ParseSelect("SELECT weight, SUM(sales) FROM t WHERE a = 'x' GROUP BY "
                  "year, BIN(weight, 2.5)"));
  EXPECT_EQ(st.group_by, (std::vector<std::string>{"year", "weight"}));
  EXPECT_EQ(st.group_bins, (std::vector<double>{0, 2.5}));
  const std::string rendered = st.ToSql();
  ZV_ASSERT_OK_AND_ASSIGN(SelectStatement again, ParseSelect(rendered));
  EXPECT_EQ(again.group_by, st.group_by);
  EXPECT_EQ(again.group_bins, st.group_bins);
  EXPECT_EQ(again.ToSql(), rendered);

  // An unbinned statement keeps group_bins empty.
  ZV_ASSERT_OK_AND_ASSIGN(SelectStatement plain,
                          ParseSelect("SELECT a FROM t GROUP BY a"));
  EXPECT_TRUE(plain.group_bins.empty());

  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP BY BIN(a, 0)").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP BY BIN(a, -2)").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP BY BIN(a)").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP BY BIN(a, 'w')").ok());
}

/// Bin widths print with the shortest round-trip decimal: widths that
/// differ only past %g's six significant digits stay distinct and parse
/// back to the same bits.
TEST(SqlParserTest, BinWidthPrintsExactly) {
  std::vector<std::string> texts;
  for (double width : {0.1234567, 0.1234568}) {
    SelectStatement st;
    st.items.push_back({});
    st.items.back().column = "x";
    st.table = "t";
    st.group_by = {"x"};
    st.group_bins = {width};
    texts.push_back(st.ToSql());
    ZV_ASSERT_OK_AND_ASSIGN(SelectStatement again, ParseSelect(texts.back()));
    ASSERT_EQ(again.group_bins.size(), 1u);
    EXPECT_EQ(again.group_bins[0], width) << texts.back();
  }
  EXPECT_NE(texts[0], texts[1]);
}

TEST(SqlParserTest, BareWhereExpr) {
  ZV_ASSERT_OK_AND_ASSIGN(auto e,
                          ParseWhereExpr("product = 'chair' AND year = 2015"));
  EXPECT_EQ(e->kind, Expr::Kind::kAnd);
}

TEST(SqlAstTest, CloneIsDeep) {
  ZV_ASSERT_OK_AND_ASSIGN(auto e, ParseWhereExpr("a = 1 OR (b = 2 AND c = 3)"));
  auto clone = e->Clone();
  EXPECT_EQ(clone->ToSql(), e->ToSql());
  e->children[0]->value = Value::Int(99);
  EXPECT_NE(clone->ToSql(), e->ToSql());
}

TEST(SqlAstTest, StatementCopyIsDeep) {
  ZV_ASSERT_OK_AND_ASSIGN(SelectStatement st,
                          ParseSelect("SELECT a FROM t WHERE a = 1"));
  SelectStatement copy = st;
  st.where->value = Value::Int(2);
  EXPECT_NE(copy.ToSql(), st.ToSql());
}

}  // namespace
}  // namespace zv::sql
