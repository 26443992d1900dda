/// \file ast.h
/// \brief AST for the SQL subset the ZQL compiler emits (§5.1):
///
///   SELECT <cols and aggregates> FROM <table>
///   [WHERE <boolean combination of comparisons / IN / BETWEEN / LIKE>]
///   [GROUP BY <cols>] [ORDER BY <cols> [DESC]] [LIMIT n]

#ifndef ZV_SQL_AST_H_
#define ZV_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace zv::sql {

/// Aggregate functions supported in SELECT items.
enum class AggFunc { kNone, kSum, kAvg, kCount, kMin, kMax };

const char* AggFuncToString(AggFunc f);

/// \brief One SELECT-list entry: a bare column or agg(column).
struct SelectItem {
  std::string column;          ///< column name; "*" only with kCount
  AggFunc agg = AggFunc::kNone;

  bool is_aggregate() const { return agg != AggFunc::kNone; }
  std::string DisplayName() const;
};

/// Comparison operators in predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// \brief Boolean predicate expression tree.
struct Expr {
  enum class Kind { kAnd, kOr, kNot, kCompare, kIn, kBetween, kLike };

  Kind kind = Kind::kCompare;

  // kAnd / kOr: 2+ children. kNot: 1 child.
  std::vector<std::unique_ptr<Expr>> children;

  // Leaf payload (kCompare / kIn / kBetween / kLike).
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value value;                ///< kCompare rhs; kLike pattern (string)
  std::vector<Value> values;  ///< kIn list; kBetween uses values[0..1]

  static std::unique_ptr<Expr> Compare(std::string column, CompareOp op,
                                       Value value);
  static std::unique_ptr<Expr> In(std::string column,
                                  std::vector<Value> values);
  static std::unique_ptr<Expr> Between(std::string column, Value lo, Value hi);
  static std::unique_ptr<Expr> Like(std::string column, std::string pattern);
  static std::unique_ptr<Expr> And(std::vector<std::unique_ptr<Expr>> children);
  static std::unique_ptr<Expr> Or(std::vector<std::unique_ptr<Expr>> children);
  static std::unique_ptr<Expr> Not(std::unique_ptr<Expr> child);

  std::unique_ptr<Expr> Clone() const;

  /// Renders as SQL text (parenthesized where needed).
  std::string ToSql() const;
};

/// \brief One ORDER BY key.
struct OrderKey {
  std::string column;
  bool descending = false;
};

/// \brief A full SELECT statement.
struct SelectStatement {
  std::vector<SelectItem> items;
  std::string table;
  std::unique_ptr<Expr> where;  ///< may be null
  std::vector<std::string> group_by;
  /// When non-empty, parallel to `group_by`: a positive entry bins that
  /// (numeric) key column by width — rows group by the bin's lower edge
  /// `floor(v / w) * w`, which is also the value the key column emits —
  /// and 0 groups by the raw value as usual. Engine-side form of
  /// viz/binning.h, produced by the ZQL layer's binning pushdown and by
  /// the text parser for `GROUP BY BIN(col, w)`; empty when no key is
  /// binned.
  std::vector<double> group_bins;
  std::vector<OrderKey> order_by;
  int64_t limit = -1;  ///< -1 = no limit

  SelectStatement() = default;
  SelectStatement(const SelectStatement& other) { *this = other; }
  SelectStatement& operator=(const SelectStatement& other);
  SelectStatement(SelectStatement&&) = default;
  SelectStatement& operator=(SelectStatement&&) = default;

  /// Renders as SQL text; the inverse of Parser::ParseSelect for the subset.
  std::string ToSql() const;
};

}  // namespace zv::sql

#endif  // ZV_SQL_AST_H_
