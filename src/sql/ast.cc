#include "sql/ast.h"

#include "common/json.h"
#include "common/strings.h"

namespace zv::sql {

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "";
}

std::string SelectItem::DisplayName() const {
  if (!is_aggregate()) return column;
  return std::string(AggFuncToString(agg)) + "(" + column + ")";
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::Compare(std::string column, CompareOp op,
                                    Value value) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kCompare;
  e->column = std::move(column);
  e->op = op;
  e->value = std::move(value);
  return e;
}

std::unique_ptr<Expr> Expr::In(std::string column, std::vector<Value> values) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kIn;
  e->column = std::move(column);
  e->values = std::move(values);
  return e;
}

std::unique_ptr<Expr> Expr::Between(std::string column, Value lo, Value hi) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBetween;
  e->column = std::move(column);
  e->values = {std::move(lo), std::move(hi)};
  return e;
}

std::unique_ptr<Expr> Expr::Like(std::string column, std::string pattern) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLike;
  e->column = std::move(column);
  e->value = Value::Str(std::move(pattern));
  return e;
}

std::unique_ptr<Expr> Expr::And(std::vector<std::unique_ptr<Expr>> children) {
  if (children.size() == 1) return std::move(children[0]);
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kAnd;
  e->children = std::move(children);
  return e;
}

std::unique_ptr<Expr> Expr::Or(std::vector<std::unique_ptr<Expr>> children) {
  if (children.size() == 1) return std::move(children[0]);
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kOr;
  e->children = std::move(children);
  return e;
}

std::unique_ptr<Expr> Expr::Not(std::unique_ptr<Expr> child) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kNot;
  e->children.push_back(std::move(child));
  return e;
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->column = column;
  e->op = op;
  e->value = value;
  e->values = values;
  e->children.reserve(children.size());
  for (const auto& c : children) e->children.push_back(c->Clone());
  return e;
}

namespace {

std::string Quoted(const Value& v) {
  if (v.is_string()) {
    std::string out = "'";
    for (char c : v.AsString()) {
      if (c == '\'') out += "''";
      else out += c;
    }
    out += "'";
    return out;
  }
  return v.ToString();
}

}  // namespace

std::string Expr::ToSql() const {
  switch (kind) {
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<std::string> parts;
      parts.reserve(children.size());
      for (const auto& c : children) {
        const bool paren = c->kind == Kind::kAnd || c->kind == Kind::kOr;
        parts.push_back(paren ? "(" + c->ToSql() + ")" : c->ToSql());
      }
      return Join(parts, kind == Kind::kAnd ? " AND " : " OR ");
    }
    case Kind::kNot:
      return "NOT (" + children[0]->ToSql() + ")";
    case Kind::kCompare:
      return column + " " + CompareOpToString(op) + " " + Quoted(value);
    case Kind::kIn: {
      std::vector<std::string> parts;
      parts.reserve(values.size());
      for (const auto& v : values) parts.push_back(Quoted(v));
      return column + " IN (" + Join(parts, ", ") + ")";
    }
    case Kind::kBetween:
      return column + " BETWEEN " + Quoted(values[0]) + " AND " +
             Quoted(values[1]);
    case Kind::kLike:
      return column + " LIKE " + Quoted(value);
  }
  return "";
}

SelectStatement& SelectStatement::operator=(const SelectStatement& other) {
  if (this == &other) return *this;
  items = other.items;
  table = other.table;
  where = other.where ? other.where->Clone() : nullptr;
  group_by = other.group_by;
  group_bins = other.group_bins;
  order_by = other.order_by;
  limit = other.limit;
  return *this;
}

std::string SelectStatement::ToSql() const {
  std::vector<std::string> cols;
  cols.reserve(items.size());
  for (const auto& item : items) cols.push_back(item.DisplayName());
  std::string sql = "SELECT " + Join(cols, ", ") + " FROM " + table;
  if (where) sql += " WHERE " + where->ToSql();
  if (!group_by.empty()) {
    std::vector<std::string> keys;
    keys.reserve(group_by.size());
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i < group_bins.size() && group_bins[i] > 0) {
        // Binned key, printed with the shortest round-trip width so
        // statements differing only in bin width never collide in logs or
        // fingerprints, and the text parses back to the same statement.
        keys.push_back("BIN(" + group_by[i] + ", " +
                       CanonicalDouble(group_bins[i]) + ")");
      } else {
        keys.push_back(group_by[i]);
      }
    }
    sql += " GROUP BY " + Join(keys, ", ");
  }
  if (!order_by.empty()) {
    std::vector<std::string> keys;
    keys.reserve(order_by.size());
    for (const auto& k : order_by) {
      keys.push_back(k.column + (k.descending ? " DESC" : ""));
    }
    sql += " ORDER BY " + Join(keys, ", ");
  }
  if (limit >= 0) sql += " LIMIT " + std::to_string(limit);
  return sql;
}

}  // namespace zv::sql
