#include "sql/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/strings.h"

namespace zv::sql {

namespace {

enum class TokKind {
  kIdent,
  kString,
  kNumber,
  kSymbol,  // punctuation and operators
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // identifier (original case), symbol, or string body
  double number = 0;
  bool is_int = false;
  int64_t int_value = 0;
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      Token t;
      t.pos = i_;
      if (i_ >= text_.size()) {
        t.kind = TokKind::kEnd;
        out.push_back(t);
        return out;
      }
      const char c = text_[i_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i_;
        while (i_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i_])) ||
                text_[i_] == '_')) {
          ++i_;
        }
        t.kind = TokKind::kIdent;
        t.text = text_.substr(start, i_ - start);
        out.push_back(std::move(t));
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i_ + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[i_ + 1])) &&
           ExpectsValue(out))) {
        size_t start = i_;
        if (c == '-') ++i_;
        bool has_dot = false, has_exp = false;
        while (i_ < text_.size()) {
          const char d = text_[i_];
          if (std::isdigit(static_cast<unsigned char>(d))) {
            ++i_;
          } else if (d == '.' && !has_dot && !has_exp) {
            has_dot = true;
            ++i_;
          } else if ((d == 'e' || d == 'E') && !has_exp) {
            has_exp = true;
            ++i_;
            if (i_ < text_.size() && (text_[i_] == '+' || text_[i_] == '-'))
              ++i_;
          } else {
            break;
          }
        }
        t.kind = TokKind::kNumber;
        t.text = text_.substr(start, i_ - start);
        t.number = std::strtod(t.text.c_str(), nullptr);
        t.is_int = !has_dot && !has_exp;
        if (t.is_int) t.int_value = std::strtoll(t.text.c_str(), nullptr, 10);
        out.push_back(std::move(t));
        continue;
      }
      if (c == '\'') {
        ++i_;
        std::string body;
        bool closed = false;
        while (i_ < text_.size()) {
          if (text_[i_] == '\'') {
            if (i_ + 1 < text_.size() && text_[i_ + 1] == '\'') {
              body += '\'';
              i_ += 2;
            } else {
              ++i_;
              closed = true;
              break;
            }
          } else {
            body += text_[i_++];
          }
        }
        if (!closed) {
          return Status::ParseError(
              StrFormat("unterminated string literal at %zu", t.pos));
        }
        t.kind = TokKind::kString;
        t.text = std::move(body);
        out.push_back(std::move(t));
        continue;
      }
      // Multi-char operators.
      static const char* kTwoChar[] = {"<=", ">=", "!=", "<>"};
      bool matched = false;
      for (const char* op : kTwoChar) {
        if (text_.compare(i_, 2, op) == 0) {
          t.kind = TokKind::kSymbol;
          t.text = op;
          i_ += 2;
          out.push_back(std::move(t));
          matched = true;
          break;
        }
      }
      if (matched) continue;
      static const std::string kOneChar = "(),=<>*.;";
      if (kOneChar.find(c) != std::string::npos) {
        t.kind = TokKind::kSymbol;
        t.text = std::string(1, c);
        ++i_;
        out.push_back(std::move(t));
        continue;
      }
      return Status::ParseError(
          StrFormat("unexpected character '%c' at %zu", c, i_));
    }
  }

 private:
  void SkipSpace() {
    while (i_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[i_]))) {
      ++i_;
    }
  }

  // A leading '-' starts a negative number only where a value is expected
  // (after an operator, comma, or opening paren), not after an identifier.
  static bool ExpectsValue(const std::vector<Token>& sofar) {
    if (sofar.empty()) return true;
    const Token& last = sofar.back();
    if (last.kind == TokKind::kSymbol) return last.text != ")";
    return false;
  }

  const std::string& text_;
  size_t i_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseSelectStatement() {
    SelectStatement stmt;
    ZV_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    while (true) {
      ZV_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      stmt.items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    ZV_RETURN_NOT_OK(ExpectKeyword("FROM"));
    ZV_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (AcceptKeyword("WHERE")) {
      ZV_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    if (AcceptKeyword("GROUP")) {
      ZV_RETURN_NOT_OK(ExpectKeyword("BY"));
      std::vector<double> bins;
      while (true) {
        double width = 0;
        ZV_ASSIGN_OR_RETURN(std::string col, ParseGroupKey(&width));
        stmt.group_by.push_back(std::move(col));
        bins.push_back(width);
        if (!AcceptSymbol(",")) break;
      }
      // group_bins stays empty unless some key is binned (the form the
      // ZQL binning pushdown produces), so parse∘print is a fixed point.
      if (std::any_of(bins.begin(), bins.end(),
                      [](double width) { return width > 0; })) {
        stmt.group_bins = std::move(bins);
      }
    }
    if (AcceptKeyword("ORDER")) {
      ZV_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderKey key;
        ZV_ASSIGN_OR_RETURN(key.column, ExpectIdent());
        if (AcceptKeyword("DESC")) key.descending = true;
        else AcceptKeyword("ASC");
        stmt.order_by.push_back(std::move(key));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      const Token& t = Peek();
      if (t.kind != TokKind::kNumber || !t.is_int) {
        return Status::ParseError("LIMIT expects an integer");
      }
      stmt.limit = t.int_value;
      Advance();
    }
    AcceptSymbol(";");
    if (Peek().kind != TokKind::kEnd) {
      return Status::ParseError(
          StrFormat("trailing input at %zu: '%s'", Peek().pos,
                    Peek().text.c_str()));
    }
    return stmt;
  }

  Result<std::unique_ptr<Expr>> ParseBareExpr() {
    ZV_ASSIGN_OR_RETURN(auto e, ParseOr());
    if (Peek().kind != TokKind::kEnd) {
      return Status::ParseError(
          StrFormat("trailing input in expression at %zu", Peek().pos));
    }
    return e;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool AcceptKeyword(const std::string& kw) {
    if (Peek().kind == TokKind::kIdent && ToLower(Peek().text) == ToLower(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError(StrFormat("expected %s at %zu (got '%s')",
                                          kw.c_str(), Peek().pos,
                                          Peek().text.c_str()));
    }
    return Status::OK();
  }

  bool AcceptSymbol(const std::string& sym) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == sym) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const std::string& sym) {
    if (!AcceptSymbol(sym)) {
      return Status::ParseError(StrFormat("expected '%s' at %zu (got '%s')",
                                          sym.c_str(), Peek().pos,
                                          Peek().text.c_str()));
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::ParseError(StrFormat("expected identifier at %zu",
                                          Peek().pos));
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }

  /// One GROUP BY key: a column, or BIN(column, width) — the binned key
  /// SelectStatement::ToSql prints. Sets *width to the bin width (0 for a
  /// plain column).
  Result<std::string> ParseGroupKey(double* width) {
    *width = 0;
    if (!(Peek().kind == TokKind::kIdent && ToLower(Peek().text) == "bin" &&
          Peek(1).kind == TokKind::kSymbol && Peek(1).text == "(")) {
      return ExpectIdent();
    }
    Advance();  // BIN
    Advance();  // (
    ZV_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
    ZV_RETURN_NOT_OK(ExpectSymbol(","));
    const Token& t = Peek();
    if (t.kind != TokKind::kNumber || !(t.number > 0)) {
      return Status::ParseError(
          StrFormat("BIN expects a positive width at %zu", t.pos));
    }
    *width = t.number;
    Advance();
    ZV_RETURN_NOT_OK(ExpectSymbol(")"));
    return col;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (Peek().kind != TokKind::kIdent) {
      return Status::ParseError(
          StrFormat("expected column or aggregate at %zu", Peek().pos));
    }
    const std::string first = Peek().text;
    const std::string lower = ToLower(first);
    static const std::pair<const char*, AggFunc> kAggs[] = {
        {"sum", AggFunc::kSum},     {"avg", AggFunc::kAvg},
        {"count", AggFunc::kCount}, {"min", AggFunc::kMin},
        {"max", AggFunc::kMax},
    };
    for (const auto& [name, fn] : kAggs) {
      if (lower == name && Peek(1).kind == TokKind::kSymbol &&
          Peek(1).text == "(") {
        Advance();  // agg name
        Advance();  // (
        if (AcceptSymbol("*")) {
          if (fn != AggFunc::kCount) {
            return Status::ParseError("only COUNT accepts *");
          }
          item.column = "*";
        } else {
          ZV_ASSIGN_OR_RETURN(item.column, ExpectIdent());
        }
        ZV_RETURN_NOT_OK(ExpectSymbol(")"));
        item.agg = fn;
        return item;
      }
    }
    Advance();
    item.column = first;
    return item;
  }

  Result<std::unique_ptr<Expr>> ParseOr() {
    std::vector<std::unique_ptr<Expr>> parts;
    ZV_ASSIGN_OR_RETURN(auto first, ParseAnd());
    parts.push_back(std::move(first));
    while (AcceptKeyword("OR")) {
      ZV_ASSIGN_OR_RETURN(auto next, ParseAnd());
      parts.push_back(std::move(next));
    }
    return Expr::Or(std::move(parts));
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    std::vector<std::unique_ptr<Expr>> parts;
    ZV_ASSIGN_OR_RETURN(auto first, ParseUnary());
    parts.push_back(std::move(first));
    while (AcceptKeyword("AND")) {
      ZV_ASSIGN_OR_RETURN(auto next, ParseUnary());
      parts.push_back(std::move(next));
    }
    return Expr::And(std::move(parts));
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (AcceptKeyword("NOT")) {
      ZV_ASSIGN_OR_RETURN(auto child, ParseUnary());
      return Expr::Not(std::move(child));
    }
    if (AcceptSymbol("(")) {
      ZV_ASSIGN_OR_RETURN(auto inner, ParseOr());
      ZV_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    return ParseComparison();
  }

  Result<Value> ParseLiteral() {
    const Token& t = Peek();
    if (t.kind == TokKind::kString) {
      Value v = Value::Str(t.text);
      Advance();
      return v;
    }
    if (t.kind == TokKind::kNumber) {
      Value v = t.is_int ? Value::Int(t.int_value) : Value::Double(t.number);
      Advance();
      return v;
    }
    return Status::ParseError(
        StrFormat("expected literal at %zu (got '%s')", t.pos, t.text.c_str()));
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    ZV_ASSIGN_OR_RETURN(std::string column, ExpectIdent());
    if (AcceptKeyword("IN")) {
      ZV_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<Value> values;
      if (!AcceptSymbol(")")) {
        while (true) {
          ZV_ASSIGN_OR_RETURN(Value v, ParseLiteral());
          values.push_back(std::move(v));
          if (!AcceptSymbol(",")) break;
        }
        ZV_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      return Expr::In(std::move(column), std::move(values));
    }
    if (AcceptKeyword("BETWEEN")) {
      ZV_ASSIGN_OR_RETURN(Value lo, ParseLiteral());
      ZV_RETURN_NOT_OK(ExpectKeyword("AND"));
      ZV_ASSIGN_OR_RETURN(Value hi, ParseLiteral());
      return Expr::Between(std::move(column), std::move(lo), std::move(hi));
    }
    if (AcceptKeyword("LIKE")) {
      const Token& t = Peek();
      if (t.kind != TokKind::kString) {
        return Status::ParseError("LIKE expects a string pattern");
      }
      std::string pattern = t.text;
      Advance();
      return Expr::Like(std::move(column), std::move(pattern));
    }
    if (AcceptKeyword("NOT")) {
      if (AcceptKeyword("IN")) {
        ZV_RETURN_NOT_OK(ExpectSymbol("("));
        std::vector<Value> values;
        if (!AcceptSymbol(")")) {
          while (true) {
            ZV_ASSIGN_OR_RETURN(Value v, ParseLiteral());
            values.push_back(std::move(v));
            if (!AcceptSymbol(",")) break;
          }
          ZV_RETURN_NOT_OK(ExpectSymbol(")"));
        }
        return Expr::Not(Expr::In(std::move(column), std::move(values)));
      }
      return Status::ParseError("expected IN after NOT");
    }
    const Token& t = Peek();
    if (t.kind != TokKind::kSymbol) {
      return Status::ParseError(
          StrFormat("expected comparison operator at %zu", t.pos));
    }
    CompareOp op;
    if (t.text == "=") op = CompareOp::kEq;
    else if (t.text == "!=" || t.text == "<>") op = CompareOp::kNe;
    else if (t.text == "<") op = CompareOp::kLt;
    else if (t.text == "<=") op = CompareOp::kLe;
    else if (t.text == ">") op = CompareOp::kGt;
    else if (t.text == ">=") op = CompareOp::kGe;
    else {
      return Status::ParseError(
          StrFormat("unknown operator '%s' at %zu", t.text.c_str(), t.pos));
    }
    Advance();
    ZV_ASSIGN_OR_RETURN(Value rhs, ParseLiteral());
    return Expr::Compare(std::move(column), op, std::move(rhs));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectStatement> ParseSelect(const std::string& text) {
  Lexer lexer(text);
  ZV_ASSIGN_OR_RETURN(auto tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseSelectStatement();
}

Result<std::unique_ptr<Expr>> ParseWhereExpr(const std::string& text) {
  Lexer lexer(text);
  ZV_ASSIGN_OR_RETURN(auto tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseBareExpr();
}

}  // namespace zv::sql
