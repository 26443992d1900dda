#include "engine/roaring_db.h"

#include <algorithm>
#include <utility>

#include "common/cancel.h"
#include "engine/predicate.h"
#include "engine/select_runner.h"

namespace zv {

using roaring::RoaringBitmap;
using sql::Expr;

Status RoaringDatabase::RegisterTable(std::shared_ptr<Table> table) {
  ZV_RETURN_NOT_OK(Database::RegisterTable(table));
  TableIndex index;
  const size_t ncols = table->schema().num_columns();
  const size_t nrows = table->num_rows();
  index.per_value.resize(ncols);
  index.all_rows = RoaringBitmap::FromRange(0, static_cast<uint32_t>(nrows));
  for (size_t col = 0; col < ncols; ++col) {
    if (table->column_type(col) != ColumnType::kCategorical) continue;
    const size_t dict_size = table->DictSize(col);
    // Bucket row ids per code (already sorted), then bulk-build bitmaps.
    std::vector<std::vector<uint32_t>> buckets(dict_size);
    const auto& codes = table->CategoricalColumn(col);
    for (size_t row = 0; row < nrows; ++row) {
      buckets[static_cast<size_t>(codes[row])].push_back(
          static_cast<uint32_t>(row));
    }
    auto& bitmaps = index.per_value[col];
    bitmaps.reserve(dict_size);
    for (auto& bucket : buckets) {
      RoaringBitmap bm = RoaringBitmap::FromSortedValues(
          bucket.data(), bucket.data() + bucket.size());
      bm.RunOptimize();
      bitmaps.push_back(std::move(bm));
      bucket.clear();
      bucket.shrink_to_fit();
    }
  }
  indexes_.emplace(table->name(), std::move(index));
  return Status::OK();
}

uint64_t RoaringDatabase::container_conversions() const {
  return roaring::ContainerConversions();
}

size_t RoaringDatabase::IndexBytes(const std::string& table_name) const {
  auto it = indexes_.find(table_name);
  if (it == indexes_.end()) return 0;
  size_t n = it->second.all_rows.SizeInBytes();
  for (const auto& col : it->second.per_value) {
    for (const auto& bm : col) n += bm.SizeInBytes();
  }
  return n;
}

std::optional<RoaringBitmap> RoaringDatabase::TryBitmap(
    const Table& table, const TableIndex& index, const Expr& expr) const {
  switch (expr.kind) {
    case Expr::Kind::kAnd: {
      std::optional<RoaringBitmap> acc;
      for (const auto& child : expr.children) {
        auto bm = TryBitmap(table, index, *child);
        if (!bm.has_value()) return std::nullopt;
        if (!acc.has_value()) acc = std::move(bm);
        else acc = RoaringBitmap::And(*acc, *bm);
      }
      return acc;
    }
    case Expr::Kind::kOr: {
      std::optional<RoaringBitmap> acc;
      for (const auto& child : expr.children) {
        auto bm = TryBitmap(table, index, *child);
        if (!bm.has_value()) return std::nullopt;
        if (!acc.has_value()) acc = std::move(bm);
        else acc = RoaringBitmap::Or(*acc, *bm);
      }
      return acc;
    }
    case Expr::Kind::kNot: {
      auto bm = TryBitmap(table, index, *expr.children[0]);
      if (!bm.has_value()) return std::nullopt;
      return RoaringBitmap::AndNot(index.all_rows, *bm);
    }
    default: {
      const int col = table.schema().Find(expr.column);
      if (col < 0) return std::nullopt;  // surfaced by residual compile
      const size_t c = static_cast<size_t>(col);
      if (table.column_type(c) != ColumnType::kCategorical) {
        return std::nullopt;  // measure columns are un-indexed
      }
      const auto& bitmaps = index.per_value[c];
      const size_t dict_size = table.DictSize(c);
      std::vector<size_t> accepted;
      for (size_t code = 0; code < dict_size; ++code) {
        if (LeafPredicateAccepts(
                expr, table.DictValue(c, static_cast<int32_t>(code)))) {
          accepted.push_back(code);
        }
      }
      // OR the smaller side; complement when most codes are accepted.
      const bool complement = accepted.size() > dict_size / 2;
      RoaringBitmap acc;
      if (!complement) {
        for (size_t code : accepted) acc.OrWith(bitmaps[code]);
        return acc;
      }
      std::vector<uint8_t> is_accepted(dict_size, 0);
      for (size_t code : accepted) is_accepted[code] = 1;
      for (size_t code = 0; code < dict_size; ++code) {
        if (!is_accepted[code]) acc.OrWith(bitmaps[code]);
      }
      return RoaringBitmap::AndNot(index.all_rows, acc);
    }
  }
}

Result<RoaringDatabase::SplitPredicate> RoaringDatabase::SplitWhere(
    const Table& table, const TableIndex& index, const Expr& where) const {
  SplitPredicate split;
  std::vector<const Expr*> residual_parts;
  auto add_conjunct = [&](const Expr& e) {
    auto bm = TryBitmap(table, index, e);
    if (bm.has_value()) {
      if (!split.filter.has_value()) split.filter = std::move(bm);
      else split.filter = RoaringBitmap::And(*split.filter, *bm);
    } else {
      residual_parts.push_back(&e);
    }
  };
  if (where.kind == Expr::Kind::kAnd) {
    for (const auto& child : where.children) add_conjunct(*child);
  } else {
    add_conjunct(where);
  }
  if (!residual_parts.empty()) {
    std::vector<std::unique_ptr<Expr>> clones;
    clones.reserve(residual_parts.size());
    for (const Expr* e : residual_parts) clones.push_back(e->Clone());
    auto conj = Expr::And(std::move(clones));
    ZV_ASSIGN_OR_RETURN(CompiledPredicate pred,
                        CompiledPredicate::Compile(table, *conj));
    split.residual = std::move(pred);
  }
  return split;
}

namespace {

/// Multi-statement chunk scanner over bitmap selections. Per statement and
/// chunk range: a statement with an index-answerable filter extracts the
/// filter's values (ascending) and keeps the residual's survivors; one
/// without (no WHERE, or nothing indexable) tests its predicate row-wise.
/// Slices at container granularity so long extractions poll cancellation,
/// mirroring the blocked scan's block-boundary polls.
class RoaringChunkScanner : public MultiChunkScanner {
 public:
  struct Part {
    std::optional<RoaringBitmap> filter;
    /// The residual when `filter` is set, else the whole WHERE (none =
    /// every row survives).
    std::optional<CompiledPredicate> pred;
  };

  RoaringChunkScanner(std::shared_ptr<Table> table, std::vector<Part> parts)
      : table_(std::move(table)), parts_(std::move(parts)) {}

  size_t num_statements() const override { return parts_.size(); }

  Status ScanRange(uint32_t begin, uint32_t end,
                   std::vector<std::vector<uint32_t>>* outs) const override {
    for (size_t i = 0; i < parts_.size(); ++i) {
      const Part& part = parts_[i];
      std::vector<uint32_t>* out = &(*outs)[i];
      for (uint32_t lo = begin; lo < end;) {
        ZV_RETURN_NOT_OK(CheckCancelled());
        const uint32_t hi = static_cast<uint32_t>(std::min<uint64_t>(
            end, (static_cast<uint64_t>(lo) | 0xFFFF) + 1));
        const CompiledPredicate* pred =
            part.pred.has_value() ? &*part.pred : nullptr;
        if (part.filter.has_value()) {
          part.filter->ForEachInRange(lo, hi, [out, pred](uint32_t row) {
            if (pred == nullptr || pred->Test(row)) out->push_back(row);
          });
        } else {
          for (uint32_t row = lo; row < hi; ++row) {
            if (pred == nullptr || pred->Test(row)) out->push_back(row);
          }
        }
        lo = hi;
      }
    }
    return Status::OK();
  }

  bool Absorb(std::unique_ptr<MultiChunkScanner>& other) override {
    auto* peer = dynamic_cast<RoaringChunkScanner*>(other.get());
    if (peer == nullptr || peer->table_ != table_) return false;
    for (Part& part : peer->parts_) parts_.push_back(std::move(part));
    other.reset();
    return true;
  }

 private:
  /// Keeps the predicates' column pointers alive; also the snapshot
  /// identity Absorb compares (filters are owned copies).
  std::shared_ptr<Table> table_;
  std::vector<Part> parts_;
};

}  // namespace

Result<std::unique_ptr<MultiChunkScanner>>
RoaringDatabase::PrepareMultiChunkScan(
    const std::vector<const sql::SelectStatement*>& stmts) {
  if (stmts.empty()) {
    return Status::InvalidArgument("empty multi-chunk scan batch");
  }
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, GetTable(stmts[0]->table));
  auto idx_it = indexes_.find(stmts[0]->table);
  if (idx_it == indexes_.end()) return Status::Internal("missing index");
  std::vector<RoaringChunkScanner::Part> parts;
  parts.reserve(stmts.size());
  for (const sql::SelectStatement* stmt : stmts) {
    if (stmt->table != stmts[0]->table) {
      return Status::InvalidArgument("multi-chunk scan batch spans tables");
    }
    RoaringChunkScanner::Part part;
    if (stmt->where != nullptr) {
      // The same split ExecuteInternal uses, so the survivors are too.
      ZV_ASSIGN_OR_RETURN(SplitPredicate split,
                          SplitWhere(*table, idx_it->second, *stmt->where));
      part.filter = std::move(split.filter);
      part.pred = std::move(split.residual);
    }
    parts.push_back(std::move(part));
  }
  return std::unique_ptr<MultiChunkScanner>(
      new RoaringChunkScanner(std::move(table), std::move(parts)));
}

Result<ResultSet> RoaringDatabase::ExecuteInternal(
    const sql::SelectStatement& stmt) {
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, GetTable(stmt.table));

  if (stmt.where == nullptr) {
    // No predicate: the 100%-selectivity path Figure 7.5 contrasts against
    // the scan backend. all_rows is FromRange(0, n) by construction, so
    // blocks consume [begin, end) directly — materializing n row ids first
    // would only add an O(n) allocation to the hot path.
    auto it = indexes_.find(stmt.table);
    if (it == indexes_.end()) return Status::Internal("missing index");
    return RunBlocked(*table, stmt,
                      [](size_t begin, size_t end, SelectRunner& runner) {
                        for (size_t row = begin; row < end; ++row) {
                          runner.Consume(row);
                        }
                      });
  }

  auto idx_it = indexes_.find(stmt.table);
  if (idx_it == indexes_.end()) return Status::Internal("missing index");

  // Split a top-level conjunction into index-answerable and residual parts.
  ZV_ASSIGN_OR_RETURN(SplitPredicate split,
                      SplitWhere(*table, idx_it->second, *stmt.where));

  if (split.filter.has_value()) {
    std::vector<uint32_t> rows;
    rows.reserve(split.filter->Cardinality());
    if (split.residual.has_value()) {
      const CompiledPredicate& pred = *split.residual;
      split.filter->ForEach([&rows, &pred](uint32_t row) {
        if (pred.Test(row)) rows.push_back(row);
      });
    } else {
      split.filter->ForEach([&rows](uint32_t row) { rows.push_back(row); });
    }
    return RunBlockedOverRows(*table, stmt, rows);
  }
  // Nothing indexable: full scan with the residual predicate.
  const CompiledPredicate& pred = *split.residual;
  return RunBlocked(*table, stmt,
                    [&pred](size_t begin, size_t end, SelectRunner& runner) {
                      for (size_t row = begin; row < end; ++row) {
                        if (pred.Test(row)) runner.Consume(row);
                      }
                    });
}

}  // namespace zv
