#include "engine/scan_db.h"

#include "engine/predicate.h"
#include "engine/select_runner.h"

namespace zv {

Result<ResultSet> ScanDatabase::ExecuteInternal(
    const sql::SelectStatement& stmt) {
  ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, GetTable(stmt.table));
  if (stmt.where == nullptr) {
    return RunBlocked(*table, stmt,
                      [](size_t begin, size_t end, SelectRunner& runner) {
                        for (size_t row = begin; row < end; ++row) {
                          runner.Consume(row);
                        }
                      });
  }
  ZV_ASSIGN_OR_RETURN(CompiledPredicate pred,
                      CompiledPredicate::Compile(*table, *stmt.where));
  // CompiledPredicate::Test is const, so one compiled predicate serves
  // every block worker concurrently.
  return RunBlocked(*table, stmt,
                    [&pred](size_t begin, size_t end, SelectRunner& runner) {
                      for (size_t row = begin; row < end; ++row) {
                        if (pred.Test(row)) runner.Consume(row);
                      }
                    });
}

}  // namespace zv
