/// \file scan_db.h
/// \brief Full-scan backend — the PostgreSQL stand-in.
///
/// WHERE clauses compile to per-row predicates (dictionary accept-vectors
/// for categorical leaves) evaluated in a single sequential pass, feeding
/// the shared SelectRunner. No indexes are maintained. See DESIGN.md §4 for
/// why this substitution preserves the behaviour the paper measures. Its
/// chunked scans are the base Database::PrepareMultiChunkScan (one fused
/// row loop per pass).

#ifndef ZV_ENGINE_SCAN_DB_H_
#define ZV_ENGINE_SCAN_DB_H_

#include "engine/database.h"

namespace zv {

class ScanDatabase : public Database {
 public:
  std::string name() const override { return "scan"; }

 protected:
  Result<ResultSet> ExecuteInternal(const sql::SelectStatement& stmt) override;
};

}  // namespace zv

#endif  // ZV_ENGINE_SCAN_DB_H_
