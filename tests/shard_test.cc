/// \file shard_test.cc
/// \brief The scan-pass width contract: results are byte-identical to the
/// one-wide oracle across pass widths (ZV_SHARDS) and chunk sizes
/// (including table < 1 chunk, chunk = 1 row, and an empty table), both
/// backends, both schedules, and ZV_THREADS in {1, 4} — with the same
/// sql_queries/sql_requests deltas. Plus: mid-scan cancellation returns
/// promptly, the chunk-scan primitives reproduce Database::Execute (the
/// independent ExecuteInternal path) for every statement the identity
/// matrices issue, EXPLAIN renders the fan-out, and a ReplaceDataset swap
/// rebuilds the chunk catalog. Runs under the tsan/asan ctest gates
/// (tools/run_tsan.sh, tools/run_asan.sh): the private queue's pass
/// threads and the fetch thread race-check together.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "engine/chunk_map.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "server/query_service.h"
#include "sql/parser.h"
#include "tests/matrix_queries.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "zql/executor.h"
#include "zql/parser.h"
#include "zql/plan.h"

namespace zv::zql {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(size_t n) { SetParallelThreads(n); }
  ~ScopedThreads() { SetParallelThreads(0); }
};

bool SameVisualization(const Visualization& a, const Visualization& b) {
  return a.x_attr == b.x_attr && a.y_attr == b.y_attr &&
         a.slices == b.slices && a.constraints == b.constraints &&
         a.spec == b.spec && a.xs == b.xs && a.series == b.series;
}

::testing::AssertionResult SameResult(const ZqlResult& a, const ZqlResult& b) {
  if (a.outputs.size() != b.outputs.size()) {
    return ::testing::AssertionFailure() << "output count mismatch";
  }
  for (size_t o = 0; o < a.outputs.size(); ++o) {
    if (a.outputs[o].name != b.outputs[o].name ||
        a.outputs[o].visuals.size() != b.outputs[o].visuals.size()) {
      return ::testing::AssertionFailure()
             << "output " << o << " shape mismatch";
    }
    for (size_t v = 0; v < a.outputs[o].visuals.size(); ++v) {
      if (!SameVisualization(a.outputs[o].visuals[v],
                             b.outputs[o].visuals[v])) {
        return ::testing::AssertionFailure()
               << "output " << a.outputs[o].name << " visual " << v << ": "
               << a.outputs[o].visuals[v].DebugString() << " vs "
               << b.outputs[o].visuals[v].DebugString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr const char* kSetQuery = ::zv::testing::kShardSetQuery;
constexpr const char* kNoWhereQuery = ::zv::testing::kShardNoWhereQuery;
using ::zv::testing::MakeP;

std::shared_ptr<Table> MediumSales() {
  static std::shared_ptr<Table> table = [] {
    SalesDataOptions opts;
    opts.num_rows = 3000;
    opts.num_products = 10;
    return MakeSalesTable(opts);
  }();
  return table;
}

Result<ZqlResult> RunZql(Database* db, const char* zql, size_t shards,
                      bool pipelined) {
  ZqlOptions opts;
  opts.named_sets = MakeP(8);
  opts.pipelined_execution = pipelined;
  opts.shards = shards;
  ZqlExecutor exec(db, "sales", opts);
  return exec.ExecuteText(zql);
}

template <typename DbType>
void RunIdentityMatrix() {
  DbType db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  for (const char* zql : {kSetQuery, kNoWhereQuery}) {
    // Oracle: serial, one-wide passes, staged.
    ZqlResult baseline;
    {
      ScopedThreads threads(1);
      ZV_ASSERT_OK_AND_ASSIGN(
          baseline, RunZql(&db, zql, /*shards=*/1, /*pipelined=*/false));
    }
    // Chunk sizes: 1 row per chunk (maximal fan-out), a mid split, an
    // exact divisor of the 3000-row table (1500: the last chunk boundary
    // lands exactly on the last row — no ragged tail chunk), and the
    // default 2^18 rows — which the table fits inside, so the whole table
    // is one chunk. Pass widths include 8, which exceeds the chunk count
    // at chunk_rows=1500 (2 chunks): surplus pass workers must idle out
    // without disturbing the bytes.
    for (size_t chunk_rows :
         {size_t{1}, size_t{256}, size_t{1500}, size_t{0}}) {
      ZV_ASSERT_OK(db.RebuildChunkMap("sales", chunk_rows));
      for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
        for (size_t nthreads : {size_t{1}, size_t{4}}) {
          for (bool pipelined : {false, true}) {
            ScopedThreads threads(nthreads);
            ZV_ASSERT_OK_AND_ASSIGN(ZqlResult got,
                                    RunZql(&db, zql, shards, pipelined));
            EXPECT_TRUE(SameResult(baseline, got))
                << db.name() << " chunk_rows=" << chunk_rows
                << " shards=" << shards << " threads=" << nthreads
                << " pipelined=" << pipelined;
            EXPECT_EQ(baseline.stats.sql_queries, got.stats.sql_queries);
            EXPECT_EQ(baseline.stats.sql_requests, got.stats.sql_requests);
          }
        }
      }
    }
    ZV_ASSERT_OK(db.RebuildChunkMap("sales", 0));
  }
}

TEST(ShardTest, ScanBackendByteIdentityMatrix) {
  RunIdentityMatrix<ScanDatabase>();
}

TEST(ShardTest, RoaringBackendByteIdentityMatrix) {
  RunIdentityMatrix<RoaringDatabase>();
}

/// chunks_scanned accounts every chunk of every fetched statement at any
/// pass width, and shard_ms — the summed chunk-job time — is filled
/// whenever chunks were scanned.
TEST(ShardTest, ChunkStatsPopulated) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 500));  // 6 chunks
  ScopedThreads threads(1);
  for (size_t shards : {size_t{1}, size_t{4}}) {
    ZV_ASSERT_OK_AND_ASSIGN(ZqlResult r, RunZql(&db, kSetQuery, shards, true));
    EXPECT_EQ(r.stats.chunks_scanned, 6 * r.stats.sql_queries) << shards;
    EXPECT_EQ(r.stats.batched_scans, r.stats.sql_queries) << shards;
    EXPECT_GT(r.stats.shard_ms, 0.0) << shards;
    EXPECT_EQ(r.stats.scans_shared, 0u) << shards;
  }
}

/// Chunk-boundary edge geometry. An exact divisor leaves no ragged tail:
/// the last chunk's end is exactly the row count, and the ranges tile
/// [0, num_rows) without overlap. A non-divisor leaves one short tail
/// chunk, never an extra empty one.
TEST(ShardTest, ChunkBoundaryExactlyOnLastRow) {
  const ChunkMap exact = ChunkMap::Build(3000, 1500);
  ASSERT_EQ(exact.num_chunks(), 2u);
  EXPECT_EQ(exact.chunk_range(0), (std::pair<uint32_t, uint32_t>{0, 1500}));
  EXPECT_EQ(exact.chunk_range(1),
            (std::pair<uint32_t, uint32_t>{1500, 3000}));
  const ChunkMap ragged = ChunkMap::Build(3000, 1700);
  ASSERT_EQ(ragged.num_chunks(), 2u);
  EXPECT_EQ(ragged.chunk_range(1).second, 3000u);
  // Tiling invariant across both shapes: contiguous, complete, in order.
  for (const ChunkMap& map : {exact, ragged}) {
    uint32_t next = 0;
    for (size_t c = 0; c < map.num_chunks(); ++c) {
      const auto [begin, end] = map.chunk_range(c);
      EXPECT_EQ(begin, next);
      EXPECT_LT(begin, end);
      next = end;
    }
    EXPECT_EQ(next, 3000u);
  }
}

/// More shard workers than chunks: with 2 chunks and 8 shards the surplus
/// workers find no chunk to claim and exit idle; results and the
/// chunks_scanned accounting match the exactly-subscribed run.
TEST(ShardTest, MoreShardsThanChunks) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 1500));  // exactly 2 chunks
  ScopedThreads threads(4);
  ZqlResult baseline;
  {
    ScopedThreads serial(1);
    ZV_ASSERT_OK_AND_ASSIGN(baseline, RunZql(&db, kSetQuery, 1, false));
  }
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult matched, RunZql(&db, kSetQuery, 2, true));
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult surplus, RunZql(&db, kSetQuery, 8, true));
  EXPECT_TRUE(SameResult(baseline, matched));
  EXPECT_TRUE(SameResult(baseline, surplus));
  EXPECT_EQ(surplus.stats.chunks_scanned, matched.stats.chunks_scanned);
}

/// An empty table has zero chunks; a wide pass selects nothing without
/// scanning and produces the oracle's (empty-series) outputs.
TEST(ShardTest, EmptyTableDegradesToUnsharded) {
  Schema schema({{"year", ColumnType::kCategorical},
                 {"product", ColumnType::kCategorical},
                 {"location", ColumnType::kCategorical},
                 {"sales", ColumnType::kDouble},
                 {"profit", ColumnType::kDouble}});
  auto make_empty = [&] {
    TableBuilder b("sales", schema);
    return b.Finish();
  };
  ScanDatabase scan_db;
  RoaringDatabase roaring_db;
  ZV_ASSERT_OK(scan_db.RegisterTable(make_empty()));
  ZV_ASSERT_OK(roaring_db.RegisterTable(make_empty()));
  for (Database* db : {static_cast<Database*>(&scan_db),
                       static_cast<Database*>(&roaring_db)}) {
    ZV_ASSERT_OK_AND_ASSIGN(ChunkMap map, db->GetChunkMap("sales"));
    EXPECT_EQ(map.num_chunks(), 0u);
    // A fixed visualization (value iteration over an empty table would be
    // an empty Z set, rejected upstream of fetch on both paths alike).
    const char* fixed = "*f1 | 'year' | 'sales' | | | bar.(y=agg('sum')) |";
    ZV_ASSERT_OK_AND_ASSIGN(ZqlResult baseline, RunZql(db, fixed, 1, false));
    ZV_ASSERT_OK_AND_ASSIGN(ZqlResult sharded, RunZql(db, fixed, 4, true));
    EXPECT_TRUE(SameResult(baseline, sharded)) << db->name();
    EXPECT_EQ(sharded.stats.chunks_scanned, 0u);
  }
}

/// Every SQL statement the identity matrices issue — pipeline_test's
/// cases, this file's queries, batch_test's queries (binned ones
/// included) — captured through ZqlOptions::sql_trace at every
/// optimization level against `table`, deduplicated by text.
std::vector<std::string> MatrixStatements(const std::shared_ptr<Table>& table) {
  ScanDatabase db;
  EXPECT_TRUE(db.RegisterTable(table).ok());
  std::vector<std::string> texts;
  auto capture = [&](const char* zql, bool needs_sketch) {
    for (OptLevel level : {OptLevel::kNoOpt, OptLevel::kIntraLine,
                           OptLevel::kIntraTask, OptLevel::kInterTask}) {
      ZqlOptions opts;
      opts.optimization = level;
      opts.named_sets = MakeP(8);
      opts.sql_trace = &texts;
      ZqlExecutor exec(&db, "sales", opts);
      if (needs_sketch) exec.SetUserInput("q", ::zv::testing::MakeSketch());
      Result<ZqlResult> r = exec.ExecuteText(zql);
      EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << zql;
    }
  };
  for (const auto& c : ::zv::testing::kPipelineCases) {
    capture(c.zql, c.needs_sketch);
  }
  capture(kSetQuery, false);
  capture(kNoWhereQuery, false);
  for (const char* zql : ::zv::testing::kBatchQueries) capture(zql, false);
  std::sort(texts.begin(), texts.end());
  texts.erase(std::unique(texts.begin(), texts.end()), texts.end());
  return texts;
}

/// The chunk-scan primitives against the independent reference: for every
/// statement the identity matrices issue, PrepareMultiChunkScan + per-chunk
/// ScanRange + positional concat + FinishChunkScan reproduces
/// Database::Execute (each backend's ExecuteInternal, which never touches
/// a chunk scanner) — on both backends, at chunk sizes {1, 170, default},
/// including residual (measure) conjuncts that split bitmap + row-wise on
/// the Roaring backend and binned GROUP BY keys. The captured SQL text also
/// re-parses to itself.
TEST(ShardTest, ChunkScannerMatchesSerialSelection) {
  auto table = MediumSales();
  const std::vector<std::string> texts = MatrixStatements(table);
  std::vector<sql::SelectStatement> stmts;
  size_t binned = 0;
  for (const std::string& text : texts) {
    ZV_ASSERT_OK_AND_ASSIGN(sql::SelectStatement stmt, sql::ParseSelect(text));
    EXPECT_EQ(stmt.ToSql(), text);
    binned += stmt.group_bins.empty() ? 0 : 1;
    stmts.push_back(std::move(stmt));
  }
  ASSERT_GE(stmts.size(), 20u);
  EXPECT_GT(binned, 0u) << "no binned statement captured";
  std::vector<const sql::SelectStatement*> ptrs;
  for (const sql::SelectStatement& stmt : stmts) ptrs.push_back(&stmt);

  ScanDatabase scan_db;
  RoaringDatabase roaring_db;
  ZV_ASSERT_OK(scan_db.RegisterTable(table));
  ZV_ASSERT_OK(roaring_db.RegisterTable(table));
  const auto num_rows = static_cast<uint32_t>(table->num_rows());
  for (Database* db : {static_cast<Database*>(&scan_db),
                       static_cast<Database*>(&roaring_db)}) {
    std::vector<ResultSet> expected;
    for (const sql::SelectStatement& stmt : stmts) {
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet serial, db->Execute(stmt));
      expected.push_back(std::move(serial));
    }
    ZV_ASSERT_OK_AND_ASSIGN(std::unique_ptr<MultiChunkScanner> scanner,
                            db->PrepareMultiChunkScan(ptrs));
    ASSERT_EQ(scanner->num_statements(), stmts.size());
    // Whole-table range in one call: what every chunking must reproduce.
    std::vector<std::vector<uint32_t>> whole(stmts.size());
    ZV_ASSERT_OK(scanner->ScanRange(0, num_rows, &whole));
    for (size_t chunk_rows : {size_t{1}, size_t{170}, size_t{0}}) {
      const ChunkMap map = ChunkMap::Build(num_rows, chunk_rows);
      std::vector<std::vector<uint32_t>> rows(stmts.size());
      for (size_t c = 0; c < map.num_chunks(); ++c) {
        const auto [begin, end] = map.chunk_range(c);
        ZV_ASSERT_OK(scanner->ScanRange(begin, end, &rows));
      }
      for (size_t i = 0; i < stmts.size(); ++i) {
        EXPECT_EQ(rows[i], whole[i])
            << db->name() << " chunk_rows=" << chunk_rows << ": " << texts[i];
        ZV_ASSERT_OK_AND_ASSIGN(ResultSet finished,
                                db->FinishChunkScan(stmts[i], rows[i]));
        EXPECT_EQ(finished.columns, expected[i].columns)
            << db->name() << " chunk_rows=" << chunk_rows << ": " << texts[i];
        EXPECT_EQ(finished.rows, expected[i].rows)
            << db->name() << " chunk_rows=" << chunk_rows << ": " << texts[i];
      }
    }
  }
}

/// Cancellation mid-scan: the fetch thread stops waiting for its pass as
/// soon as the token fires, so cancelling during a wide fan-out (20000
/// rows in 64-row chunks, ~313 chunk jobs per statement) resolves promptly
/// with kCancelled — never a partial OK result.
TEST(ShardTest, CancelMidShardedScanReturnsPromptly) {
  SalesDataOptions data_opts;
  data_opts.num_rows = 20000;
  data_opts.num_products = 30;
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MakeSalesTable(data_opts)));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 64));
  db.set_request_latency_micros(20000);  // 20 ms per round trip

  ZqlOptions opts;
  opts.optimization = OptLevel::kNoOpt;  // one request per visualization
  opts.pipelined_execution = true;
  opts.shards = 4;
  ZqlExecutor exec(&db, "sales", opts);
  const char* query = "*f1 | 'year' | 'sales' | v1 <- 'product'.* | | |";

  CancelToken token;
  Status status = Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  std::thread runner([&] {
    CancelScope scope(token);
    Result<ZqlResult> r = exec.ExecuteText(query);
    status = r.ok() ? Status::OK() : r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  token.Cancel();
  runner.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_LT(elapsed_ms, 400.0) << "cancellation latency far too high";
}

/// EXPLAIN's FetchOp fan-out annotation: rendered whenever the caller
/// supplies a chunk count (every fetch is a scan pass); plain otherwise.
/// shards reports min(workers, chunks) — the pool workers that can find a
/// chunk to claim.
TEST(ShardTest, ExplainRendersFanOut) {
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(kNoWhereQuery));
  ZqlOptions opts;
  opts.shards = 4;
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, BuildPhysicalPlan(q, opts));
  EXPECT_NE(plan.Render(q, 38).find("[batched scan, chunks=38, shards=4]"),
            std::string::npos);
  EXPECT_NE(plan.Render(q, 3).find("chunks=3, shards=3"), std::string::npos);
  EXPECT_EQ(plan.Render(q).find("chunks="), std::string::npos);
  opts.shards = 1;
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan narrow, BuildPhysicalPlan(q, opts));
  EXPECT_NE(narrow.Render(q, 38).find("[batched scan, chunks=38, shards=1]"),
            std::string::npos);
}

/// ReplaceDataset swaps table and backend atomically; the fresh backend's
/// RegisterTable rebuilds the chunk catalog, so post-swap sharded queries
/// partition the *new* row space and reproduce the unsharded oracle.
TEST(ShardTest, ReplaceDatasetRebuildsChunkMap) {
  server::ServiceOptions service_opts;
  service_opts.zql.shards = 4;
  server::QueryService service(service_opts);

  SalesDataOptions small;
  small.num_rows = 1000;
  small.num_products = 10;
  ZV_ASSERT_OK(service.RegisterDataset(MakeSalesTable(small)));
  ZV_ASSERT_OK_AND_ASSIGN(std::shared_ptr<Database> db0,
                          service.DatasetDatabase("sales"));
  ZV_ASSERT_OK(db0->RebuildChunkMap("sales", 100));
  ZV_ASSERT_OK_AND_ASSIGN(ChunkMap before, db0->GetChunkMap("sales"));
  EXPECT_EQ(before.num_chunks(), 10u);

  SalesDataOptions bigger = small;
  bigger.num_rows = 2500;
  ZV_ASSERT_OK(service.ReplaceDataset(MakeSalesTable(bigger)));
  ZV_ASSERT_OK_AND_ASSIGN(std::shared_ptr<Database> db1,
                          service.DatasetDatabase("sales"));
  EXPECT_NE(db0.get(), db1.get());
  ZV_ASSERT_OK_AND_ASSIGN(ChunkMap after, db1->GetChunkMap("sales"));
  EXPECT_EQ(after.num_rows(), 2500u);

  // Sharded execution against the swapped dataset matches the oracle.
  ZV_ASSERT_OK(db1->RebuildChunkMap("sales", 250));
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult baseline,
                          RunZql(db1.get(), kNoWhereQuery, 1, false));
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult sharded,
                          RunZql(db1.get(), kNoWhereQuery, 4, true));
  EXPECT_TRUE(SameResult(baseline, sharded));
  EXPECT_GT(sharded.stats.chunks_scanned, 0u);
}

}  // namespace
}  // namespace zv::zql
