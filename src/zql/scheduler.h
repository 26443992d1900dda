/// \file scheduler.h
/// \brief Executes a physical plan (zql/plan.h) over the operator layer
/// (zql/operators.h) in one of two schedules:
///
///  - *staged* (the oracle): every flush runs to completion — all buffered
///    statements execute and route — before any downstream operator runs.
///    This is exactly the pre-plan executor's behavior.
///  - *pipelined*: a flush hands its statement batch to a dedicated fetch
///    thread, which runs the batch's scan pass and pushes each ResultSet
///    through a bounded hand-off queue. The coordinator keeps walking the
///    plan; a MaterializeOp drains (routes) only the fetches tagged at or
///    before its own row, so scoring of an already-materialized row
///    overlaps the backend scan of later rows.
///
/// Under either schedule a flush's row selection is one *scan pass*
/// (docs/architecture.md "Scan passes"): the whole flush goes to a
/// BatchScanQueue (engine/shared_scan.h) in one SelectRows call — the
/// service's shared queue, or the executor's private one — which compiles
/// the statements once, fans the table's chunks out over the pass threads
/// (ZqlOptions::shards wide), possibly alongside other queries'
/// statements, and merges the per-chunk row lists positionally. Each
/// statement then finishes through the shared blocked aggregation
/// (FinishChunkScan), so the ResultSet bytes match at any ZV_SHARDS, chunk
/// size, or co-tenancy.
///
/// Determinism contract: everything except the backend scan — routing,
/// derivations, scoring, reduction, variable binding — runs on the
/// coordinating thread in plan order under both schedules, and a scan's
/// ResultSet does not depend on when it executes (the query holds one
/// table snapshot). Results are therefore byte-identical across schedules
/// and across ZV_THREADS (tests/pipeline_test.cc), across pass widths and
/// chunk sizes (tests/shard_test.cc), and across pass sharing
/// (tests/batch_test.cc). Errors surface as the first failing statement
/// in dispatch order — and within a pass, as the lowest failing chunk
/// index, mirroring a serial scan's row order; cancellation is polled at
/// every step, while waiting for a pass, per statement on the fetch
/// thread, and per scored combination.

#ifndef ZV_ZQL_SCHEDULER_H_
#define ZV_ZQL_SCHEDULER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/status.h"
#include "zql/operators.h"
#include "zql/plan.h"

namespace zv::zql::exec {

/// One statement's share of its scan pass's statistics (ZqlStats' scan
/// fields): the pass-wide figures ride on the batch's first statement, so
/// summing the shares gives the batch's totals.
struct ScanStats {
  double scan_ms = 0;  ///< pass stay + FinishChunkScan (fetch_ms)
  uint64_t chunks_scanned = 0;
  double shard_ms = 0;
  uint64_t batched_scans = 0;
  uint64_t scans_shared = 0;
};

class PipelineScheduler {
 public:
  /// `plan`, `query`, `st`, and `scans` must outlive the scheduler. The
  /// scheduler captures the calling thread's cancellation token
  /// (common/cancel.h) and mirrors it onto the fetch thread.
  PipelineScheduler(const PhysicalPlan& plan, const ZqlQuery& query,
                    ExecState* st, BatchScanQueue* scans);
  ~PipelineScheduler();

  PipelineScheduler(const PipelineScheduler&) = delete;
  PipelineScheduler& operator=(const PipelineScheduler&) = delete;

  /// Walks the plan's steps to completion (or first error). After an OK
  /// return every fetch is routed and every component is final.
  Status Run();

 private:
  /// One scanned statement coming back from the fetch thread. Exactly one
  /// item is produced per dispatched statement, always — on cancellation
  /// the remaining statements of a batch yield kCancelled placeholders —
  /// so the coordinator can account for every dispatch.
  struct FetchItem {
    Result<ResultSet> result = Status::Internal("unset");
    /// This statement's share of the batch's scan statistics.
    ScanStats stats;
  };
  /// One flush's statement batch, handed to the fetch thread.
  struct FetchJob {
    std::vector<sql::SelectStatement> stmts;
    bool batched = true;  ///< one request for the batch vs one per statement
  };

  Status StepFlush();
  Status StepMaterialize(const ZqlRow& row, size_t row_tag);

  /// Routes completed fetches in dispatch order until none remain whose
  /// row_tag is <= `limit_tag` (SIZE_MAX = drain everything outstanding).
  Status DrainUpTo(size_t limit_tag);

  using FetchSink =
      std::function<bool(size_t, Result<ResultSet>, const ScanStats&)>;

  /// Executes one flush's statement batch as one scan pass and feeds
  /// results to `sink` in statement order: the whole batch goes to the
  /// queue in one SelectRows call, then each statement finishes through
  /// FinishChunkScan on the calling thread. A sink returning false stops
  /// before the remaining statements finish. Request accounting (via
  /// AccountRequest): `batched` = one round trip for the whole batch,
  /// counted up front; otherwise one per statement, stopped by an early
  /// sink exit. Runs on the coordinator (staged) or the fetch thread
  /// (pipelined) — never both. `span_parent`/`track` locate the pass's
  /// "SharedScanPass" span in the query's span tree; null parent with
  /// tracing off records nothing. Each sink call carries the statement's
  /// ScanStats share.
  void RunBatch(const std::vector<sql::SelectStatement>& stmts, bool batched,
                const FetchSink& sink, TraceSpan* span_parent, int track);

  /// Folds scan statistics into the query's ZqlStats.
  void AddScanStats(const ScanStats& stats);

  void FetchWorkerMain();
  void StartWorker();

  const PhysicalPlan& plan_;
  const ZqlQuery& query_;
  ExecState* st_;

  /// Planned statements not yet dispatched (current batch).
  std::vector<PendingFetch> buffer_;
  /// Dispatched statements not yet routed, in dispatch order (FIFO).
  std::deque<PendingFetch> in_flight_;

  // Pipelined-mode machinery. Queues are sized so the fetch thread can run
  // only pipeline_depth results ahead of the coordinator (back-pressure).
  std::unique_ptr<BoundedQueue<FetchJob>> jobs_;
  std::unique_ptr<BoundedQueue<FetchItem>> results_;
  std::thread fetch_thread_;
  /// The coordinator's cancel flag, mirrored onto the fetch thread.
  const std::atomic<bool>* cancel_flag_ = nullptr;
  /// Tells the fetch thread to stop scanning (teardown after an error).
  std::atomic<bool> abandon_{false};

  /// Where every flush's scan pass runs; outlives the scheduler.
  BatchScanQueue* scans_;
};

}  // namespace zv::zql::exec

#endif  // ZV_ZQL_SCHEDULER_H_
