/// \file main.cc
/// \brief zv_e2e: the end-to-end benchmark harness.
///
///   zv_e2e --workload explore|dashboard|paper_opt --seed N --seconds S
///          --trace 0|1
///
/// Drives the real in-memory backends through the public wire path —
/// request JSON -> Json::Parse + api::DecodeRequest -> api::ExecuteRequest
/// on a server::QueryService -> api::EncodeResponse + Dump — from closed
/// loop client threads, and checks responses byte for byte against a
/// serial oracle. With --trace 0 it measures the end-to-end metrics with
/// tracing off; with --trace 1 it alternates untraced and traced slices
/// and reports the per-layer table. Human-readable tables go to stdout;
/// the last stdout line is one JSON object
///   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// No simulated latency anywhere: every backend is the in-process one.

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/protocol.h"
#include "api/service.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "layers.h"
#include "roaring/container.h"
#include "server/query_service.h"
#include "tasks/distance.h"
#include "tasks/simd.h"
#include "workloads.h"
#include "zql/parser.h"
#include "zql/plan.h"

extern char** environ;

namespace zvb {
namespace {

using Clock = std::chrono::steady_clock;
using zv::zql::OptLevel;

constexpr int kSetupReps = 5;          // set-up repetitions (median)
constexpr size_t kExploreSample = 24;  // explore responses checked
constexpr size_t kProbeQueries = 4;    // level / replay probe sample

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Shortest round-trip decimal form of a double.
std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// The CPU brand string, from CPUID (x86) — no file outside the checkout
/// is read.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// Removes every ZV_* variable so no knob is inherited from the shell;
/// the workload's configuration is set explicitly instead.
void ScrubEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "ZV_", 3) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                           : static_cast<size_t>(eq - *e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

/// FNV-1a over the `"outputs":[…]` member of a compact response — the
/// part the oracle fixes (stats, fingerprint and trace legitimately vary).
uint64_t HashOutputs(const std::string& bytes) {
  const size_t begin = bytes.find("\"outputs\":");
  if (begin == std::string::npos) return 0;
  const size_t end = bytes.find(",\"stats\":", begin);
  if (end == std::string::npos) return 0;
  return Fnv1a(bytes.data() + begin, end - begin);
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Setup {
  Tables tables;
  zv::server::ServiceOptions options;  ///< as pinned (metrics excepted)
  std::unique_ptr<zv::MetricsRegistry> registry;
  std::unique_ptr<zv::server::QueryService> service;
  double generate_s = 0;
  double register_s = 0;
};

/// The backend a dataset is (re)registered with: a ScanDatabase holding
/// the table, or null for the service's default (it builds a fresh
/// RoaringDatabase, indexes included).
zv::Result<std::shared_ptr<zv::Database>> BackendFor(const Dataset& d) {
  if (!d.scan_backend) return std::shared_ptr<zv::Database>();
  auto db = std::make_shared<zv::ScanDatabase>();
  ZV_RETURN_NOT_OK(db->RegisterTable(d.table));
  return std::shared_ptr<zv::Database>(std::move(db));
}

zv::Result<Setup> BuildSetup(Kind kind, uint64_t seed) {
  Setup s;
  const auto t0 = Clock::now();
  s.tables = GenerateTables(kind, seed);
  const auto t1 = Clock::now();
  s.registry = std::make_unique<zv::MetricsRegistry>();
  s.options = PinnedServiceOptions(kind, seed, s.tables);
  zv::server::ServiceOptions opts = s.options;
  opts.metrics = s.registry.get();
  s.service = std::make_unique<zv::server::QueryService>(std::move(opts));
  for (const Dataset& d : s.tables.datasets) {
    ZV_ASSIGN_OR_RETURN(std::shared_ptr<zv::Database> db, BackendFor(d));
    ZV_RETURN_NOT_OK(s.service->RegisterDataset(d.table, std::move(db)));
  }
  const auto t2 = Clock::now();
  s.generate_s = MsBetween(t0, t1) / 1e3;
  s.register_s = MsBetween(t1, t2) / 1e3;
  return s;
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

/// One completed operation.
struct Record {
  int32_t query = kWrite;
  bool ok = false;
  uint64_t seq_before = 0;  ///< write sequence number around the request
  uint64_t seq_after = 0;
  double latency_ms = 0;  ///< request bytes -> response bytes
  double decode_ms = 0;   ///< Json::Parse + DecodeRequest
  double execute_ms = 0;  ///< ExecuteRequest
  double encode_ms = 0;   ///< EncodeResponse + Dump
  uint64_t out_hash = 0;
  size_t bytes = 0;
  zv::zql::ZqlStats stats;
  zv::Json trace;  ///< service span tree (traced slices only)
};

struct Phase {
  std::vector<Record> reads;
  std::vector<double> replace_ms;
  size_t attempted = 0;
  size_t failed = 0;  ///< failed reads and writes (before oracle checks)
  double wall_s = 0;
  double cpu_ms = 0;
  size_t ok_reads() const {
    size_t n = 0;
    for (const Record& r : reads) n += r.ok ? 1 : 0;
    return n;
  }
};

/// Shared state of one workload's closed loop.
class Loop {
 public:
  Loop(Setup* setup, const Streams* streams)
      : setup_(setup), streams_(streams) {}

  zv::Status Init(size_t clients) {
    for (size_t c = 0; c < clients; ++c) {
      ZV_ASSIGN_OR_RETURN(zv::server::SessionId id,
                          setup_->service->CreateSession());
      sessions_.push_back(id);
    }
    return zv::Status::OK();
  }

  /// Runs ops[*cursor…] on every client until `seconds` elapse or the
  /// stream ends. With one client, the phase runs on to the end of the
  /// current round of `round` operations.
  Phase Run(const std::vector<int32_t>& ops, std::atomic<size_t>* cursor,
            double seconds, bool traced, size_t round = 1) {
    Phase phase;
    std::vector<Phase> local(sessions_.size());
    const double cpu0 = CpuMs();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < sessions_.size(); ++c) {
      threads.emplace_back([&, c] {
        Phase& mine = local[c];
        const bool whole_rounds = sessions_.size() == 1 && round > 1;
        while (Clock::now() < deadline ||
               (whole_rounds && mine.attempted % round != 0)) {
          const size_t i = cursor->fetch_add(1);
          if (i >= ops.size()) break;
          ++mine.attempted;
          if (ops[i] == kWrite) {
            Write(&mine);
          } else {
            mine.reads.push_back(Read(sessions_[c], ops[i], traced));
            if (!mine.reads.back().ok) ++mine.failed;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    phase.wall_s = MsBetween(start, Clock::now()) / 1e3;
    phase.cpu_ms = CpuMs() - cpu0;
    for (Phase& p : local) {
      phase.attempted += p.attempted;
      phase.failed += p.failed;
      phase.replace_ms.insert(phase.replace_ms.end(), p.replace_ms.begin(),
                              p.replace_ms.end());
      for (Record& r : p.reads) phase.reads.push_back(std::move(r));
    }
    return phase;
  }

  /// Serial writes on an idle service (explore / paper_opt): the same
  /// ReplaceDataset of the primary table, repeated.
  std::vector<double> ReplaceProbe(size_t samples, size_t* failed) {
    std::vector<double> ms;
    const Dataset& d = setup_->tables.datasets[0];
    for (size_t i = 0; i < samples; ++i) {
      const auto t0 = Clock::now();
      zv::Result<std::shared_ptr<zv::Database>> db = BackendFor(d);
      const zv::Status s =
          db.ok() ? setup_->service->ReplaceDataset(d.table, *db) : db.status();
      ms.push_back(MsBetween(t0, Clock::now()));
      if (!s.ok()) ++*failed;
    }
    return ms;
  }

  /// The first failure any operation reported (empty if none).
  std::string first_error() {
    std::lock_guard<std::mutex> lock(error_mu_);
    return first_error_;
  }

 private:
  Record Read(zv::server::SessionId session, int32_t op, bool traced) {
    const Query& q = streams_->queries[static_cast<size_t>(op)];
    const std::string& wire = traced ? q.wire_traced : q.wire;
    Record r;
    r.query = op;
    r.seq_before = seq_.load();
    const auto t0 = Clock::now();
    zv::Result<zv::Json> parsed = zv::Json::Parse(wire);
    zv::zql::ParseDiagnostic diag;
    zv::Result<zv::api::QueryRequest> request =
        parsed.ok() ? zv::api::DecodeRequest(*parsed, &diag)
                    : zv::Result<zv::api::QueryRequest>(parsed.status());
    const auto t1 = Clock::now();
    if (!request.ok()) {
      NoteError(request.status().ToString());
      return r;
    }
    zv::api::QueryResponse response =
        zv::api::ExecuteRequest(*setup_->service, session, *request);
    const auto t2 = Clock::now();
    const std::string bytes = zv::api::EncodeResponse(response).Dump();
    const auto t3 = Clock::now();
    r.seq_after = seq_.load();
    r.ok = response.ok();
    if (!r.ok) NoteError(response.error.message);
    r.latency_ms = MsBetween(t0, t3);
    r.decode_ms = MsBetween(t0, t1);
    r.execute_ms = MsBetween(t1, t2);
    r.encode_ms = MsBetween(t2, t3);
    r.out_hash = HashOutputs(bytes);
    r.bytes = bytes.size();
    r.stats = response.stats;
    if (traced) r.trace = std::move(response.trace);
    return r;
  }

  /// Dashboard write: swap in the other pre-generated table. Writes are
  /// serialized so the sequence number names the table being served:
  /// after w completed writes, table (w % 2) is current.
  void Write(Phase* mine) {
    std::lock_guard<std::mutex> lock(write_mu_);
    seq_.fetch_add(1);  // odd: a write is in progress
    generation_ ^= 1;
    const std::shared_ptr<zv::Table>& table =
        generation_ == 0 ? setup_->tables.datasets[0].table
                         : setup_->tables.alternate;
    const auto t0 = Clock::now();
    const zv::Status s = setup_->service->ReplaceDataset(table);
    mine->replace_ms.push_back(MsBetween(t0, Clock::now()));
    if (!s.ok()) {
      ++mine->failed;
      NoteError(s.ToString());
    }
    seq_.fetch_add(1);  // even: table (seq / 2) % 2 is current
  }

  void NoteError(const std::string& message) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (first_error_.empty()) first_error_ = message;
  }

  Setup* setup_;
  const Streams* streams_;
  std::vector<zv::server::SessionId> sessions_;
  std::mutex write_mu_;
  int generation_ = 0;  ///< guarded by write_mu_
  std::atomic<uint64_t> seq_{0};
  std::mutex error_mu_;
  std::string first_error_;  ///< guarded by error_mu_
};

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// The serial oracle's options: staged schedule, one shard, no
/// cross-query batching, no shared caches; everything else (including
/// binning_pushdown and the named sets) as the service runs it.
zv::zql::ZqlOptions OracleOptions(const zv::zql::ZqlOptions& base) {
  zv::zql::ZqlOptions o = base;
  o.pipelined_execution = false;
  o.shards = 1;
  o.batch_scans = nullptr;
  o.context_cache = nullptr;
  o.context_pool = nullptr;
  o.trace = nullptr;
  o.trace_parent = nullptr;
  o.sql_trace = nullptr;
  return o;
}

/// The expected outputs hash of `q` on `db` (executed at the oracle's
/// fixed level, so every optimization level must match it).
zv::Result<uint64_t> OracleHash(zv::Database* db, const Query& q,
                                const zv::zql::ZqlOptions& base) {
  ZV_ASSIGN_OR_RETURN(zv::Json json, zv::Json::Parse(q.wire));
  ZV_ASSIGN_OR_RETURN(zv::api::QueryRequest request,
                      zv::api::DecodeRequest(json));
  zv::zql::ZqlExecutor exec(db, request.dataset, OracleOptions(base));
  ZV_ASSIGN_OR_RETURN(zv::zql::ZqlResult result, exec.Execute(request.query));
  const zv::api::QueryResponse expected =
      zv::api::BuildResponse(result, request, "");
  return HashOutputs(zv::api::EncodeResponse(expected).Dump());
}

struct CheckReport {
  size_t checked = 0;
  size_t mismatched = 0;
  std::string first_mismatch;
};

zv::Result<std::shared_ptr<zv::Database>> OracleDb(
    const std::shared_ptr<zv::Table>& table) {
  auto db = std::make_shared<zv::RoaringDatabase>();
  ZV_RETURN_NOT_OK(db->RegisterTable(table));
  return std::shared_ptr<zv::Database>(db);
}

/// Checks the timed reads against the oracle (outside every timed
/// region). Failed reads were already counted; only ok reads are checked.
zv::Result<CheckReport> CheckOutputs(Kind kind, uint64_t seed, Setup& setup,
                                     const Streams& streams,
                                     const std::vector<const Record*>& reads) {
  CheckReport report;
  const zv::zql::ZqlOptions& base = setup.service->zql_options();
  std::vector<const Record*> todo;
  for (const Record* r : reads) {
    if (r->ok) todo.push_back(r);
  }
  if (kind == Kind::kExplore && todo.size() > kExploreSample) {
    zv::Rng rng(seed ^ 0x0bac1e5ull);
    for (size_t i = 0; i < kExploreSample; ++i) {
      std::swap(todo[i], todo[i + rng.Uniform(todo.size() - i)]);
    }
    todo.resize(kExploreSample);
  }
  // Expected hashes per (query, table generation).
  std::vector<std::shared_ptr<zv::Database>> dbs;
  if (kind == Kind::kDashboard) {
    ZV_ASSIGN_OR_RETURN(auto a, OracleDb(setup.tables.datasets[0].table));
    ZV_ASSIGN_OR_RETURN(auto b, OracleDb(setup.tables.alternate));
    dbs = {a, b};
  }
  std::map<std::pair<std::string, int>, uint64_t> expected;  // (zql, gen)
  auto expect = [&](const Query& q, int gen) -> zv::Result<uint64_t> {
    const auto key = std::make_pair(q.dataset + "\n" + q.zql, gen);
    if (auto it = expected.find(key); it != expected.end()) return it->second;
    std::shared_ptr<zv::Database> db;
    if (kind == Kind::kDashboard) {
      db = dbs[static_cast<size_t>(gen)];
    } else {
      ZV_ASSIGN_OR_RETURN(db, setup.service->DatasetDatabase(q.dataset));
    }
    ZV_ASSIGN_OR_RETURN(uint64_t h, OracleHash(db.get(), q, base));
    expected[key] = h;
    return h;
  };
  for (const Record* r : todo) {
    const Query& q = streams.queries[static_cast<size_t>(r->query)];
    bool match = false;
    if (kind == Kind::kDashboard && !(r->seq_before == r->seq_after &&
                                      r->seq_before % 2 == 0)) {
      // A write overlapped the request: either table is a valid answer.
      ZV_ASSIGN_OR_RETURN(uint64_t h0, expect(q, 0));
      ZV_ASSIGN_OR_RETURN(uint64_t h1, expect(q, 1));
      match = r->out_hash == h0 || r->out_hash == h1;
    } else {
      const int gen = kind == Kind::kDashboard
                          ? static_cast<int>((r->seq_before / 2) % 2)
                          : 0;
      ZV_ASSIGN_OR_RETURN(uint64_t h, expect(q, gen));
      match = r->out_hash == h;
    }
    ++report.checked;
    if (!match) {
      ++report.mismatched;
      if (report.first_mismatch.empty()) {
        report.first_mismatch = q.shape + ": " + q.zql;
      }
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Probes (trace run only; untimed)
// ---------------------------------------------------------------------------

struct LevelCounts {
  std::map<OptLevel, std::pair<double, double>> per_level;  // stmts, reqs
};

/// Exact statements / requests per query at every optimization level, on
/// a standalone executor that has the backend to itself.
zv::Result<LevelCounts> LevelProbe(Setup& setup,
                                   const std::vector<const Query*>& sample) {
  LevelCounts out;
  const zv::zql::ZqlOptions base = OracleOptions(setup.service->zql_options());
  for (OptLevel level : {OptLevel::kNoOpt, OptLevel::kIntraLine,
                         OptLevel::kIntraTask, OptLevel::kInterTask}) {
    double stmts = 0;
    double reqs = 0;
    for (const Query* q : sample) {
      ZV_ASSIGN_OR_RETURN(auto db, setup.service->DatasetDatabase(q->dataset));
      ZV_ASSIGN_OR_RETURN(zv::zql::ZqlQuery parsed,
                          zv::zql::ParseQuery(q->zql));
      zv::zql::ZqlOptions opts = base;
      opts.optimization = level;
      zv::zql::ZqlExecutor exec(db.get(), q->dataset, opts);
      ZV_ASSIGN_OR_RETURN(zv::zql::ZqlResult res, exec.Execute(parsed));
      stmts += static_cast<double>(res.stats.sql_queries);
      reqs += static_cast<double>(res.stats.sql_requests);
    }
    const double n = static_cast<double>(std::max<size_t>(1, sample.size()));
    out.per_level[level] = {stmts / n, reqs / n};
  }
  return out;
}

struct EngineProbe {
  std::vector<double> statement_ms;
  std::vector<double> rows;
  double shard_ms = 0;
  double fetch_ms = 0;
  size_t unparsed = 0;  ///< captured statements whose text did not parse
};

/// Captures each sampled query's SQL (ZqlOptions::sql_trace) at the
/// service's optimization level on a standalone sharded executor — which also yields shard_ms / fetch_ms —
/// then replays every statement through Database::ExecuteSql.
zv::Result<EngineProbe> ReplayProbe(Setup& setup,
                                    const std::vector<const Query*>& sample) {
  EngineProbe out;
  zv::zql::ZqlOptions base = OracleOptions(setup.service->zql_options());
  base.pipelined_execution = true;
  base.shards = 4;
  for (const Query* q : sample) {
    ZV_ASSIGN_OR_RETURN(auto db, setup.service->DatasetDatabase(q->dataset));
    ZV_ASSIGN_OR_RETURN(zv::zql::ZqlQuery parsed, zv::zql::ParseQuery(q->zql));
    std::vector<std::string> sql;
    zv::zql::ZqlOptions opts = base;
    opts.sql_trace = &sql;
    zv::zql::ZqlExecutor exec(db.get(), q->dataset, opts);
    ZV_ASSIGN_OR_RETURN(zv::zql::ZqlResult res, exec.Execute(parsed));
    out.shard_ms += res.stats.shard_ms;
    out.fetch_ms += res.stats.fetch_ms;
    for (const std::string& stmt : sql) {
      const auto t0 = Clock::now();
      zv::Result<zv::ResultSet> rs = db->ExecuteSql(stmt);
      const double ms = MsBetween(t0, Clock::now());
      if (!rs.ok() && rs.status().code() == zv::StatusCode::kParseError) {
        // The SQL text of a pushed-down binning statement (GROUP BY
        // BIN(x, w)) does not parse back; it is counted, not replayed.
        ++out.unparsed;
        continue;
      }
      ZV_RETURN_NOT_OK(rs.status());
      out.statement_ms.push_back(ms);
      out.rows.push_back(static_cast<double>(rs->num_rows()));
    }
  }
  return out;
}

/// ParseQuery / BuildPhysicalPlan cost per distinct query text.
zv::Status ParsePlanProbe(const zv::zql::ZqlOptions& base,
                          const std::vector<const Query*>& queries,
                          std::vector<double>* parse_ms,
                          std::vector<double>* plan_ms) {
  for (const Query* q : queries) {
    zv::zql::ZqlOptions opts = base;
    if (q->level.has_value()) opts.optimization = *q->level;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      ZV_ASSIGN_OR_RETURN(zv::zql::ZqlQuery parsed,
                          zv::zql::ParseQuery(q->zql));
      const auto t1 = Clock::now();
      ZV_ASSIGN_OR_RETURN(zv::zql::PhysicalPlan plan,
                          zv::zql::BuildPhysicalPlan(parsed, opts));
      const auto t2 = Clock::now();
      (void)plan;
      parse_ms->push_back(MsBetween(t0, t1));
      plan_ms->push_back(MsBetween(t1, t2));
    }
  }
  return zv::Status::OK();
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count / base, printed only
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n-- %s --\n", title);
  std::printf("%-34s %16s  %-10s %s\n", "metric", "value", "unit", "basis");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g  %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Count(const char* what, size_t n) {
  return std::to_string(n) + " " + what;
}

struct Args {
  Kind kind = Kind::kExplore;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      const std::optional<Kind> k = KindFromName(val);
      if (!k.has_value()) return false;
      args->kind = *k;
      have[0] = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), &end, 10);
      have[1] = end != nullptr && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      have[2] = end != nullptr && *end == '\0' && args->seconds >= 1;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      args->trace = val == "1";
      have[3] = true;
    } else {
      return false;
    }
  }
  return argc == 9 && have[0] && have[1] && have[2] && have[3];
}

/// Timed-stream length: enough operations that no phase runs dry.
size_t MaxOps(Kind kind, int seconds) {
  const size_t s = static_cast<size_t>(seconds);
  switch (kind) {
    case Kind::kExplore: return 200 * s + 200;
    case Kind::kDashboard: return 40000 * s + 10000;
    case Kind::kPaperOpt: return 40 * s + 32;
  }
  return 0;
}

int Run(const Args& args) {
  const Kind kind = args.kind;
  const Profile profile = ProfileFor(kind);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  zv::SetParallelThreads(std::min(4u, hw));

  // --- set-up: repeated, median reported; the last one is kept ---------
  std::vector<double> setup_s, generate_s, register_s;
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous set-up (service before the registry it records
    // into) before generating again.
    setup.service.reset();
    setup.registry.reset();
    setup.tables = Tables();
    zv::Result<Setup> built = BuildSetup(kind, args.seed);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup = std::move(built).value();
    setup_s.push_back(setup.generate_s + setup.register_s);
    generate_s.push_back(setup.generate_s);
    register_s.push_back(setup.register_s);
  }
  const zv::zql::ZqlOptions& zopts = setup.service->zql_options();

  // --- request streams + generator self-check ---------------------------
  const size_t max_ops = MaxOps(kind, args.seconds);
  zv::Result<Streams> streams_or =
      GenerateStreams(kind, args.seed, setup.tables, zopts, max_ops);
  if (!streams_or.ok()) {
    std::fprintf(stderr, "stream generation failed: %s\n",
                 streams_or.status().ToString().c_str());
    return 1;
  }
  const Streams streams = std::move(streams_or).value();
  const uint64_t stream_hash = StreamHash(streams);
  {
    zv::Result<Streams> again =
        GenerateStreams(kind, args.seed, setup.tables, zopts, max_ops);
    zv::Result<Streams> other =
        GenerateStreams(kind, args.seed + 1, setup.tables, zopts, max_ops);
    bool ok = again.ok() && other.ok() && StreamHash(*again) == stream_hash &&
              StreamHash(*other) != stream_hash;
    if (kind == Kind::kExplore) {
      std::set<std::string> distinct;
      for (const Query& q : streams.queries) distinct.insert(q.zql);
      ok = ok && distinct.size() == streams.queries.size();
    }
    if (!ok) {
      std::fprintf(stderr, "generator self-check failed (determinism, seed "
                           "sensitivity or explore distinctness)\n");
      return 1;
    }
  }

  // --- metadata ---------------------------------------------------------
  const zv::server::QueryService& svc = *setup.service;
  std::printf("==== zv_e2e: workload %s, seed %llu, %d s, trace %d ====\n",
              KindName(kind), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const zv::server::ServiceOptions& pinned = setup.options;
  std::printf(
      "meta {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"simd_width\": %zu, "
      "\"clients\": %zu, \"scoring_threads\": %zu, \"max_inflight\": %zu, "
      "\"max_queue\": %zu, \"cache_mb\": %zu, \"result_cache\": %s, "
      "\"shared_scans\": %s, \"batch_window_ms\": %g, \"shards\": %zu, "
      "\"opt\": \"%s\", \"metric\": \"%s\", \"pipelined\": %s, "
      "\"binning_pushdown\": %s, \"topk_pruning\": %s, \"page_limit\": %llu, "
      "\"write_share\": %g, \"simulated_remote\": false, "
      "\"stream_hash\": \"%016llx\"}\n",
      CpuModel().c_str(), hw, ZVB_COMPILER, ZVB_BUILD_TYPE, ZVB_CXX_FLAGS,
      zv::simd::ActiveWidth(), profile.clients, zv::ParallelWorkerCount(),
      svc.max_inflight(), svc.max_queue(), pinned.cache_mb,
      pinned.result_cache ? "true" : "false",
      pinned.shared_scans ? "true" : "false", pinned.batch_window_ms,
      zopts.shards, zv::api::OptLevelWireName(zopts.optimization),
      zv::DistanceMetricToString(zopts.tasks.default_options.metric),
      zopts.pipelined_execution ? "true" : "false",
      zopts.binning_pushdown ? "true" : "false",
      zopts.topk_pruning ? "true" : "false",
      static_cast<unsigned long long>(profile.page_limit), profile.write_share,
      static_cast<unsigned long long>(stream_hash));
  std::printf("set-up (s):");
  for (double v : setup_s) std::printf(" %.3f", v);
  std::printf("\ndatasets:");
  for (const Dataset& d : setup.tables.datasets) {
    std::printf(" %s=%zu rows (%s)", d.table->name().c_str(),
                d.table->num_rows(), d.scan_backend ? "scan" : "roaring");
  }
  std::printf("; %zu distinct queries\nread mix:", streams.queries.size());
  for (const auto& [shape, share] : streams.mix) {
    std::printf(" %s %.0f%%", shape.c_str(), share * 100);
  }
  std::printf("\n");

  Loop loop(&setup, &streams);
  if (zv::Status s = loop.Init(profile.clients); !s.ok()) {
    std::fprintf(stderr, "sessions: %s\n", s.ToString().c_str());
    return 1;
  }

  // --- untimed warm-up on a disjoint stream -----------------------------
  std::atomic<size_t> warm_cursor{0};
  const Phase warm = loop.Run(streams.warm_ops, &warm_cursor,
                              profile.warm_seconds, false);
  std::printf("warm-up: %zu requests in %.2f s (%zu failed)\n",
              warm.reads.size(), warm.wall_s, warm.failed);

  // --- timed phases -----------------------------------------------------
  // --trace 0: one untraced phase. --trace 1: four alternating slices,
  // untraced / traced, so both see the same stretch of the stream.
  std::atomic<size_t> cursor{0};
  std::vector<Phase> untraced, traced;
  const zv::server::ServiceStats stats0 = svc.stats();
  const uint64_t conversions0 = zv::roaring::ContainerConversions();
  if (!args.trace) {
    untraced.push_back(
        loop.Run(streams.ops, &cursor, args.seconds, false, profile.round));
  } else {
    const double slice = args.seconds / 4.0;
    for (int i = 0; i < 4; ++i) {
      (i % 2 == 0 ? untraced : traced)
          .push_back(loop.Run(streams.ops, &cursor, slice, i % 2 == 1,
                              profile.round));
    }
  }
  const zv::server::ServiceStats stats1 = svc.stats();
  const uint64_t conversions = zv::roaring::ContainerConversions() - conversions0;

  size_t attempted = 0;
  size_t failed = 0;
  std::vector<const Record*> all_reads;
  std::vector<double> replace_ms;
  for (const std::vector<Phase>* group : {&untraced, &traced}) {
    for (const Phase& p : *group) {
      attempted += p.attempted;
      failed += p.failed;
      for (const Record& r : p.reads) all_reads.push_back(&r);
      replace_ms.insert(replace_ms.end(), p.replace_ms.begin(),
                        p.replace_ms.end());
    }
  }

  // --- oracle checks (untimed) ------------------------------------------
  zv::Result<CheckReport> check =
      CheckOutputs(kind, args.seed, setup, streams, all_reads);
  if (!check.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n",
                 check.status().ToString().c_str());
    return 1;
  }
  failed += check->mismatched;
  std::printf("oracle: %zu responses checked byte for byte, %zu mismatched\n",
              check->checked, check->mismatched);
  if (!check->first_mismatch.empty()) {
    std::printf("first mismatch: %s\n", check->first_mismatch.c_str());
  }

  // Write latency outside the dashboard (trace run only): serial replaces
  // on the idle service. A scan-backed replace builds no index and takes
  // well under a microsecond, hence more samples.
  std::string replace_basis = Count("writes under load", replace_ms.size());
  if (args.trace && kind != Kind::kDashboard) {
    size_t replace_failed = 0;
    replace_ms = loop.ReplaceProbe(kind == Kind::kPaperOpt ? 200 : 15,
                                   &replace_failed);
    attempted += replace_ms.size();
    failed += replace_failed;
    replace_basis = Count("serial writes, idle service", replace_ms.size());
  }

  if (const std::string e = loop.first_error(); !e.empty()) {
    std::printf("first failed operation: %s\n", e.c_str());
  }
  const bool correct = failed == 0 && check->checked > 0;
  std::printf("error_rate: %.6g (%zu failed / %zu attempted, oracle checks "
              "included)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);

  // --- end-to-end metrics -----------------------------------------------
  if (!args.trace) {
    const Phase& p = untraced[0];
    std::vector<double> lat;
    for (const Record& r : p.reads) {
      if (r.ok) lat.push_back(r.latency_ms);
    }
    const size_t n = lat.size();
    const size_t completed = p.ok_reads() + p.replace_ms.size();
    const size_t beyond_p99 = n - static_cast<size_t>(0.99 * n);
    std::vector<Metric> m = {
        {"latency_p50_ms", Quantile(lat, 0.5), "ms", Count("reads", n)},
        {"latency_p99_ms", Quantile(lat, 0.99), "ms",
         Count("reads", n) + ", " + std::to_string(beyond_p99) +
             " beyond p99"},
        {"throughput_qps", Ratio(static_cast<double>(n), p.wall_s), "1/s",
         zv::StrFormat("%zu reads / %.3f s, %zu clients", n, p.wall_s,
                       profile.clients)},
        {"setup_s", Quantile(setup_s, 0.5), "s",
         Count("set-ups", setup_s.size())},
        {"rss_peak_mb", PeakRssMb(), "MB", "process lifetime"},
        {"cpu_ms_per_request",
         Ratio(p.cpu_ms, static_cast<double>(completed)), "ms",
         Count("requests", completed)},
    };
    // Latency by request shape: where the end-to-end time goes.
    std::map<std::string, std::vector<double>> by_shape;
    for (const Record& r : p.reads) {
      if (r.ok) {
        by_shape[streams.queries[static_cast<size_t>(r.query)].shape]
            .push_back(r.latency_ms);
      }
    }
    std::printf("\n-- read latency by shape --\n");
    for (const auto& [shape, v] : by_shape) {
      std::printf("  %-28s %6zu reads  p50 %9.3f ms  mean %9.3f ms  max %9.3f "
                  "ms\n",
                  shape.c_str(), v.size(), Quantile(v, 0.5), Mean(v),
                  Quantile(v, 1.0));
    }
    PrintMetrics("end-to-end (tracing off)", m);
    PrintResult(correct, attempted, failed, m);
    return 0;
  }

  // --- per-layer metrics (trace run) ------------------------------------
  double u_reads = 0, u_wall = 0, t_reads = 0, t_wall = 0;
  std::vector<double> decode_ms, encode_ms, bytes;
  for (const Phase& p : untraced) {
    u_reads += static_cast<double>(p.ok_reads());
    u_wall += p.wall_s;
    for (const Record& r : p.reads) {
      if (!r.ok) continue;
      decode_ms.push_back(r.decode_ms);
      encode_ms.push_back(r.encode_ms);
      bytes.push_back(static_cast<double>(r.bytes));
    }
  }
  LayerTotals layers;
  std::vector<double> request_self_ms;
  double traced_requests = 0;
  double traced_executed = 0;
  for (const Phase& p : traced) {
    t_reads += static_cast<double>(p.ok_reads());
    t_wall += p.wall_s;
    for (const Record& r : p.reads) {
      if (!r.ok) continue;
      traced_requests += 1;
      if (r.stats.cache_hits == 0) traced_executed += 1;
      layers.Charge(Layer::kApi, r.decode_ms + r.encode_ms);
      const double root = AddServiceTrace(r.trace, &layers);
      request_self_ms.push_back(r.execute_ms - root);
      layers.Charge(Layer::kServer, r.execute_ms - root);
    }
  }
  // Work counts over every timed read that executed (not a cache hit).
  std::vector<double> fetch_ms, score_ms, pruned, chunks;
  double executed = 0;
  for (const Record* r : all_reads) {
    if (!r->ok || r->stats.cache_hits != 0) continue;
    executed += 1;
    fetch_ms.push_back(r->stats.fetch_ms);
    score_ms.push_back(r->stats.score_ms);
    pruned.push_back(static_cast<double>(r->stats.scores_pruned));
    chunks.push_back(static_cast<double>(r->stats.chunks_scanned));
  }

  // Probes over a seeded sample of the distinct queries that ran.
  std::vector<const Query*> ran;
  {
    std::vector<bool> seen(streams.queries.size(), false);
    for (const Record* r : all_reads) {
      const size_t q = static_cast<size_t>(r->query);
      if (!seen[q]) ran.push_back(&streams.queries[q]);
      seen[q] = true;
    }
  }
  // One probe entry per distinct query text (paper_opt's four levels of
  // a table share one; the level probe sweeps the levels itself).
  std::vector<const Query*> sample;
  {
    std::set<std::string> texts;
    for (const Query* q : ran) {
      if (texts.insert(q->dataset + "\n" + q->zql).second) sample.push_back(q);
    }
  }
  {
    zv::Rng rng(args.seed ^ 0x5a3b1eull);
    for (size_t i = sample.size(); i > 1; --i) {
      std::swap(sample[i - 1], sample[rng.Uniform(i)]);
    }
    if (sample.size() > kProbeQueries) sample.resize(kProbeQueries);
  }
  std::vector<double> parse_ms, plan_ms;
  std::vector<const Query*> parse_set = ran;
  if (parse_set.size() > 200) parse_set.resize(200);
  zv::Status pp = ParsePlanProbe(zopts, parse_set, &parse_ms, &plan_ms);
  zv::Result<LevelCounts> levels_or = LevelProbe(setup, sample);
  zv::Result<EngineProbe> engine = ReplayProbe(setup, sample);
  if (!pp.ok() || !levels_or.ok() || !engine.ok()) {
    std::fprintf(stderr, "probe failed: %s\n",
                 (!pp.ok() ? pp
                  : !levels_or.ok() ? levels_or.status()
                                 : engine.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  LevelCounts levels = std::move(levels_or).value();

  // Statements / requests per query at the workload's own level(s). On
  // paper_opt (one client, every request executes) the service's counts
  // are exact; they must repeat exactly per (query, level).
  double stmts_per_query = 0;
  double reqs_per_query = 0;
  if (kind == Kind::kPaperOpt) {
    std::map<int32_t, std::pair<uint64_t, uint64_t>> per_query;
    bool repeatable = true;
    for (const Record* r : all_reads) {
      if (!r->ok) continue;
      const auto counts =
          std::make_pair(r->stats.sql_queries, r->stats.sql_requests);
      auto [it, inserted] = per_query.emplace(r->query, counts);
      if (!inserted && it->second != counts) repeatable = false;
      stmts_per_query += static_cast<double>(counts.first);
      reqs_per_query += static_cast<double>(counts.second);
    }
    stmts_per_query /= std::max(1.0, executed);
    reqs_per_query /= std::max(1.0, executed);
    std::printf("\n-- statements / requests per (query, level), from the "
                "service (repeatable: %s) --\n",
                repeatable ? "yes" : "NO");
    for (const auto& [q, counts] : per_query) {
      std::printf("  %-24s %6llu statements %6llu requests\n",
                  streams.queries[static_cast<size_t>(q)].shape.c_str(),
                  static_cast<unsigned long long>(counts.first),
                  static_cast<unsigned long long>(counts.second));
    }
    if (!repeatable) {
      std::fprintf(stderr, "paper_opt: statement counts did not repeat\n");
      return 1;
    }
  } else {
    stmts_per_query = levels.per_level[zopts.optimization].first;
    reqs_per_query = levels.per_level[zopts.optimization].second;
  }

  const double u_thr = Ratio(u_reads, u_wall);
  const double t_thr = Ratio(t_reads, t_wall);
  const double lookups =
      static_cast<double>((stats1.cache_hits - stats0.cache_hits) +
                          (stats1.cache_misses - stats0.cache_misses));
  const double completed =
      static_cast<double>(stats1.completed - stats0.completed);
  const double executions =
      completed - static_cast<double>(stats1.cache_hits - stats0.cache_hits);
  const double passes =
      static_cast<double>(stats1.batch_passes - stats0.batch_passes);
  const std::string traced_basis = Count("traced requests",
                                         static_cast<size_t>(traced_requests));
  const std::string exec_basis =
      Count("executed requests", static_cast<size_t>(executed));
  auto per_request = [&](Layer layer) {
    return Ratio(layers.self_ms[static_cast<size_t>(layer)], traced_requests);
  };
  auto level_metric = [&](const char* base, OptLevel level, bool requests,
                          const char* unit) {
    const auto counts = levels.per_level[level];
    return Metric{std::string(base) + "." +
                      zv::api::OptLevelWireName(level),
                  requests ? counts.second : counts.first, unit,
                  Count("probe queries", sample.size())};
  };
  std::vector<Metric> m = {
      {"api.decode_ms_p50", Quantile(decode_ms, 0.5), "ms",
       Count("untraced reads", decode_ms.size())},
      {"api.encode_ms_p50", Quantile(encode_ms, 0.5), "ms",
       Count("untraced reads", encode_ms.size())},
      {"api.response_bytes_mean", Mean(bytes), "bytes",
       Count("untraced reads", bytes.size())},
      {"api.self_ms_per_request", per_request(Layer::kApi), "ms", traced_basis},
      {"server.request_ms_p50", Quantile(request_self_ms, 0.5), "ms",
       traced_basis},
      {"server.queue_wait_ms_p99", Quantile(layers.queue_wait_ms, 0.99), "ms",
       Count("queued executions", layers.queue_wait_ms.size())},
      {"server.result_hit_ratio",
       Ratio(static_cast<double>(stats1.cache_hits - stats0.cache_hits),
             lookups),
       "ratio", Count("lookups", static_cast<size_t>(lookups))},
      {"server.result_lookups", lookups, "count", "result-cache lookups"},
      {"server.executions_per_request", Ratio(executions, completed), "ratio",
       Count("completed", static_cast<size_t>(completed))},
      {"server.context_reuse_per_query",
       Ratio(static_cast<double>(stats1.contexts_reused -
                                 stats0.contexts_reused),
             executions),
       "count/query", Count("executions", static_cast<size_t>(executions))},
      {"server.shared_scan_ratio",
       Ratio(static_cast<double>(stats1.batch_passes_shared -
                                 stats0.batch_passes_shared),
             passes),
       "ratio", Count("scan passes", static_cast<size_t>(passes))},
      {"server.shared_scan_passes", passes, "count", "shared-scan passes"},
      {"server.self_ms_per_request", per_request(Layer::kServer), "ms",
       traced_basis},
      {"server.replace_ms_p50", Quantile(replace_ms, 0.5), "ms",
       replace_basis},
      {"zql.parse_ms_p50", Quantile(parse_ms, 0.5), "ms",
       Count("parses", parse_ms.size())},
      {"zql.plan_ms_p50", Quantile(plan_ms, 0.5), "ms",
       Count("plans", plan_ms.size())},
      {"zql.statements_per_query", stmts_per_query, "count/query",
       kind == Kind::kPaperOpt ? exec_basis
                               : Count("probe queries", sample.size())},
      {"zql.requests_per_query", reqs_per_query, "count/query",
       kind == Kind::kPaperOpt ? exec_basis
                               : Count("probe queries", sample.size())},
      level_metric("zql.statements_per_query", OptLevel::kNoOpt, false,
                   "count/query"),
      level_metric("zql.statements_per_query", OptLevel::kIntraLine, false,
                   "count/query"),
      level_metric("zql.statements_per_query", OptLevel::kIntraTask, false,
                   "count/query"),
      level_metric("zql.statements_per_query", OptLevel::kInterTask, false,
                   "count/query"),
      level_metric("zql.requests_per_query", OptLevel::kNoOpt, true,
                   "count/query"),
      level_metric("zql.requests_per_query", OptLevel::kIntraLine, true,
                   "count/query"),
      level_metric("zql.requests_per_query", OptLevel::kIntraTask, true,
                   "count/query"),
      level_metric("zql.requests_per_query", OptLevel::kInterTask, true,
                   "count/query"),
      {"zql.fetch_ms", Mean(fetch_ms), "ms", exec_basis},
      {"zql.materialize_ms", Ratio(layers.materialize_ms, traced_executed),
       "ms", Count("traced executions", static_cast<size_t>(traced_executed))},
      {"zql.fetch_wait_ms", Ratio(layers.fetch_wait_ms, traced_executed),
       "ms", Count("traced executions", static_cast<size_t>(traced_executed))},
      {"zql.unattributed_share", Ratio(layers.unattributed_ms, layers.root_ms),
       "ratio", traced_basis},
      {"zql.self_ms_per_request", per_request(Layer::kZql), "ms", traced_basis},
      {"engine.statement_ms_p50", Quantile(engine->statement_ms, 0.5), "ms",
       Count("replayed statements", engine->statement_ms.size()) + ", " +
           Count("not re-parseable", engine->unparsed)},
      {"engine.rows_returned_mean", Mean(engine->rows), "rows",
       Count("replayed statements", engine->rows.size())},
      {"engine.chunks_scanned", Mean(chunks), "count/query", exec_basis},
      {"engine.shard_busy_ratio", Ratio(engine->shard_ms, engine->fetch_ms),
       "ratio", Count("probe queries at 4 shards", sample.size())},
      {"engine.register_s", Quantile(register_s, 0.5), "s",
       Count("set-ups", register_s.size())},
      {"engine.self_ms_per_request", per_request(Layer::kEngine), "ms",
       traced_basis},
      {"roaring.container_conversions",
       Ratio(static_cast<double>(conversions), std::max(1.0, executed)),
       "count/query", exec_basis},
      {"tasks.score_ms_p50", Quantile(score_ms, 0.5), "ms", exec_basis},
      {"tasks.scores_pruned_per_query", Mean(pruned), "count/query",
       exec_basis},
      {"tasks.self_ms_per_request", per_request(Layer::kTasks), "ms",
       traced_basis},
      {"storage.generate_s", Quantile(generate_s, 0.5), "s",
       Count("set-ups", generate_s.size())},
      {"trace.overhead_ratio", Ratio(t_thr, u_thr), "ratio",
       zv::StrFormat("traced %.1f/s over untraced %.1f/s", t_thr, u_thr)},
  };

  std::printf("\n-- per-layer self time, traced slices (%zu requests, "
              "%.0f executed) --\n",
              static_cast<size_t>(traced_requests), traced_executed);
  double total = 0;
  for (double v : layers.self_ms) total += v;
  for (size_t i = 0; i < kNumLayers; ++i) {
    std::printf("  %-8s %12.4f ms/request  %6.1f%%\n",
                LayerName(static_cast<Layer>(i)),
                Ratio(layers.self_ms[i], traced_requests),
                100 * Ratio(layers.self_ms[i], total));
  }
  std::printf("  (roaring runs inside engine scans and storage only at "
              "set-up: counts below)\n");
  if (!layers.unknown.empty()) {
    std::printf("  unknown spans charged to zql:");
    for (const std::string& n : layers.unknown) std::printf(" %s", n.c_str());
    std::printf("\n");
  }
  PrintMetrics("per-layer (trace run)", m);
  PrintResult(correct, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace zvb

int main(int argc, char** argv) {
#if ZVB_SANITIZED || !defined(NDEBUG)
  std::fprintf(stderr, "zv_e2e: refusing to record from a %s build (%s)\n",
               ZVB_SANITIZED ? "sanitizer" : "debug", ZVB_BUILD_TYPE);
  return 3;
#endif
  if (std::strstr(ZVB_CXX_FLAGS, "-fsanitize") != nullptr ||
      (std::strcmp(ZVB_BUILD_TYPE, "Release") != 0 &&
       std::strcmp(ZVB_BUILD_TYPE, "RelWithDebInfo") != 0)) {
    std::fprintf(stderr, "zv_e2e: refusing to record from build type '%s'\n",
                 ZVB_BUILD_TYPE);
    return 3;
  }
  zvb::ScrubEnvironment();
  zvb::Args args;
  if (!zvb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: zv_e2e --workload explore|dashboard|paper_opt "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return zvb::Run(args);
}
