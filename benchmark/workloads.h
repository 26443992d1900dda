/// \file workloads.h
/// \brief The three benchmark workloads: their pinned service
/// configuration, their datasets, and the seeded request streams the
/// harness replays through the wire path.
///
/// Everything here is a pure function of (workload, seed) and of the
/// generated tables: the same seed yields byte-identical request streams
/// (StreamHash), and every constant in a query is drawn from the table's
/// own dictionaries.

#ifndef ZVB_WORKLOADS_H_
#define ZVB_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "server/query_service.h"
#include "storage/table.h"
#include "zql/executor.h"

namespace zvb {

enum class Kind { kExplore, kDashboard, kPaperOpt };

/// Parses a workload name; nullopt for unknown names.
std::optional<Kind> KindFromName(const std::string& name);
const char* KindName(Kind kind);

/// One distinct read request of a workload.
struct Query {
  std::string dataset;
  std::string zql;     ///< canonical ZQL text
  std::string shape;   ///< mix class, e.g. "trend/year" or "table_5_1"
  std::optional<zv::zql::OptLevel> level;  ///< per-request override
  std::string wire;         ///< request JSON, untraced
  std::string wire_traced;  ///< the same request with "trace": true
};

/// One dataset of a workload, as registered with the service.
struct Dataset {
  std::shared_ptr<zv::Table> table;
  bool scan_backend = false;  ///< ScanDatabase instead of RoaringDatabase
};

/// The tables a workload serves. `alternate` is the second table the
/// dashboard's writes swap in (null elsewhere).
struct Tables {
  std::vector<Dataset> datasets;
  std::shared_ptr<zv::Table> alternate;
};

/// Fixed shape of a workload: client count, page size, sizes.
struct Profile {
  size_t clients = 4;
  uint64_t page_limit = 0;     ///< 0 = unpaginated
  double write_share = 0;      ///< fraction of operations that are writes
  size_t warm_ops = 0;         ///< untimed warm-up operations (upper bound)
  double warm_seconds = 0;     ///< …and time cap for the warm-up
  /// A phase ends only after a whole number of rounds of this many
  /// operations, so every run measures the same mix (1 = no rounding).
  size_t round = 1;
};

Profile ProfileFor(Kind kind);

/// Generates the workload's tables (the timed part of set-up).
Tables GenerateTables(Kind kind, uint64_t seed);

/// The service configuration every knob of which is set explicitly (no
/// ZV_* environment fallback). `tables` and `seed` supply the named
/// value sets (P, OA, DA) of paper_opt.
zv::server::ServiceOptions PinnedServiceOptions(Kind kind, uint64_t seed,
                                                const Tables& tables);

/// An operation of the closed loop: a read of queries[index] or, when
/// index == kWrite, a ReplaceDataset.
inline constexpr int32_t kWrite = -1;

struct Streams {
  std::vector<Query> queries;
  std::vector<int32_t> warm_ops;  ///< untimed, disjoint from `ops`
  std::vector<int32_t> ops;       ///< timed phases consume this in order
  /// Shape shares of `ops` reads, for the printed mix table.
  std::vector<std::pair<std::string, double>> mix;
};

/// Builds the request streams. Fails (with a message) if any generated
/// query does not parse and plan, or if explore produced a duplicate.
zv::Result<Streams> GenerateStreams(Kind kind, uint64_t seed,
                                    const Tables& tables,
                                    const zv::zql::ZqlOptions& options,
                                    size_t max_ops);

/// FNV-1a over the wire bytes of every operation, warm-up and timed.
uint64_t StreamHash(const Streams& streams);

/// 64-bit FNV-1a.
uint64_t Fnv1a(const char* data, size_t size, uint64_t h = 1469598103934665603ull);

}  // namespace zvb

#endif  // ZVB_WORKLOADS_H_
