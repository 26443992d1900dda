#include "workloads.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "api/protocol.h"
#include "common/rng.h"
#include "common/strings.h"
#include "workload/datasets.h"
#include "zql/canonical.h"
#include "zql/parser.h"
#include "zql/plan.h"

namespace zvb {
namespace {

using zv::Rng;
using zv::Value;
using zv::zql::OptLevel;

// Table sizes. 10M rows is out of scope: generation alone would dominate
// every run's set-up time.
constexpr size_t kSalesRows = 1000000;
constexpr size_t kSalesProducts = 200;
constexpr size_t kPaperSalesRows = 2000000;
constexpr size_t kPaperSalesProducts = 100;
constexpr size_t kAirlineRows = 1000000;
constexpr size_t kPaperP = 20;         // |P|, Table 5.1 / 5.2
constexpr size_t kPaperAirports = 15;  // |OA| = |DA|, Table 7.1 / 7.2

// Dashboard: ~24 queries (6 bases x 4 constraint variants), Zipf reads.
constexpr size_t kDashboardBases = 6;
constexpr size_t kDashboardVariants = 4;
constexpr double kDashboardZipf = 1.0;

constexpr OptLevel kLevels[] = {OptLevel::kNoOpt, OptLevel::kIntraLine,
                                OptLevel::kIntraTask, OptLevel::kInterTask};

/// Independent, seed-derived sub-streams (splitmix64 finalizer).
uint64_t Derive(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt * 0xbf58476d1ce4e5b9ull +
               0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A categorical column's dictionary, in code order.
struct Dict {
  std::string attr;
  std::vector<Value> values;
};

Dict DictOf(const zv::Table& table, const std::string& attr) {
  Dict d{attr, {}};
  const int col = table.schema().Find(attr);
  if (col < 0) return d;
  const size_t c = static_cast<size_t>(col);
  for (size_t i = 0; i < table.DictSize(c); ++i) {
    d.values.push_back(table.DictValue(c, static_cast<int32_t>(i)));
  }
  return d;
}

std::string Literal(const Value& v) {
  return v.is_string() ? "'" + v.AsString() + "'" : v.ToString();
}

const Value& Pick(Rng& rng, const Dict& d) {
  return d.values[rng.Uniform(d.values.size())];
}

/// Distinct values of `d` chosen by `rng` (sorted by dictionary code).
std::vector<Value> PickDistinct(Rng& rng, const Dict& d, size_t n,
                                size_t skip = 0) {
  std::vector<size_t> idx(d.values.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.Uniform(i)]);
  }
  std::vector<size_t> chosen(idx.begin() + static_cast<long>(skip),
                             idx.begin() + static_cast<long>(skip + n));
  std::sort(chosen.begin(), chosen.end());
  std::vector<Value> out;
  for (size_t i : chosen) out.push_back(d.values[i]);
  return out;
}

/// The literal for a constant the query text needs, which must exist in
/// the table's dictionary (an empty string signals it does not).
std::string Require(const Dict& d, const Value& v) {
  for (const Value& have : d.values) {
    if (have == v) return Literal(v);
  }
  return "";
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>* v) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

struct SalesDicts {
  Dict product, country, size, city, category, year, month;
  explicit SalesDicts(const zv::Table& t)
      : product(DictOf(t, "product")),
        country(DictOf(t, "country")),
        size(DictOf(t, "size")),
        city(DictOf(t, "city")),
        category(DictOf(t, "category")),
        year(DictOf(t, "year")),
        month(DictOf(t, "month")) {}
};

/// A WHERE constraint of varying selectivity (none … ~1/40 of the rows),
/// never on the x attribute, in one of eight forms: 0 is none, 1-5 a
/// single predicate, 6-7 two predicates.
std::string Constraint(Rng& rng, const SalesDicts& d, const std::string& x,
                       uint64_t form) {
  switch (form) {
    case 0:
      return "";
    case 1:
      return "country=" + Literal(Pick(rng, d.country));
    case 2:
      return "size=" + Literal(Pick(rng, d.size));
    case 3:
      return "city=" + Literal(Pick(rng, d.city));
    case 4:
      return "category=" + Literal(Pick(rng, d.category));
    case 5:
      return x == "year" ? "month=" + Literal(Pick(rng, d.month))
                         : "year=" + Literal(Pick(rng, d.year));
    case 6:
      return "country=" + Literal(Pick(rng, d.country)) +
             " AND size=" + Literal(Pick(rng, d.size));
    default:
      return "country=" + Literal(Pick(rng, d.country)) +
             " AND city=" + Literal(Pick(rng, d.city));
  }
}

enum class Shape { kTrend, kSimilarity, kRepresentative, kOutlier };
constexpr Shape kShapes[] = {Shape::kTrend, Shape::kSimilarity,
                             Shape::kRepresentative, Shape::kOutlier};
const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kTrend: return "trend";
    case Shape::kSimilarity: return "similarity";
    case Shape::kRepresentative: return "representative";
    case Shape::kOutlier: return "outlier";
  }
  return "?";
}

/// x kinds: categorical year / month, or the quantitative weight binned.
enum class XKind { kYear, kMonth, kWeight };
const char* XName(XKind x) {
  switch (x) {
    case XKind::kYear: return "year";
    case XKind::kMonth: return "month";
    case XKind::kWeight: return "weight";
  }
  return "?";
}

/// Bin widths of the binned weight axis (weight spans 5..100).
constexpr int kBinWidths[] = {5, 10, 20};

/// Everything a sales query fixes besides its shape, x and constraint.
struct Params {
  std::string y = "sales";
  const char* agg = "sum";   ///< categorical x only
  int bin_width = 10;        ///< binned weight x only
  uint64_t trend_form = 0;   ///< index into kTrendForms
  int k = 5;                 ///< similarity / top-k trend
  int reps = 3;              ///< representatives (R)
  int outliers = 3;          ///< outlier top-k
  std::string ref;           ///< similarity reference product (literal)
};

constexpr const char* kTrendForms[] = {"argany_v1[t > 0]", "argany_v1[t < 0]",
                                       "argmax_v1[k=%d]", "argmin_v1[k=%d]"};

/// Draws every parameter from `rng`, in a fixed order.
Params DrawParams(Rng& rng, const SalesDicts& d, int bin_width) {
  static const char* const kMeasures[] = {"sales", "profit", "revenue"};
  Params p;
  p.y = kMeasures[rng.Uniform(3)];
  static const char* const kAggs[] = {"sum", "avg", "count"};
  p.agg = kAggs[rng.Uniform(3)];
  p.bin_width = bin_width;
  p.trend_form = rng.Uniform(std::size(kTrendForms));
  p.ref = Literal(Pick(rng, d.product));
  p.k = static_cast<int>(1 + rng.Uniform(10));
  p.reps = static_cast<int>(2 + rng.Uniform(10));
  p.outliers = static_cast<int>(1 + rng.Uniform(5));
  return p;
}

/// One exploration query over sales.
std::string SalesQuery(const Params& p, Shape shape, XKind xk,
                       const std::string& c) {
  const std::string x = XName(xk);
  const std::string viz =
      xk == XKind::kWeight
          ? zv::StrFormat("bar.(x=bin(%d), y=agg('sum'))", p.bin_width)
          : zv::StrFormat("bar.(y=agg('%s'))", p.agg);
  // One row's axis / slice / constraint / viz cells after the name.
  auto row = [&](const std::string& z) {
    return zv::StrFormat("'%s' | '%s' | %s | %s | %s", x.c_str(), p.y.c_str(),
                         z.c_str(), c.c_str(), viz.c_str());
  };
  switch (shape) {
    case Shape::kTrend: {
      const std::string mechanism =
          p.trend_form < 2 ? kTrendForms[p.trend_form]
                           : zv::StrFormat(kTrendForms[p.trend_form], p.k);
      return "*f1 | " + row("v1 <- 'product'.*") + " | v2 <- " + mechanism +
             " T(f1)";
    }
    case Shape::kSimilarity:
      return "f1 | " + row("'product'." + p.ref) + " |\n*f2 | " +
             row("v1 <- 'product'.*") +
             zv::StrFormat(" | v2 <- argmin_v1[k=%d] D(f1, f2)", p.k);
    case Shape::kRepresentative:
      return "f1 | " + row("v1 <- 'product'.*") +
             zv::StrFormat(" | v2 <- R(%d, v1, f1)\n", p.reps) + "*f2 | " +
             row("v2") + " |";
    case Shape::kOutlier:
      return "f1 | " + row("v1 <- 'product'.*") +
             zv::StrFormat(" | v2 <- R(%d, v1, f1)\n", p.reps) + "f2 | " +
             row("v2") + " |\nf3 | " + row("v1") +
             zv::StrFormat(" | v3 <- argmax_v1[k=%d] min_v2 D(f3, f2)\n",
                           p.outliers) +
             "*f4 | " + row("v3") + " |";
  }
  return "";
}

/// Turns ZQL text into a Query: parses, plans under `options` (so every
/// generated query is known to parse and plan), and encodes both wire
/// forms. Query::zql, the canonical text, is the dedup key.
zv::Result<Query> MakeQuery(const std::string& dataset,
                            const std::string& text, std::string shape,
                            std::optional<OptLevel> level, uint64_t page_limit,
                            const zv::zql::ZqlOptions& options) {
  zv::Result<zv::zql::ZqlQuery> parsed = zv::zql::ParseQuery(text);
  if (!parsed.ok()) {
    return zv::Status::Internal("generated query does not parse: " +
                                parsed.status().ToString() + "\n" + text);
  }
  zv::zql::ZqlOptions plan_options = options;
  if (level.has_value()) plan_options.optimization = *level;
  zv::Result<zv::zql::PhysicalPlan> plan =
      zv::zql::BuildPhysicalPlan(*parsed, plan_options);
  if (!plan.ok()) {
    return zv::Status::Internal("generated query does not plan: " +
                                plan.status().ToString() + "\n" + text);
  }
  zv::api::QueryRequest request;
  request.dataset = dataset;
  request.query = std::move(parsed).value();
  request.optimization = level;
  request.page.limit = page_limit;
  Query q;
  q.dataset = dataset;
  q.zql = zv::zql::CanonicalText(request.query);
  q.shape = std::move(shape);
  q.level = level;
  q.wire = zv::api::EncodeRequest(request).Dump();
  request.trace = true;
  q.wire_traced = zv::api::EncodeRequest(request).Dump();
  return q;
}

/// Explore: distinct-by-construction queries in blocks of 20 with fixed
/// shape shares (4 shapes x {year, year, month, month, weight}), shuffled
/// within the block. Each of the 20 cells also cycles through its
/// constraint forms (and, binned, every bin width) in a seeded order, so
/// the cost mix is the same at every seed and only constants vary.
zv::Result<std::vector<Query>> ExploreQueries(
    Rng& rng, const SalesDicts& d, size_t count, uint64_t page_limit,
    const zv::zql::ZqlOptions& options, std::set<std::string>* seen) {
  static const XKind kXSlots[] = {XKind::kYear, XKind::kYear, XKind::kMonth,
                                  XKind::kMonth, XKind::kWeight};
  constexpr size_t kSlots = std::size(kXSlots);
  constexpr size_t kCells = std::size(kShapes) * kSlots;
  // Binned cells skip the two least selective forms (none, size): a
  // binned scan over most of the table costs an order of magnitude more
  // than any other request, and a handful of those would set p99 alone.
  auto cell_forms = [](XKind xk) {
    return xk == XKind::kWeight ? std::vector<uint64_t>{1, 3, 4, 5, 6, 7}
                                : std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7};
  };
  std::vector<std::vector<uint64_t>> forms(kCells);
  std::vector<size_t> uses(kCells, 0);
  std::vector<Query> out;
  out.reserve(count);
  while (out.size() < count) {
    std::vector<size_t> block(kCells);
    for (size_t i = 0; i < kCells; ++i) block[i] = i;
    Shuffle(rng, &block);
    for (size_t cell : block) {
      if (out.size() >= count) break;
      const Shape shape = kShapes[cell / kSlots];
      const XKind xk = kXSlots[cell % kSlots];
      const size_t use = uses[cell]++;
      if (use % cell_forms(xk).size() == 0) {
        forms[cell] = cell_forms(xk);
        Shuffle(rng, &forms[cell]);
      }
      const uint64_t form = forms[cell][use % forms[cell].size()];
      const int width = kBinWidths[(use + cell) % std::size(kBinWidths)];
      bool placed = false;
      for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
        const std::string c = Constraint(rng, d, XName(xk), form);
        const std::string text =
            SalesQuery(DrawParams(rng, d, width), shape, xk, c);
        zv::Result<Query> q =
            MakeQuery("sales", text,
                      std::string(ShapeName(shape)) + "/" + XName(xk),
                      std::nullopt, page_limit, options);
        if (!q.ok()) return q.status();
        if (seen->insert(q->zql).second) {
          out.push_back(std::move(q).value());
          placed = true;
        }
      }
      if (!placed) {
        return zv::Status::Internal("explore: could not draw a distinct query");
      }
    }
  }
  return out;
}

/// Dashboard pool: 6 fixed base panels, each in 4 variants that differ
/// in one constraint (country, size, category, then year or month). Only
/// the constants — which country, which product, … — depend on the seed,
/// so every seed's pool costs about the same.
zv::Result<std::vector<Query>> DashboardQueries(
    Rng& rng, const SalesDicts& d, uint64_t page_limit,
    const zv::zql::ZqlOptions& options) {
  struct Panel {
    Shape shape;
    XKind x;
    Params params;
  };
  auto params = [](const char* y, const char* agg, uint64_t trend_form,
                   int k, int reps) {
    Params p;
    p.y = y;
    p.agg = agg;
    p.trend_form = trend_form;
    p.k = k;
    p.reps = reps;
    return p;
  };
  const Panel kPanels[kDashboardBases] = {
      {Shape::kTrend, XKind::kYear, params("sales", "sum", 0, 5, 3)},
      {Shape::kSimilarity, XKind::kYear, params("sales", "sum", 0, 5, 3)},
      {Shape::kRepresentative, XKind::kMonth, params("profit", "avg", 0, 5, 4)},
      {Shape::kOutlier, XKind::kYear, params("revenue", "sum", 0, 3, 3)},
      {Shape::kTrend, XKind::kWeight, params("sales", "sum", 2, 5, 3)},
      {Shape::kSimilarity, XKind::kMonth, params("profit", "sum", 0, 3, 3)}};
  static const uint64_t kVariantForms[kDashboardVariants] = {1, 2, 4, 5};
  std::vector<Query> out;
  std::set<std::string> seen;
  for (Panel panel : kPanels) {
    panel.params.ref = Literal(Pick(rng, d.product));
    for (uint64_t form : kVariantForms) {
      bool placed = false;
      for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
        const std::string text =
            SalesQuery(panel.params, panel.shape, panel.x,
                       Constraint(rng, d, XName(panel.x), form));
        zv::Result<Query> q = MakeQuery(
            "sales", text,
            std::string(ShapeName(panel.shape)) + "/" + XName(panel.x),
            std::nullopt, page_limit, options);
        if (!q.ok()) return q.status();
        if (seen.insert(q->zql).second) {
          out.push_back(std::move(q).value());
          placed = true;
        }
      }
      if (!placed) {
        return zv::Status::Internal("dashboard: could not draw a variant");
      }
    }
  }
  return out;
}

/// The paper's Table 5.1 / 5.2 (sales, P) and Table 7.1 / 7.2 (airline,
/// OA / DA) at every optimization level.
zv::Result<std::vector<Query>> PaperQueries(const Tables& tables,
                                            const zv::zql::ZqlOptions& options) {
  const zv::Table& sales = *tables.datasets[0].table;
  const zv::Table& airline = *tables.datasets[1].table;
  const Dict location = DictOf(sales, "location");
  const Dict year = DictOf(sales, "year");
  const Dict month = DictOf(airline, "month");
  const std::string us = Require(location, Value::Str("US"));
  const std::string uk = Require(location, Value::Str("UK"));
  const std::string y2010 = Require(year, Value::Int(2010));
  const std::string y2015 = Require(year, Value::Int(2015));
  const std::string june = Require(month, Value::Int(6));
  const std::string december = Require(month, Value::Int(12));
  for (const std::string* lit : {&us, &uk, &y2010, &y2015, &june, &december}) {
    if (lit->empty()) {
      return zv::Status::Internal("paper_opt: a paper constant is missing "
                                  "from the generated dictionaries");
    }
  }
  struct PaperQuery {
    const char* name;
    const char* dataset;
    std::string text;
  };
  const std::vector<PaperQuery> paper = {
      {"table_5_1", "sales",
       "f1 | 'year' | 'sales' | v1 <- P | location=" + us +
           " | bar.(y=agg('sum')) | v2 <- argany_v1[t > 0] T(f1)\n"
           "f2 | 'year' | 'sales' | v1 | location=" + uk +
           " | bar.(y=agg('sum')) | v3 <- argany_v1[t < 0] T(f2)\n"
           "*f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | | "
           "bar.(y=agg('sum')) |"},
      {"table_5_2", "sales",
       "f1 | 'country' | 'sales' | v1 <- P | year=" + y2010 +
           " | bar.(y=agg('sum')) |\n"
           "f2 | 'country' | 'sales' | v1 | year=" + y2015 +
           " | bar.(y=agg('sum')) | v2 <- argmax_v1[k=10] D(f1, f2)\n"
           "*f3 | 'country' | 'profit' | v2 | year=" + y2010 +
           " | bar.(y=agg('sum')) |\n"
           "*f4 | 'country' | 'profit' | v2 | year=" + y2015 +
           " | bar.(y=agg('sum')) |"},
      {"table_7_1", "airline",
       "f1 | 'year' | 'dep_delay' | v1 <- OA | | bar.(y=agg('avg')) | v2 <- "
       "argany_v1[t > 0] T(f1)\n"
       "f2 | 'year' | 'weather_delay' | v1 | | bar.(y=agg('avg')) | v3 <- "
       "argany_v1[t > 0] T(f2)\n"
       "*f3 | 'year' | y3 <- {'dep_delay', 'weather_delay'} | v4 <- "
       "(v2.range | v3.range) | | bar.(y=agg('avg')) |"},
      {"table_7_2", "airline",
       "f1 | 'day_of_month' | 'arr_delay' | v1 <- DA | month=" + june +
           " | bar.(y=agg('avg')) |\n"
           "f2 | 'day_of_month' | 'arr_delay' | v1 | month=" + december +
           " | bar.(y=agg('avg')) | v2 <- argmax_v1[k=10] D(f1, f2)\n"
           "*f3 | 'month' | y1 <- {'arr_delay', 'weather_delay'} | v2 | | "
           "bar.(y=agg('avg')) |"},
  };
  std::vector<Query> out;
  for (const PaperQuery& pq : paper) {
    for (OptLevel level : kLevels) {
      zv::Result<Query> q =
          MakeQuery(pq.dataset, pq.text,
                    std::string(pq.name) + "/" +
                        zv::api::OptLevelWireName(level),
                    level, 0, options);
      if (!q.ok()) return q.status();
      out.push_back(std::move(q).value());
    }
  }
  return out;
}

}  // namespace

std::optional<Kind> KindFromName(const std::string& name) {
  if (name == "explore") return Kind::kExplore;
  if (name == "dashboard") return Kind::kDashboard;
  if (name == "paper_opt") return Kind::kPaperOpt;
  return std::nullopt;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kExplore: return "explore";
    case Kind::kDashboard: return "dashboard";
    case Kind::kPaperOpt: return "paper_opt";
  }
  return "?";
}

Profile ProfileFor(Kind kind) {
  Profile p;
  switch (kind) {
    case Kind::kExplore:
      p.clients = 4;
      p.page_limit = 20;
      p.warm_ops = 48;
      p.warm_seconds = 3;
      break;
    case Kind::kDashboard:
      p.clients = 4;
      p.page_limit = 12;
      p.write_share = 0.01;
      p.warm_ops = 2000;
      p.warm_seconds = 3;
      break;
    case Kind::kPaperOpt:
      p.clients = 1;
      p.page_limit = 0;
      p.warm_ops = 16;
      p.warm_seconds = 4;
      p.round = 16;  // 4 tables x 4 levels
      break;
  }
  return p;
}

Tables GenerateTables(Kind kind, uint64_t seed) {
  Tables t;
  if (kind == Kind::kPaperOpt) {
    zv::SalesDataOptions sales;
    sales.num_rows = kPaperSalesRows;
    sales.num_products = kPaperSalesProducts;
    sales.seed = Derive(seed, 1);
    t.datasets.push_back({zv::MakeSalesTable(sales), true});
    zv::AirlineDataOptions airline;
    airline.num_rows = kAirlineRows;
    airline.seed = Derive(seed, 2);
    t.datasets.push_back({zv::MakeAirlineTable(airline), true});
    return t;
  }
  zv::SalesDataOptions sales;
  sales.num_rows = kSalesRows;
  sales.num_products = kSalesProducts;
  sales.seed = Derive(seed, 1);
  t.datasets.push_back({zv::MakeSalesTable(sales), false});
  if (kind == Kind::kDashboard) {
    sales.seed = Derive(seed, 3);
    t.alternate = zv::MakeSalesTable(sales);
  }
  return t;
}

zv::server::ServiceOptions PinnedServiceOptions(Kind kind, uint64_t seed,
                                                const Tables& tables) {
  zv::server::ServiceOptions o;
  o.zql.optimization = OptLevel::kInterTask;
  o.zql.tasks.default_options.metric = zv::DistanceMetric::kEuclidean;
  o.zql.pipelined_execution = true;
  o.zql.pipeline_depth = 4;
  o.zql.shards = 4;
  o.zql.topk_pruning = true;
  o.zql.binning_pushdown = true;
  o.max_inflight = 4;
  o.max_queue = 64;
  o.cache_mb = 64;
  o.result_cache = true;
  o.shared_scans = true;
  o.batch_window_ms = 0;
  o.trace_all = 0;
  o.slow_query_ms = 100;
  if (kind == Kind::kPaperOpt) {
    // One client, every request executes: the optimization levels' work
    // is what this workload measures.
    o.cache_mb = 0;
    o.result_cache = false;
    Rng rng(Derive(seed, 200));
    const Dict product = DictOf(*tables.datasets[0].table, "product");
    const Dict origin = DictOf(*tables.datasets[1].table, "origin");
    o.zql.named_sets.value_sets["P"] = {
        "product",
        PickDistinct(rng, product, std::min(kPaperP, product.values.size()))};
    // OA and DA: consecutive, hence disjoint, runs of one permutation.
    const size_t airports =
        std::min(kPaperAirports, origin.values.size() / 2);
    Rng oa_rng(rng.Next());
    Rng da_rng = oa_rng;
    o.zql.named_sets.value_sets["OA"] = {
        "origin", PickDistinct(oa_rng, origin, airports)};
    o.zql.named_sets.value_sets["DA"] = {
        "origin", PickDistinct(da_rng, origin, airports, airports)};
  }
  return o;
}

zv::Result<Streams> GenerateStreams(Kind kind, uint64_t seed,
                                    const Tables& tables,
                                    const zv::zql::ZqlOptions& options,
                                    size_t max_ops) {
  const Profile profile = ProfileFor(kind);
  Streams s;
  Rng rng(Derive(seed, 100));
  switch (kind) {
    case Kind::kExplore: {
      const SalesDicts d(*tables.datasets[0].table);
      std::set<std::string> seen;
      // Warm-up first, from its own sub-stream; dedup spans both, so the
      // timed stream shares no query with the warm-up.
      Rng warm_rng(Derive(seed, 101));
      ZV_ASSIGN_OR_RETURN(std::vector<Query> warm,
                          ExploreQueries(warm_rng, d, profile.warm_ops,
                                         profile.page_limit, options, &seen));
      ZV_ASSIGN_OR_RETURN(std::vector<Query> timed,
                          ExploreQueries(rng, d, max_ops, profile.page_limit,
                                         options, &seen));
      for (Query& q : warm) {
        s.warm_ops.push_back(static_cast<int32_t>(s.queries.size()));
        s.queries.push_back(std::move(q));
      }
      for (Query& q : timed) {
        s.ops.push_back(static_cast<int32_t>(s.queries.size()));
        s.queries.push_back(std::move(q));
      }
      break;
    }
    case Kind::kDashboard: {
      const SalesDicts d(*tables.datasets[0].table);
      ZV_ASSIGN_OR_RETURN(s.queries, DashboardQueries(rng, d,
                                                      profile.page_limit,
                                                      options));
      // Zipf popularity over a fixed ranking: rank r is variant r / 6 of
      // panel r % 6, the same shape and constraint form at every seed.
      std::vector<int32_t> by_rank(s.queries.size());
      for (size_t r = 0; r < by_rank.size(); ++r) {
        by_rank[r] = static_cast<int32_t>((r % kDashboardBases) *
                                              kDashboardVariants +
                                          r / kDashboardBases);
      }
      const zv::ZipfSampler zipf(by_rank.size(), kDashboardZipf);
      Rng warm_rng(Derive(seed, 101));
      for (size_t i = 0; i < profile.warm_ops; ++i) {
        s.warm_ops.push_back(by_rank[zipf.Sample(warm_rng)]);
      }
      // Exactly one write per 1/write_share operations, at a seeded phase.
      const size_t period =
          static_cast<size_t>(1.0 / profile.write_share + 0.5);
      const size_t phase = rng.Uniform(period);
      s.ops.reserve(max_ops);
      for (size_t i = 0; i < max_ops; ++i) {
        s.ops.push_back(i % period == phase ? kWrite
                                            : by_rank[zipf.Sample(rng)]);
      }
      break;
    }
    case Kind::kPaperOpt: {
      ZV_ASSIGN_OR_RETURN(s.queries, PaperQueries(tables, options));
      std::vector<int32_t> round(s.queries.size());
      for (size_t i = 0; i < round.size(); ++i) {
        round[i] = static_cast<int32_t>(i);
      }
      Rng warm_rng(Derive(seed, 101));
      s.warm_ops = round;
      Shuffle(warm_rng, &s.warm_ops);
      // Whole rounds, each a fresh permutation: every (query, level) has
      // the same share at any run length.
      while (s.ops.size() < max_ops) {
        Shuffle(rng, &round);
        s.ops.insert(s.ops.end(), round.begin(), round.end());
      }
      break;
    }
  }
  // Mix table: shape shares over the timed reads.
  std::vector<std::pair<std::string, double>> mix;
  size_t reads = 0;
  for (int32_t op : s.ops) {
    if (op == kWrite) continue;
    ++reads;
    const std::string& shape = s.queries[static_cast<size_t>(op)].shape;
    const std::string cls = shape.substr(0, shape.find('/')) +
                            (shape.find("/weight") != std::string::npos
                                 ? "/binned"
                                 : "");
    auto it = std::find_if(mix.begin(), mix.end(),
                           [&](const auto& e) { return e.first == cls; });
    if (it == mix.end()) {
      mix.emplace_back(cls, 1.0);
    } else {
      it->second += 1.0;
    }
  }
  for (auto& [name, share] : mix) share /= std::max<size_t>(1, reads);
  std::sort(mix.begin(), mix.end());
  s.mix = std::move(mix);
  return s;
}

uint64_t Fnv1a(const char* data, size_t size, uint64_t h) {
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t StreamHash(const Streams& streams) {
  uint64_t h = 1469598103934665603ull;
  for (const std::vector<int32_t>* ops : {&streams.warm_ops, &streams.ops}) {
    for (int32_t op : *ops) {
      if (op == kWrite) {
        h = Fnv1a("W", 1, h);
      } else {
        const std::string& w = streams.queries[static_cast<size_t>(op)].wire;
        h = Fnv1a(w.data(), w.size(), h);
      }
    }
    h = Fnv1a("|", 1, h);
  }
  return h;
}

}  // namespace zvb
