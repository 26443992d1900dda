/// \file matrix_queries.h
/// \brief The query shapes the identity matrices run — pipeline_test.cc,
/// shard_test.cc, batch_test.cc — kept in one place so the chunk-scan
/// reference test (shard_test.cc) checks every statement they issue.

#ifndef ZV_TESTS_MATRIX_QUERIES_H_
#define ZV_TESTS_MATRIX_QUERIES_H_

#include <string>
#include <utility>
#include <vector>

#include "viz/visualization.h"
#include "zql/executor.h"

namespace zv::testing {

/// pipeline_test's mix: plain fetches, a D task over a named set, a
/// reducer, a representative clustering, a user-input sketch, and derived
/// rows — one of each execution shape the operators support.
struct PipelineCase {
  const char* name;
  const char* zql;
  bool needs_sketch = false;  ///< needs MakeSketch() registered as "q"
};

inline constexpr PipelineCase kPipelineCases[] = {
    {"table_5_1",
     "f1 | 'year' | 'sales' | v1 <- P | location='US' | "
     "bar.(y=agg('sum')) | v2 <- argany_v1[t > 0] T(f1)\n"
     "f2 | 'year' | 'sales' | v1 | location='UK' | bar.(y=agg('sum')) | v3 "
     "<- argany_v1[t < 0] T(f2)\n"
     "*f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | | "
     "bar.(y=agg('sum')) |"},
    {"table_5_2",
     "f1 | 'country' | 'sales' | v1 <- P | year=2010 | bar.(y=agg('sum')) "
     "|\n"
     "f2 | 'country' | 'sales' | v1 | year=2015 | bar.(y=agg('sum')) | v2 "
     "<- argmax_v1[k=4] D(f1, f2)\n"
     "*f3 | 'country' | 'profit' | v2 | year=2010 | bar.(y=agg('sum')) |\n"
     "*f4 | 'country' | 'profit' | v2 | year=2015 | bar.(y=agg('sum')) |"},
    {"reducer_and_representative",
     "f1 | 'year' | 'sales' | v1 <- P | location='US' | | v2 <- R(2, v1, "
     "f1)\n"
     "f2 | 'year' | 'sales' | v2 | location='US' | |\n"
     "f3 | 'year' | 'sales' | v1 | location='US' | | v3 <- argmax_v1[k=2] "
     "min_v2 D(f3, f2)\n"
     "*f4 | 'year' | 'sales' | v3 | location='US' | |"},
    {"sketch_and_derived",
     "-q | | | | | |\n"
     "f1 | 'year' | 'sales' | v1 <- P | location='US' | | o1 <- "
     "argmin_v1[k=3] D(f1, q)\n"
     "f2 | 'year' | 'sales' | o1 | location='US' | |\n"
     "*f3=f2.range | 'year' | 'sales' | | | |",
     /*needs_sketch=*/true},
};

/// shard_test's shapes: a predicate fetch over a named set, a task
/// pipeline with reuse, and a no-WHERE full-table aggregation (the bitmap
/// fast path on the Roaring backend).
inline constexpr const char* kShardSetQuery =
    "f1 | 'year' | 'sales' | v1 <- P | location='US' | bar.(y=agg('sum')) "
    "| v2 <- argany_v1[t > 0] T(f1)\n"
    "f2 | 'year' | 'sales' | v1 | location='UK' | bar.(y=agg('sum')) | v3 "
    "<- argany_v1[t < 0] T(f2)\n"
    "*f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | | "
    "bar.(y=agg('sum')) |";
inline constexpr const char* kShardNoWhereQuery =
    "*f1 | 'year' | 'sales' | v1 <- 'location'.* | | bar.(y=agg('sum')) |";

/// batch_test's shapes, whose row selections can share a pass: different
/// predicates (union-able conjuncts), a no-WHERE full scan (the Roaring
/// bitmap fast path), a scored pipeline, and a binned numeric x axis.
inline constexpr const char* kBatchQueries[] = {
    "*f1 | 'year' | 'sales' | v1 <- 'product'.* | | bar.(y=agg('sum')) |",
    "*f1 | 'year' | 'profit' | v1 <- 'product'.* | location='US' | "
    "bar.(y=agg('sum')) |",
    "*f1 | 'year' | 'sales' | 'location'.'UK' | | line.(y=agg('avg')) |",
    "f1 | 'year' | 'sales' | v1 <- 'location'.* | sales > 100 | "
    "bar.(y=agg('sum')) | v2 <- argmax_v1[k=1] T(f1)\n"
    "*f2 | 'year' | 'profit' | v2 | | bar.(y=agg('sum')) |",
    "*f1 | 'sales' | 'profit' | v1 <- 'location'.* | | "
    "bar.(x=bin(50), y=agg('sum')) |",
};

/// The named set P: product0 .. product{n-1}.
inline zql::NamedSets MakeP(size_t n) {
  zql::NamedSets sets;
  std::vector<Value> products;
  for (size_t i = 0; i < n; ++i) {
    products.push_back(Value::Str("product" + std::to_string(i)));
  }
  sets.value_sets["P"] = {"product", std::move(products)};
  return sets;
}

/// The user-drawn input the sketch case registers as "q": a steeply
/// rising sales-by-year line.
inline Visualization MakeSketch() {
  Visualization v;
  v.x_attr = "year";
  v.y_attr = "sales";
  Series s;
  s.name = "sales";
  for (int i = 0; i < 10; ++i) {
    v.xs.push_back(Value::Int(2010 + i));
    s.ys.push_back(5.0 * i);
  }
  v.series.push_back(std::move(s));
  return v;
}

}  // namespace zv::testing

#endif  // ZV_TESTS_MATRIX_QUERIES_H_
