#include "layers.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace zvb {
namespace {

struct Interval {
  double begin;
  double end;
};

double Num(const zv::Json& span, const char* key) {
  const zv::Json* v = span.Find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

std::string Name(const zv::Json& span) {
  const zv::Json* v = span.Find("name");
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

const zv::Json::Array* Children(const zv::Json& span) {
  const zv::Json* v = span.Find("children");
  return v != nullptr && v->is_array() ? &v->array() : nullptr;
}

/// Length of the union of `v` clipped to [lo, hi].
double Covered(std::vector<Interval> v, double lo, double hi) {
  for (Interval& i : v) {
    i.begin = std::max(i.begin, lo);
    i.end = std::min(i.end, hi);
  }
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double total = 0;
  double cur_begin = 0;
  double cur_end = -1;
  bool open = false;
  for (const Interval& i : v) {
    if (i.end <= i.begin) continue;
    if (!open || i.begin > cur_end) {
      if (open) total += cur_end - cur_begin;
      cur_begin = i.begin;
      cur_end = i.end;
      open = true;
    } else {
      cur_end = std::max(cur_end, i.end);
    }
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

/// The module that runs the code inside a span of the given name.
Layer LayerOf(const std::string& name, bool* known) {
  *known = true;
  if (name == "query" || name == "queue_wait" || name == "cache_lookup") {
    return Layer::kServer;
  }
  if (name == "Flush" || name == "FetchBatch" || name == "SharedScanPass" ||
      name == "ChunkScanPass") {
    return Layer::kEngine;
  }
  if (name == "ScoreOp" || name == "ReduceOp") return Layer::kTasks;
  if (name == "execute" || name == "FetchOp" || name == "MaterializeOp" ||
      name == "OutputOp") {
    return Layer::kZql;
  }
  *known = false;
  return Layer::kZql;
}

int Track(const zv::Json& span) {
  return static_cast<int>(Num(span, "track"));
}

/// Charges `span` and its subtree. `async` holds the intervals of sibling
/// spans on other tracks (the pipelined fetch thread): a coordinator span
/// blocked while they run is waiting, not working, so that overlap is
/// booked as fetch wait instead of the span's own layer.
void Walk(const zv::Json& span, bool is_root, const std::vector<Interval>& async,
          LayerTotals* totals, std::vector<Interval>* named) {
  const std::string name = Name(span);
  const double begin = Num(span, "start_ms");
  const double end = begin + Num(span, "dur_ms");
  std::vector<Interval> kids;
  std::vector<Interval> kids_async;
  const zv::Json::Array* children = Children(span);
  if (children != nullptr) {
    for (const zv::Json& child : *children) {
      const double cb = Num(child, "start_ms");
      const Interval iv{cb, cb + Num(child, "dur_ms")};
      kids.push_back(iv);
      if (Track(child) != 0) kids_async.push_back(iv);
    }
    for (const zv::Json& child : *children) {
      Walk(child, false, Track(child) == 0 ? kids_async : std::vector<Interval>{},
           totals, named);
    }
  }
  const double self = (end - begin) - Covered(kids, begin, end);
  double busy = self;
  if (!async.empty()) {
    std::vector<Interval> both = kids;
    both.insert(both.end(), async.begin(), async.end());
    busy = (end - begin) - Covered(std::move(both), begin, end);
    totals->fetch_wait_ms += self - busy;
  }
  bool known = false;
  const Layer layer = LayerOf(name, &known);
  if (!known) totals->unknown.insert(name);
  totals->Charge(layer, busy);
  if (name == "MaterializeOp") totals->materialize_ms += self;
  if (name == "queue_wait") totals->queue_wait_ms.push_back(end - begin);
  if (!is_root && name != "execute") named->push_back({begin, end});
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kApi: return "api";
    case Layer::kServer: return "server";
    case Layer::kZql: return "zql";
    case Layer::kEngine: return "engine";
    case Layer::kTasks: return "tasks";
  }
  return "?";
}

double AddServiceTrace(const zv::Json& root, LayerTotals* totals) {
  if (!root.is_object()) return 0;
  std::vector<Interval> named;
  Walk(root, true, {}, totals, &named);
  const double begin = Num(root, "start_ms");
  const double dur = Num(root, "dur_ms");
  totals->root_ms += dur;
  totals->unattributed_ms += dur - Covered(std::move(named), begin, begin + dur);
  return dur;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace zvb
