/// \file layers.h
/// \brief Per-layer attribution of traced requests, and the summary
/// statistics the harness reports.
///
/// A traced request yields two span sets: the harness's own spans around
/// the wire path (decode, ExecuteRequest, encode) and the service's span
/// tree from QueryResponse::trace. A span's *self time* is its duration
/// minus the part of its interval that its children cover; each span name
/// is charged to the src/ module that runs it.

#ifndef ZVB_LAYERS_H_
#define ZVB_LAYERS_H_

#include <array>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"

namespace zvb {

enum class Layer { kApi, kServer, kZql, kEngine, kTasks };
inline constexpr size_t kNumLayers = 5;
const char* LayerName(Layer layer);

/// Self times summed over the traced requests.
struct LayerTotals {
  std::array<double, kNumLayers> self_ms{};
  /// Σ service-root durations, and the part of them no named span below
  /// the root covers (the `execute` wrapper does not count as covering).
  double root_ms = 0;
  double unattributed_ms = 0;
  /// Self time of MaterializeOp spans (routing, and in the pipelined
  /// schedule the wait for the fetch thread's results).
  double materialize_ms = 0;
  /// Time coordinator spans spent blocked while fetch-thread spans ran;
  /// not charged to any layer (the fetch spans already are).
  double fetch_wait_ms = 0;
  /// queue_wait span durations, one per executed (queued) request.
  std::vector<double> queue_wait_ms;
  /// Span names this file does not know (charged to zql).
  std::set<std::string> unknown;

  void Charge(Layer layer, double ms) {
    self_ms[static_cast<size_t>(layer)] += ms;
  }
};

/// Charges every span of one service trace tree (the JSON form of
/// EncodeTraceSpan) to its layer; time a coordinator span spends waiting
/// on the fetch thread goes to fetch_wait_ms instead. Returns the root span's duration (0 for
/// a malformed tree).
double AddServiceTrace(const zv::Json& root, LayerTotals* totals);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

}  // namespace zvb

#endif  // ZVB_LAYERS_H_
