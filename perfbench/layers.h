// Traced passes: one per workload, each re-running the workload's grid with
// spans around every call into a layer and an obs collector installed, then
// deriving that workload's per-layer metrics.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace lgbench {

struct LayerResult {
  std::map<std::string, double> metrics;
  std::vector<std::unique_ptr<SpanLog>> logs;
  /// Checks of the traced pass: its simulated outputs must equal the
  /// untraced pass's, and every re-driven cell must reproduce the cell it
  /// re-drives.
  PassResult checks;
  /// Wall time of the traced counterpart of one untraced pass.
  double traced_wall_s = 0.0;
};

/// Runs workload `w`'s traced pass on `in`. `untraced_outputs` is the
/// canonical output text of an untraced pass on the same inputs.
LayerResult trace_layers(const Workload& w, const Inputs& in,
                         const std::string& untraced_outputs);

}  // namespace lgbench
