// The four benchmark workloads. Each is a fixed grid built from the seed and
// submitted from one process through a public src/ entry point; a pass runs
// the whole grid once, checks its simulated outputs, and returns the work it
// did plus a canonical text of those outputs (digested for the golden
// check and compared between untraced, traced and jobs=1/jobs=N runs).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corropt/corropt.h"
#include "fabric/topology.h"
#include "harness/fct.h"
#include "harness/stress.h"
#include "traffic/engine.h"

namespace lgbench {

using namespace lgsim;

struct Params {
  std::uint64_t seed = 1;
  unsigned jobs = 1;
  /// Multiplies the grid's run length (frames, trials, horizon). 1 is the
  /// benchmark size; the warm-up pass runs at kWarmSize.
  double size = 1.0;
};

inline constexpr double kWarmSize = 0.25;

/// What set-up builds from the seed before anything is timed: the grid
/// handed to the entry point and, for the workloads that run on the
/// paper-scale fabric, that fabric, which the checks and the work count read.
struct Inputs {
  Params params;
  std::vector<harness::StressConfig> stress;  // stress_grid
  std::vector<harness::FctConfig> testbed;    // testbed_fct
  std::vector<traffic::EngineConfig> arms;    // fabric_fct: CorrOpt-only, CorrOpt+LG
  corropt::DeploymentConfig deploy;           // deploy_year
  std::shared_ptr<const fabric::FabricTopology> fabric;  // fabric_fct, deploy_year
};

struct PassResult {
  double work = 0.0;          // frames / flows / trials / link-hours
  /// Host wall and process CPU seconds spent inside the src/ entry points
  /// (the benchmark's own checks and output formatting excluded).
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t attempted = 0; // cells whose outputs were checked
  std::int64_t failed = 0;    // cells that threw or failed a check
  std::vector<std::string> failures;
  std::string outputs;        // canonical simulated outputs
};

struct Workload {
  const char* name;
  const char* work_unit;  // what one unit of `work` is
  const char* rate_name;  // the end-to-end throughput metric's own name
  bool threaded;          // false: one single-threaded run per pass
  Inputs (*setup)(const Params&);
  /// Runs the whole grid once on inputs from setup() and checks it.
  PassResult (*pass)(const Inputs&);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// Grid builders and checkers, shared with the traced passes (layers.cc).
std::vector<harness::StressConfig> stress_cells(const Params& p);
std::vector<harness::FctConfig> testbed_cells(const Params& p);
traffic::EngineConfig fabric_arm(const Params& p, traffic::Scheme scheme);
corropt::DeploymentConfig deploy_config(const Params& p);

void check_stress(const std::vector<harness::StressConfig>& cells,
                  const std::vector<harness::StressResult>& res, PassResult& out);
void check_testbed(const std::vector<harness::FctConfig>& cells,
                   const std::vector<harness::FctResult>& res, PassResult& out);
void check_fabric(const traffic::TrafficResult& co, const traffic::TrafficResult& lg,
                  const fabric::FabricTopology& fabric, PassResult& out);
void check_deploy(const corropt::DeploymentResult& r, PassResult& out);

/// Cell label, e.g. "100G 1e-03 LG_NB" or "DCTCP 24387B LG".
std::string stress_label(const harness::StressConfig& c);
std::string testbed_label(const harness::FctConfig& c);

double median(std::vector<double> v);

/// Process CPU seconds (all threads) so far.
double cpu_seconds();

/// 64-bit FNV-1a, printed as 16 hex digits.
std::string digest(const std::string& text);

}  // namespace lgbench
