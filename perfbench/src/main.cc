// lmkg_perfbench: runs one workload against the lmkg library's
// public API and prints what it measured. Normally started by run.py,
// which builds it, passes the workload's parameters from
// workloads.json, and turns the last line into the benchmark's result.
//
//   lmkg_perfbench --workload=estimate-hot --seed=1 --seconds=10
//       --trace=0 --out_dir=DIR [workload parameters...]
//
// Output: "# " lines of notes (per-rung tables, reconciliation, phase
// counts), then one JSON line with every metric measured, the attempted
// and failed operation counts, and whether every check passed. Exits 1
// when any operation failed, 2 on a usage error.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "harness.h"
#include "util/flags.h"
#include "workloads.h"

namespace {

// A JSON string literal for the (plain ASCII) names this program emits.
std::string Quote(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  lmkg::util::Flags flags(argc, argv);
  perfbench::Params params(flags);
  params.workload = flags.GetString("workload", "");
  params.seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  params.seconds = flags.GetDouble("seconds", 0.0);
  params.trace = flags.GetInt("trace", 0) != 0;
  params.out_dir = flags.GetString("out_dir", ".");
  if (!flags.Has("seed") || params.seconds <= 0.0) {
    std::cerr << "usage: lmkg_perfbench --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --out_dir=DIR [params]\n";
    return 2;
  }
  ::mkdir(params.out_dir.c_str(), 0755);

  perfbench::RunOutput out;
  if (params.workload == "estimate-miss") {
    perfbench::RunEstimateMiss(params, &out);
  } else if (params.workload == "estimate-hot") {
    perfbench::RunEstimateHot(params, &out);
  } else if (params.workload == "plan-stream") {
    perfbench::RunPlanStream(params, &out);
  } else if (params.workload == "refresh-under-load") {
    perfbench::RunRefreshUnderLoad(params, &out);
  } else {
    std::cerr << "lmkg_perfbench: unknown workload '" << params.workload
              << "'\n";
    return 2;
  }

  uint64_t attempted = 0, failed = 0;
  for (const std::string& note : out.report.notes())
    std::cout << "# " << note << "\n";
  for (const perfbench::PhaseCount& phase : out.phases) {
    std::cout << "# phase " << phase.phase << ": attempted "
              << phase.attempted << ", failed " << phase.failed << "\n";
    attempted += phase.attempted;
    failed += phase.failed;
  }
  std::string metrics;
  for (const auto& metric : out.report.metrics()) {
    char value[64];
    if (std::isfinite(metric.value))
      std::snprintf(value, sizeof(value), "%.17g", metric.value);
    else
      std::snprintf(value, sizeof(value), "null");
    metrics += (metrics.empty() ? "" : ", ") + Quote(metric.name) +
               ": {\"value\": " + value + ", \"unit\": " +
               Quote(metric.unit) + "}";
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}
