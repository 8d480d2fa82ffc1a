// The four workloads and the request loops they share.
#ifndef LMKG_PERFBENCH_WORKLOADS_H_
#define LMKG_PERFBENCH_WORKLOADS_H_

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "harness.h"
#include "query/query.h"
#include "serving/estimator_service.h"

namespace perfbench {

void RunEstimateMiss(const Params& params, RunOutput* out);
void RunEstimateHot(const Params& params, RunOutput* out);
void RunPlanStream(const Params& params, RunOutput* out);
void RunRefreshUnderLoad(const Params& params, RunOutput* out);

/// A served estimate kept for the correctness check: which query of the
/// working set, and the value the service returned.
struct Served {
  uint32_t query = 0;
  double value = 0.0;
};

/// Open loop: requests arrive as a Poisson process at `rate_qps` for
/// `seconds`, each for a uniformly drawn query of the working set, and
/// are issued by a pool of `clients` threads making blocking Estimate
/// calls. Every request is timed from its SCHEDULED arrival, so a stall
/// that delays later requests counts against them; a client sleeps
/// (never spins) until an arrival is due.
struct OpenLoopConfig {
  double rate_qps = 1000.0;
  double seconds = 1.0;
  size_t clients = 1;
  uint64_t seed = 1;
};

struct OpenLoopResult {
  Latencies latency;  // scheduled arrival -> completion
  WindowedLatencies windowed{1.0, 1.0};  // the same, by arrival window
  Latencies call;     // the Estimate call alone
  Latencies late;     // scheduled arrival -> issue (generator lateness)
  uint64_t issued = 0;
  uint64_t nonfinite = 0;
  uint64_t backlog_max = 0;  // arrivals due but not yet issued, at worst
  uint64_t backlog_end = 0;  // ... over the last 1% of the rung
  double achieved_qps = 0.0;
  double seconds = 0.0;  // first scheduled arrival to last completion
  double cpu_s = 0.0;
  std::vector<Served> served;

  /// Whether the generator kept up: the backlog did not grow.
  bool KeptUp() const;
  /// Adds a later run at the same rate (its backlog_end wins).
  void Append(const OpenLoopResult& later);
};

OpenLoopResult RunOpenLoop(lmkg::serving::EstimatorService* service,
                           const std::vector<lmkg::query::Query>& set,
                           const OpenLoopConfig& config, Tracer* tracer);

/// Open-loop harness metrics of the traced run.
void ReportOpenLoopHarness(const OpenLoopResult& result, Report* report);

/// trace.*: the reconciliation and the tracing overhead. The per-layer
/// costs (`explained_us` per operation: the replayed layer calls, plus on
/// plan-stream the planner's own traced self time) must explain the
/// untraced end-to-end mean (`untraced_mean_us`) to within
/// kReconcileTolerance; the unexplained share is reported either way, and
/// flagged as unreconciled beyond the tolerance. The overhead is the
/// traced mean of the same operation against the untraced one.
void ReportReconciliation(double untraced_mean_us, double explained_us,
                          double traced_mean_us, uint64_t samples,
                          Report* report);

/// serving.* counters of a Stats() snapshot: hit rate with its base,
/// batch fill with its base, stale evictions and the model epoch.
void ReportServingStats(const lmkg::serving::ServingStatsSnapshot& stats,
                        Report* report);

/// Median and 95th percentile q-error of served estimates vs labels.
std::pair<double, double> QErrorP50P95(const std::vector<double>& served,
                                       const std::vector<double>& truth);

}  // namespace perfbench

#endif  // LMKG_PERFBENCH_WORKLOADS_H_
