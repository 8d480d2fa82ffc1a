// Per-layer costs of a served estimate, measured from outside by
// replaying the workload's own queries through each layer's public call:
// query::ComputeFingerprint, serving::QueryCache, the model's
// QueryEncoder and LmkgS::EstimateCardinalityBatch at B = 1 and B = 64.
#ifndef LMKG_PERFBENCH_LAYERS_H_
#define LMKG_PERFBENCH_LAYERS_H_

#include <vector>

#include "core/lmkg_s.h"
#include "harness.h"
#include "query/query.h"
#include "serving/estimator_service.h"

namespace perfbench {

/// Mean cost of one call per query, nanoseconds.
struct LayerCosts {
  double fingerprint_ns = 0.0;
  double cache_ns = 0.0;        // QueryCache::Lookup (+ Insert on a miss)
  double encode_b1_ns = 0.0;
  double encode_b64_ns = 0.0;   // per query of a 64-query batch
  double core_b1_ns = 0.0;      // encode + forward, B = 1
  double core_b64_ns = 0.0;     // per query of a 64-query batch

  /// Per-query model cost (encode + forward) at mean batch fill `fill`,
  /// from a fixed-plus-marginal fit through the B = 1 and B = 64 points.
  double CorePerQueryNs(double fill) const;
};

/// Queries one model serves, and their share of the workload's requests.
struct ReplayGroup {
  lmkg::core::LmkgS* model = nullptr;
  std::vector<lmkg::query::Query> queries;
  double weight = 1.0;
};

/// Replays `stream` (the workload's requests, in order) through the
/// fingerprint and a standalone cache sized like one serving shard's
/// slice of `config`, and each group through its model's encoder and
/// batch estimate. Each measurement repeats for kReplaySeconds; every
/// timed pass is one span on `trace` (may be null).
LayerCosts ReplayLayers(const std::vector<const lmkg::query::Query*>& stream,
                        const std::vector<ReplayGroup>& groups,
                        const lmkg::serving::ServiceConfig& config,
                        size_t num_shards, TraceBuffer* trace);

/// query.fingerprint_ns, serving.cache_lookup_ns, encoding.encode_ns,
/// core.estimate_b1_us, core.estimate_b64_ns_per_query and the derived
/// nn.forward_* metrics.
void ReportLayerCosts(const LayerCosts& costs, Report* report);

/// What the replayed layer costs explain of one serving call carrying
/// `queries_per_call` queries, nanoseconds: each query's fingerprint and
/// cache probe, plus, for the observed miss share, the model's encode and
/// forward at the observed batch fill. A bulk call's model work is split
/// over `parallel_shards` shards that compute at the same time.
double ExplainedCallNs(const LayerCosts& costs,
                       const lmkg::serving::ServingStatsSnapshot& stats,
                       double queries_per_call, double parallel_shards);

/// serving.call_* and serving.residual_us: the call span's percentiles,
/// and what remains of its mean once `explained_ns` (ExplainedCallNs) is
/// taken out: ring wait, batch assembly, wake-up.
void ReportServingCall(const Latencies& call, double explained_ns,
                       Report* report);

}  // namespace perfbench

#endif  // LMKG_PERFBENCH_LAYERS_H_
