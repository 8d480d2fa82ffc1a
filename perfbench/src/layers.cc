#include "layers.h"

#include <algorithm>
#include <span>

#include "nn/tensor.h"
#include "query/fingerprint.h"
#include "serving/query_cache.h"

namespace perfbench {

using lmkg::query::Query;

namespace {

// Repeats `pass` (which returns the number of calls it made) for
// kReplaySeconds; returns nanoseconds per call. Each pass is one span.
template <typename Pass>
double TimePerCall(TraceBuffer* trace, SpanName name, const Pass& pass) {
  pass();  // warm: scratch buffers, first-touch pages
  uint64_t calls = 0;
  const int64_t start = NowNs();
  int64_t now = start;
  while (now - start < static_cast<int64_t>(kReplaySeconds * 1e9)) {
    ScopedSpan span(trace, name);
    calls += pass();
    now = NowNs();
  }
  return calls == 0 ? 0.0
                    : static_cast<double>(now - start) /
                          static_cast<double>(calls);
}

// Keeps replayed results observable so no call is optimized away.
volatile double g_sink = 0.0;

}  // namespace

double LayerCosts::CorePerQueryNs(double fill) const {
  // cost(B) / B = fixed / B + marginal, through the B = 1 and B = 64
  // points.
  const double marginal = (64.0 * core_b64_ns - core_b1_ns) / 63.0;
  const double fixed = core_b1_ns - marginal;
  return fixed / std::max(fill, 1.0) + marginal;
}

LayerCosts ReplayLayers(const std::vector<const Query*>& stream,
                        const std::vector<ReplayGroup>& groups,
                        const lmkg::serving::ServiceConfig& config,
                        size_t num_shards, TraceBuffer* trace) {
  LayerCosts costs;
  std::vector<lmkg::query::Fingerprint> fps(stream.size());
  lmkg::query::FingerprintScratch scratch;
  costs.fingerprint_ns =
      TimePerCall(trace, SpanName::kReplayFingerprint, [&] {
        for (size_t i = 0; i < stream.size(); ++i)
          fps[i] = lmkg::query::ComputeFingerprint(*stream[i], &scratch);
        return stream.size();
      });

  // The union of the service's per-shard cache slices: same total
  // capacity, same entries per independently locked sub-shard.
  lmkg::serving::QueryCacheConfig cache_config;
  cache_config.capacity = config.cache_capacity;
  cache_config.shards = config.cache_shards * num_shards;
  lmkg::serving::QueryCache cache(cache_config);
  costs.cache_ns =
      TimePerCall(trace, SpanName::kReplayCacheLookup, [&] {
        double value = 0.0;
        for (const lmkg::query::Fingerprint& fp : fps)
          if (!cache.Lookup(fp, 0, &value)) cache.Insert(fp, 0, 1.0);
        g_sink = value;
        return fps.size();
      });

  double total_weight = 0.0;
  for (const ReplayGroup& group : groups) total_weight += group.weight;
  lmkg::nn::SparseRows sparse;
  lmkg::nn::Matrix dense;
  std::vector<double> out(64);
  for (const ReplayGroup& group : groups) {
    if (group.queries.empty() || total_weight <= 0.0) continue;
    const double share = group.weight / total_weight;
    const auto& encoder = group.model->encoder();
    const std::span<const Query> queries(group.queries);
    auto encode = [&](std::span<const Query> batch) {
      if (!encoder.EncodeBatchSparse(batch, &sparse))
        encoder.EncodeBatch(batch, &dense);
    };
    // Runs `fn` over the group in chunks of `batch` queries.
    auto chunks = [&](size_t batch, const auto& fn) {
      for (size_t i = 0; i < queries.size(); i += batch)
        fn(queries.subspan(i, std::min(batch, queries.size() - i)));
      return queries.size();
    };
    costs.encode_b1_ns +=
        share * TimePerCall(trace, SpanName::kReplayEncode, [&] {
          return chunks(1, encode);
        });
    costs.encode_b64_ns +=
        share * TimePerCall(trace, SpanName::kReplayEncode, [&] {
          return chunks(64, encode);
        });
    auto estimate = [&](std::span<const Query> batch) {
      group.model->EstimateCardinalityBatch(
          batch, std::span<double>(out).first(batch.size()));
      g_sink = out[0];
    };
    costs.core_b1_ns +=
        share * TimePerCall(trace, SpanName::kReplayCoreB1, [&] {
          return chunks(1, estimate);
        });
    costs.core_b64_ns +=
        share * TimePerCall(trace, SpanName::kReplayCoreB64, [&] {
          return chunks(64, estimate);
        });
  }
  return costs;
}

void ReportLayerCosts(const LayerCosts& costs, Report* report) {
  report->Set("query.fingerprint_ns", costs.fingerprint_ns, "ns");
  report->Set("serving.cache_lookup_ns", costs.cache_ns, "ns");
  report->Set("encoding.encode_ns", costs.encode_b1_ns, "ns");
  report->Set("core.estimate_b1_us", costs.core_b1_ns / 1e3, "us");
  report->Set("core.estimate_b64_ns_per_query", costs.core_b64_ns, "ns");
  report->Set("nn.forward_b1_ns", costs.core_b1_ns - costs.encode_b1_ns,
              "ns");
  report->Set("nn.forward_b64_ns_per_query",
              costs.core_b64_ns - costs.encode_b64_ns, "ns");
}

double ExplainedCallNs(const LayerCosts& costs,
                       const lmkg::serving::ServingStatsSnapshot& stats,
                       double queries_per_call, double parallel_shards) {
  const double lookups =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  const double miss_share =
      lookups == 0.0 ? 1.0 : static_cast<double>(stats.cache_misses) / lookups;
  const double fill = stats.batches == 0 ? 1.0 : stats.mean_batch_fill;
  return queries_per_call *
         (costs.fingerprint_ns + costs.cache_ns +
          miss_share * costs.CorePerQueryNs(fill) / parallel_shards);
}

void ReportServingCall(const Latencies& call, double explained_ns,
                       Report* report) {
  report->Set("serving.call_p50_us", call.PercentileUs(50), "us");
  report->Set("serving.call_p99_us", call.PercentileUs(99), "us");
  report->Set("serving.residual_us", call.MeanUs() - explained_ns / 1e3,
              "us");
}

}  // namespace perfbench
