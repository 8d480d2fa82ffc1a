// refresh-under-load: open-loop reads at one fixed rate against
// AdaptiveLmkg replicas while ModelLifecycle::RunOnce cycles, fed
// deterministic executor truths, retrain a combo, swap it into the
// replicas, persist it to the model store and advance the epoch; then
// repeated cold restarts from the store.
#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "core/adaptive.h"
#include "core/single_pattern.h"
#include "layers.h"
#include "serving/feedback_collector.h"
#include "serving/model_lifecycle.h"
#include "setup.h"
#include "store/model_store.h"
#include "store/replica_attach.h"
#include "store/store_cache.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

using lmkg::core::AdaptiveLmkg;
using lmkg::query::Query;
using lmkg::query::Topology;
using lmkg::util::StrFormat;
using Combo = AdaptiveLmkg::Combo;

namespace {

constexpr const char* kTenant = "serve";

void RemoveTree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      const std::string path = dir + "/" + name;
      if (::unlink(path.c_str()) != 0) RemoveTree(path);
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

Combo ComboOf(const Query& q) {
  return Combo{lmkg::query::ClassifyTopology(q), static_cast<int>(q.size())};
}

// Declared in destruction-safe order: the lifecycle goes first, then the
// service, then everything they borrow.
struct RefreshState {
  std::unique_ptr<lmkg::rdf::Graph> graph;
  lmkg::core::AdaptiveLmkgConfig config;
  std::string store_dir;
  std::vector<lmkg::sampling::LabeledQuery> reads;
  std::vector<Query> read_queries;
  // Truths the lifecycle is fed, per combo, in feeding order.
  std::map<Combo, std::vector<lmkg::sampling::LabeledQuery>> truths;
  std::unique_ptr<AdaptiveLmkg> shadow;
  std::unique_ptr<lmkg::core::IndependenceEstimator> fallback;
  std::unique_ptr<lmkg::serving::FeedbackCollector> collector;
  std::unique_ptr<lmkg::store::ModelStore> store;
  lmkg::serving::ServiceConfig service_config;
  std::unique_ptr<lmkg::serving::EstimatorService> service;
  std::unique_ptr<lmkg::serving::ModelLifecycle> lifecycle;
};

void Die(const std::string& what, const lmkg::util::Status& status) {
  std::cerr << "perfbench: " << what << ": " << status.message() << "\n";
  std::exit(2);
}

std::unique_ptr<RefreshState> BuildRefreshState(const Params& params,
                                                SetupTimes* times) {
  auto s = std::make_unique<RefreshState>();
  int64_t start = NowNs();
  s->graph = MakeGraph(params);
  times->dataset_s = SecondsSince(start);

  start = NowNs();
  MixSpec mix;
  mix.star_max = mix.chain_max = 3;
  mix.tree_min = 1;  // no trees: the registry serves star/chain combos
  mix.tree_max = 0;
  s->reads = GenerateLabeled(*s->graph, mix, params.Count("read_per_combo"),
                             params.seed + 1);
  for (const auto& lq : s->reads) s->read_queries.push_back(lq.query);
  for (auto& lq : GenerateLabeled(*s->graph, mix,
                                  params.Count("truths_per_combo"),
                                  params.seed + 3))
    s->truths[Combo{lq.topology, lq.size}].push_back(std::move(lq));
  times->label_s = SecondsSince(start);

  start = NowNs();
  s->config.s_config = ModelConfig(params, params.seed);
  s->config.train_queries = params.Count("adaptive_train_queries");
  s->config.feedback_refresh_queries = params.Count("refresh_queries");
  // The pool stays fixed: every cycle is a feedback retrain of one combo.
  s->config.monitor.min_observations = 1u << 30;
  s->config.initial_combos = {{Topology::kStar, 2},
                              {Topology::kStar, 3},
                              {Topology::kChain, 2},
                              {Topology::kChain, 3}};
  s->config.seed = params.seed;
  s->shadow = std::make_unique<AdaptiveLmkg>(*s->graph, s->config);
  times->train_s = SecondsSince(start);

  start = NowNs();
  s->store_dir = params.out_dir + "/store-refresh";
  RemoveTree(s->store_dir);
  if (auto status = lmkg::store::ModelStore::Open(
          s->store_dir, lmkg::store::ToStoreArch(s->config), &s->store);
      !status.ok())
    Die("store open", status);
  for (const Combo& combo : s->shadow->ModelCombos()) {
    if (auto status = lmkg::store::WriteModelSegment(
            s->store.get(), kTenant, combo, s->shadow->FindModel(combo));
        !status.ok())
      Die("segment write", status);
  }
  if (auto status = s->store->Commit(); !status.ok()) Die("commit", status);
  std::ostringstream snapshot;
  if (auto status = s->shadow->Save(snapshot); !status.ok())
    Die("snapshot", status);
  auto factory =
      lmkg::serving::MakeAdaptiveReplicaFactory(*s->graph, s->config);
  std::vector<std::unique_ptr<lmkg::core::CardinalityEstimator>> replicas;
  for (size_t i = 0; i < params.Count("shards"); ++i)
    replicas.push_back(factory(snapshot.str()));
  s->fallback = std::make_unique<lmkg::core::IndependenceEstimator>(*s->graph);
  s->collector = std::make_unique<lmkg::serving::FeedbackCollector>(
      s->fallback.get(), lmkg::serving::FeedbackConfig{});
  s->service_config.cache_capacity = params.Count("cache_capacity");
  s->service = std::make_unique<lmkg::serving::EstimatorService>(
      std::move(replicas), s->service_config);
  lmkg::serving::ModelLifecycleConfig lifecycle_config;
  lifecycle_config.background = false;
  lifecycle_config.store = s->store.get();
  lifecycle_config.store_tenant = kTenant;
  lifecycle_config.feedback = s->collector.get();
  s->lifecycle = std::make_unique<lmkg::serving::ModelLifecycle>(
      s->service.get(), s->shadow.get(), factory, lifecycle_config);
  times->replica_s = SecondsSince(start);
  return s;
}

struct WindowResult {
  OpenLoopResult reads;
  std::vector<double> cycle_s;
  uint64_t cycles = 0, retrained = 0, feedback_pairs = 0, persisted = 0;
  double seconds = 0.0;

  void Append(const WindowResult& later) {
    reads.Append(later.reads);
    cycle_s.insert(cycle_s.end(), later.cycle_s.begin(), later.cycle_s.end());
    cycles += later.cycles;
    retrained += later.retrained;
    feedback_pairs += later.feedback_pairs;
    persisted += later.persisted;
    seconds += later.seconds;
  }
};

// Reads at a fixed rate for `seconds` while this thread runs a lifecycle
// cycle every cycle_gap_ms after the previous one ends; cycle k feeds
// pairs_per_cycle truths of combo k mod 4, so every cycle retrains,
// swaps, persists and advances the epoch. A cycle that does not is a
// failed operation.
WindowResult RunWindow(RefreshState* s, const Params& params, double seconds,
                       uint64_t* next_cycle, Tracer* tracer,
                       PhaseCount* cycles_phase) {
  WindowResult result;
  OpenLoopConfig config;
  config.rate_qps = params.Num("read_rate");
  config.seconds = seconds;
  config.clients = params.Count("clients");
  config.seed = params.seed + 10 + *next_cycle;
  std::atomic<bool> reads_done{false};
  const int64_t start = NowNs();
  std::thread reader([&] {
    result.reads = RunOpenLoop(s->service.get(), s->read_queries, config,
                               tracer);
    reads_done.store(true, std::memory_order_release);
  });
  TraceBuffer* trace = tracer == nullptr ? nullptr : tracer->NewBuffer();
  const size_t pairs = params.Count("pairs_per_cycle");
  const int64_t gap_ns =
      static_cast<int64_t>(params.Num("cycle_gap_ms") * 1e6);
  std::vector<Combo> combos;
  for (const auto& [combo, unused] : s->truths) combos.push_back(combo);
  while (!reads_done.load(std::memory_order_acquire)) {
    const uint64_t k = (*next_cycle)++;
    const auto& pool = s->truths[combos[k % combos.size()]];
    for (size_t i = 0; i < pairs; ++i) {
      const auto& lq = pool[(k / combos.size() * pairs + i) % pool.size()];
      s->collector->RecordTruth(lq.query, lq.cardinality);
    }
    const int64_t cycle_start = NowNs();
    lmkg::serving::LifecycleReport report;
    {
      ScopedSpan span(trace, SpanName::kRunOnce, k);
      report = s->lifecycle->RunOnce();
    }
    result.cycle_s.push_back(SecondsSince(cycle_start));
    ++cycles_phase->attempted;
    if (!report.swapped || !report.persisted ||
        report.adapt.updated.size() != 1)
      ++cycles_phase->failed;
    ++result.cycles;
    result.retrained +=
        report.adapt.updated.size() + report.adapt.created.size();
    result.feedback_pairs += report.feedback_pairs;
    result.persisted += report.persisted ? 1 : 0;
    const int64_t resume = NowNs() + gap_ns;
    while (!reads_done.load(std::memory_order_acquire) && NowNs() < resume)
      SleepUntilNs(std::min(resume, NowNs() + 5000000));
  }
  reader.join();
  result.seconds = SecondsSince(start);
  return result;
}

struct ColdStart {
  double open_ms = 0.0, attach_ms = 0.0, first_ms = 0.0, total_ms = 0.0;
};

}  // namespace

void RunRefreshUnderLoad(const Params& params, RunOutput* out) {
  Report& report = out->report;
  std::unique_ptr<RefreshState> s = RepeatSetup<RefreshState>(
      &report,
      [&](SetupTimes* times) { return BuildRefreshState(params, times); });

  // Warm the read path (scratch buffers, cache) before any window.
  OpenLoopConfig warm;
  warm.rate_qps = params.Num("read_rate");
  warm.seconds = kWarmupSeconds;
  warm.clients = params.Count("clients");
  warm.seed = params.seed + 5;
  (void)RunOpenLoop(s->service.get(), s->read_queries, warm, nullptr);

  PhaseCount& reads_phase = out->Phase("reads");
  PhaseCount& cycles_phase = out->Phase("refresh-cycles");
  auto account = [&](const WindowResult& w) {
    reads_phase.attempted += w.reads.issued;
    reads_phase.failed += w.reads.nonfinite;
  };
  uint64_t next_cycle = 0;
  std::unique_ptr<Tracer> tracer;
  WindowResult window;
  WindowResult untraced;  // the traced run's untraced half
  lmkg::serving::ServingStatsSnapshot untraced_stats;
  if (!params.trace) {
    // As on estimate-miss, the bounded p50 is the Estimate call's, as an
    // interquartile mean over segments with fresh reader threads.
    std::vector<double> p50;
    for (size_t k = 0; k < kSegments; ++k) {
      const WindowResult part =
          RunWindow(s.get(), params,
                    params.seconds / static_cast<double>(kSegments),
                    &next_cycle, nullptr, &cycles_phase);
      account(part);
      p50.push_back(part.reads.call.PercentileUs(50));
      window.Append(part);
    }
    report.Set("p50_us", InterquartileMean(p50), "us");
    report.Set("ops_per_s", 1.0 / Median(window.cycle_s), "1/s");
  } else {
    s->service->ResetStats();
    untraced = RunWindow(s.get(), params, params.seconds / 2, &next_cycle,
                         nullptr, &cycles_phase);
    untraced_stats = s->service->Stats();
    account(untraced);
    report.Set("request.p99_us",
               untraced.reads.windowed.MedianPercentileUs(99), "us");
    s->service->ResetStats();
    tracer = std::make_unique<Tracer>(kTraceSpansPerThread);
    window = RunWindow(s.get(), params, params.seconds / 2, &next_cycle,
                       tracer.get(), &cycles_phase);
    account(window);
    ReportOpenLoopHarness(window.reads, &report);
  }
  const auto stats = s->service->Stats();
  ReportServingStats(stats, &report);
  report.Set("serving.lifecycle_cycle_s", Median(window.cycle_s), "s");
  report.Set("serving.lifecycle_models_retrained",
             static_cast<double>(window.retrained), "count");
  report.Set("serving.lifecycle_feedback_pairs",
             static_cast<double>(window.feedback_pairs), "count");
  report.Set("serving.lifecycle_persisted",
             static_cast<double>(window.persisted), "count");
  report.Note(StrFormat(
      "reads at %.0f/s: n=%llu Estimate call p50 %.2f us | from scheduled "
      "arrival p50 %.2f us p99 %.2f us (median of %zu windows %.2f us) "
      "p%.2f %.2f us, generator late p99 %.2f us, backlog max %llu | %llu "
      "refresh cycles, median %.4f s, epoch %llu, %llu stale cache entries "
      "evicted",
      params.Num("read_rate"),
      static_cast<unsigned long long>(window.reads.issued),
      window.reads.call.PercentileUs(50),
      window.reads.latency.PercentileUs(50),
      window.reads.latency.PercentileUs(99), window.reads.windowed.windows(),
      window.reads.windowed.MedianPercentileUs(99),
      window.reads.latency.TailPercentile(),
      window.reads.latency.PercentileUs(
          window.reads.latency.TailPercentile()),
      window.reads.late.PercentileUs(99),
      static_cast<unsigned long long>(window.reads.backlog_max),
      static_cast<unsigned long long>(window.cycles), Median(window.cycle_s),
      static_cast<unsigned long long>(stats.model_epoch),
      static_cast<unsigned long long>(stats.cache_stale_evictions)));

  // Post-refresh: the live service's estimates of every labeled read are
  // the pre-restart estimates, and their q-error.
  std::vector<double> served, truth;
  for (const auto& lq : s->reads) {
    served.push_back(s->service->Estimate(lq.query));
    truth.push_back(lq.cardinality);
  }
  const auto [p50, p95] = QErrorP50P95(served, truth);
  report.Set("core.qerror_p50", p50, "ratio");
  report.Set("core.qerror_p95", p95, "ratio");

  // Cold restarts: open the store, attach a fresh replica, serve. Every
  // restarted replica must estimate every read exactly as the service
  // did before the restart.
  PhaseCount& restart_phase = out->Phase("cold-restart");
  lmkg::core::AdaptiveLmkgConfig replica_config = s->config;
  replica_config.initial_combos.clear();
  TraceBuffer* trace = tracer == nullptr ? nullptr : tracer->NewBuffer();
  std::vector<ColdStart> starts;
  std::unique_ptr<lmkg::store::ModelStore> store;
  std::unique_ptr<lmkg::store::StoreCache> cache;
  std::unique_ptr<AdaptiveLmkg> replica;
  for (size_t r = 0; r < params.Count("restarts"); ++r) {
    replica.reset();
    cache.reset();
    store.reset();
    ColdStart cold;
    int64_t t = NowNs();
    {
      ScopedSpan span(trace, SpanName::kStoreOpen, r);
      if (auto status = lmkg::store::ModelStore::Open(
              s->store_dir, lmkg::store::ToStoreArch(replica_config), &store);
          !status.ok())
        Die("store reopen", status);
    }
    cold.open_ms = static_cast<double>(NowNs() - t) / 1e6;
    t = NowNs();
    {
      ScopedSpan span(trace, SpanName::kAttach, r);
      cache = std::make_unique<lmkg::store::StoreCache>(
          *store, lmkg::store::StoreCache::Options{});
      replica = std::make_unique<AdaptiveLmkg>(*s->graph, replica_config);
      if (auto status =
              lmkg::store::AttachReplica(cache.get(), kTenant, replica.get());
          !status.ok())
        Die("attach", status);
    }
    cold.attach_ms = static_cast<double>(NowNs() - t) / 1e6;
    t = NowNs();
    double first = 0.0;
    {
      ScopedSpan span(trace, SpanName::kFirstEstimate, r);
      first = replica->EstimateCardinality(s->read_queries[0]);
    }
    cold.first_ms = static_cast<double>(NowNs() - t) / 1e6;
    cold.total_ms = cold.open_ms + cold.attach_ms + cold.first_ms;
    starts.push_back(cold);
    for (size_t i = 0; i < s->read_queries.size(); ++i) {
      ++restart_phase.attempted;
      const double value =
          i == 0 ? first : replica->EstimateCardinality(s->read_queries[i]);
      if (!(value == served[i]) || !std::isfinite(value))
        ++restart_phase.failed;
    }
  }
  auto median_of = [&](double ColdStart::*field) {
    std::vector<double> values;
    for (const ColdStart& c : starts) values.push_back(c.*field);
    return Median(values);
  };
  report.Set("store.open_ms", median_of(&ColdStart::open_ms), "ms");
  report.Set("store.attach_ms", median_of(&ColdStart::attach_ms), "ms");
  report.Set("store.first_estimate_ms", median_of(&ColdStart::first_ms),
             "ms");
  report.Set("store.coldstart_ms", median_of(&ColdStart::total_ms), "ms");
  report.Set("store.mapped_bytes", static_cast<double>(cache->MappedBytes()),
             "bytes");
  report.Set("store.resident_bytes",
             static_cast<double>(cache->ResidentBytes()), "bytes");
  report.Note(StrFormat("cold restart (median of %zu): open %.3f ms, attach "
                        "%.3f ms, first estimate %.3f ms, total %.3f ms",
                        starts.size(), median_of(&ColdStart::open_ms),
                        median_of(&ColdStart::attach_ms),
                        median_of(&ColdStart::first_ms),
                        median_of(&ColdStart::total_ms)));

  if (params.trace) {
    // Layer replays over the read stream, on the restarted (now fully
    // hydrated) replica: one model per combo, weighted by its share.
    std::vector<const Query*> stream;
    for (size_t i = 0; i < 20000; ++i)
      stream.push_back(&s->read_queries[i % s->read_queries.size()]);
    std::map<Combo, ReplayGroup> by_combo;
    for (const Query& q : s->read_queries) {
      ReplayGroup& group = by_combo[ComboOf(q)];
      group.model = replica->FindModel(ComboOf(q));
      group.queries.push_back(q);
      group.weight = static_cast<double>(group.queries.size());
    }
    std::vector<ReplayGroup> groups;
    for (auto& [combo, group] : by_combo)
      if (group.model != nullptr) groups.push_back(std::move(group));
    const LayerCosts costs = ReplayLayers(
        stream, groups, s->service_config, s->service->num_shards(), trace);
    ReportLayerCosts(costs, &report);
    ReportServingCall(window.reads.call, ExplainedCallNs(costs, stats, 1, 1),
                      &report);
    ReportReconciliation(untraced.reads.call.MeanUs(),
                         ExplainedCallNs(costs, untraced_stats, 1, 1) / 1e3,
                         window.reads.call.MeanUs(), window.reads.issued,
                         &report);
    size_t calls = 0;
    const int64_t t = NowNs();
    while (NowNs() - t < static_cast<int64_t>(kReplaySeconds * 1e9)) {
      ScopedSpan span(trace, SpanName::kReplayAdaptive);
      for (const Query& q : s->read_queries)
        (void)replica->EstimateCardinality(q);
      calls += s->read_queries.size();
    }
    report.Set("core.adaptive_estimate_us",
               static_cast<double>(NowNs() - t) / 1e3 /
                   static_cast<double>(calls),
               "us");
    if (!tracer->WriteJsonLines(params.out_dir +
                                "/trace-refresh-under-load.jsonl"))
      report.Note("could not write the span file");
  }
  replica.reset();
  cache.reset();
  store.reset();
  s.reset();
  RemoveTree(params.out_dir + "/store-refresh");
  report.Set("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace perfbench
