// estimate-miss (open loop over a working set far larger than the
// cache) and estimate-hot (closed loop over a Zipf-skewed working set
// that fits in it), plus the request loops and reporting they share
// with refresh-under-load.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "layers.h"
#include "query/fingerprint.h"
#include "setup.h"
#include "util/math.h"
#include "util/random.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

using lmkg::query::Query;
using lmkg::serving::EstimatorService;
using lmkg::util::StrFormat;

// Served estimates kept per client and loop for the reference check (every
// kCheckEvery-th, up to this many): enough to catch a serving-path fault,
// and a fixed amount of memory whatever the throughput.
constexpr size_t kMaxChecks = 4096;

// estimate-miss splits its window: the reference rung of the ladder gets
// this share, the closed-loop capacity phase (which gives the bounded
// figures) the next, and the other rungs the rest, evenly. Half the
// window for the bounded figures makes them steady; a fifth for the
// reference rung gives its printed figures well over 10 samples beyond
// p99 in every window.
constexpr double kReferenceShare = 0.2;
constexpr double kCapacityShare = 0.5;
// One capacity-phase client: the miss path with no second caller to
// contend with.
constexpr size_t kCapacityClients = 1;

bool OpenLoopResult::KeptUp() const {
  return backlog_end <= std::max<uint64_t>(8, issued / 100);
}

void OpenLoopResult::Append(const OpenLoopResult& later) {
  latency.Merge(later.latency);
  windowed.Append(later.windowed);
  call.Merge(later.call);
  late.Merge(later.late);
  issued += later.issued;
  nonfinite += later.nonfinite;
  backlog_max = std::max(backlog_max, later.backlog_max);
  backlog_end = later.backlog_end;
  seconds += later.seconds;
  achieved_qps = static_cast<double>(issued) / seconds;
  cpu_s += later.cpu_s;
  served.insert(served.end(), later.served.begin(), later.served.end());
}

OpenLoopResult RunOpenLoop(EstimatorService* service,
                           const std::vector<Query>& set,
                           const OpenLoopConfig& config, Tracer* tracer) {
  // The whole schedule is drawn before the clock starts.
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(config.rate_qps * config.seconds));
  std::vector<int64_t> due(n);
  std::vector<uint32_t> pick(n);
  lmkg::util::Pcg32 rng(config.seed, /*stream=*/0x0be1);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / config.rate_qps * 1e9;
    due[i] = static_cast<int64_t>(t);
    pick[i] = rng.UniformInt(static_cast<uint32_t>(set.size()));
  }
  std::vector<int64_t> issued_at(n, 0);

  struct Client {
    Latencies latency, call, late;
    WindowedLatencies windowed;
    uint64_t nonfinite = 0;
    std::vector<Served> served;
  };
  std::vector<Client> clients(
      config.clients,
      Client{{}, {}, {}, WindowedLatencies(config.seconds, kWindowSeconds),
             0, {}});
  for (Client& c : clients) {
    c.latency.Reserve();
    c.windowed.Reserve();
    c.call.Reserve();
    c.late.Reserve();
    c.served.reserve(kMaxChecks);
  }
  std::atomic<size_t> next{0};
  const double cpu_start = ProcessCpuSeconds();
  const int64_t t0 = NowNs() + 1000000;  // 1 ms for the threads to start
  std::vector<std::thread> threads;
  for (size_t c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      UseTightTimerSlack();
      Client& me = clients[c];
      TraceBuffer* trace =
          tracer == nullptr ? nullptr : tracer->NewBuffer();
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        const int64_t due_ns = t0 + due[i];
        int64_t start = NowNs();
        if (start < due_ns) {
          SleepUntilNs(due_ns);
          start = NowNs();
        }
        if (trace != nullptr) {
          trace->Begin(SpanName::kRequest, i, due_ns);
          trace->Begin(SpanName::kGeneratorWait, i, due_ns);
          trace->End(start);
          trace->Begin(SpanName::kEstimate, i, start);
        }
        const double value = service->Estimate(set[pick[i]]);
        const int64_t end = NowNs();
        if (trace != nullptr) {
          trace->End(end);
          trace->End(end);
        }
        issued_at[i] = start - t0;
        me.latency.Add(end - due_ns);
        me.windowed.Add(due[i], end - due_ns);
        me.call.Add(end - start);
        me.late.Add(start - due_ns);
        if (!std::isfinite(value)) ++me.nonfinite;
        if (i % kCheckEvery == 0 && me.served.size() < kMaxChecks)
          me.served.push_back({pick[i], value});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const int64_t finished = NowNs() - t0;

  OpenLoopResult result;
  result.issued = n;
  result.cpu_s = ProcessCpuSeconds() - cpu_start;
  result.windowed = WindowedLatencies(config.seconds, kWindowSeconds);
  for (Client& c : clients) {
    result.latency.Merge(c.latency);
    result.windowed.Merge(c.windowed);
    result.call.Merge(c.call);
    result.late.Merge(c.late);
    result.nonfinite += c.nonfinite;
    result.served.insert(result.served.end(), c.served.begin(),
                         c.served.end());
  }
  // Backlog when request i was issued: arrivals already due, minus the
  // i requests issued before it.
  const size_t tail_from = n - std::max<size_t>(1, n / 100);
  for (size_t i = 0; i < n; ++i) {
    const size_t due_by = static_cast<size_t>(
        std::upper_bound(due.begin(), due.end(), issued_at[i]) - due.begin());
    const uint64_t backlog = due_by > i + 1 ? due_by - i - 1 : 0;
    result.backlog_max = std::max(result.backlog_max, backlog);
    if (i >= tail_from)
      result.backlog_end = std::max(result.backlog_end, backlog);
  }
  result.seconds = static_cast<double>(finished) / 1e9;
  result.achieved_qps = static_cast<double>(n) / result.seconds;
  return result;
}

void ReportOpenLoopHarness(const OpenLoopResult& result, Report* report) {
  report->Set("harness.gen_late_p99_us", result.late.PercentileUs(99), "us");
  report->Set("harness.backlog_max", static_cast<double>(result.backlog_max),
              "count");
  report->Set("proc.cpu_us_per_op",
              result.cpu_s * 1e6 / static_cast<double>(result.issued), "us");
}

void ReportReconciliation(double untraced_mean_us, double explained_us,
                          double traced_mean_us, uint64_t samples,
                          Report* report) {
  const double unexplained =
      (untraced_mean_us - explained_us) / untraced_mean_us;
  report->Set("trace.overhead_share",
              (traced_mean_us - untraced_mean_us) / untraced_mean_us,
              "share");
  report->Set("trace.unexplained_share", unexplained, "share");
  report->Set("trace.samples", static_cast<double>(samples), "count");
  report->Note(StrFormat(
      "reconciliation: the per-layer costs explain %.3f us of the untraced "
      "end-to-end mean %.3f us per operation; unexplained %+.1f%% "
      "(tolerance %.0f%%): %s",
      explained_us, untraced_mean_us, unexplained * 100,
      kReconcileTolerance * 100,
      std::abs(unexplained) <= kReconcileTolerance ? "reconciled"
                                                   : "UNRECONCILED"));
}

std::pair<double, double> QErrorP50P95(const std::vector<double>& served,
                                       const std::vector<double>& truth) {
  std::vector<double> qerrors;
  for (size_t i = 0; i < served.size(); ++i)
    qerrors.push_back(lmkg::util::QError(served[i], truth[i]));
  std::sort(qerrors.begin(), qerrors.end());
  if (qerrors.empty()) return {0.0, 0.0};
  auto rank = [&](double p) {
    const size_t r = static_cast<size_t>(
        std::ceil(p * static_cast<double>(qerrors.size())));
    return qerrors[std::clamp<size_t>(r, 1, qerrors.size()) - 1];
  };
  return {rank(0.50), rank(0.95)};
}

void ReportServingStats(const lmkg::serving::ServingStatsSnapshot& stats,
                        Report* report) {
  const uint64_t lookups = stats.cache_hits + stats.cache_misses;
  report->Set("serving.cache_hit_rate",
              lookups == 0 ? 0.0
                           : static_cast<double>(stats.cache_hits) /
                                 static_cast<double>(lookups),
              "ratio");
  report->Set("serving.cache_lookups", static_cast<double>(lookups), "count");
  report->Set("serving.batch_fill_mean", stats.mean_batch_fill, "count");
  report->Set("serving.batches", static_cast<double>(stats.batches), "count");
  report->Set("serving.stale_evictions",
              static_cast<double>(stats.cache_stale_evictions), "count");
  report->Set("serving.epoch", static_cast<double>(stats.model_epoch),
              "count");
}

namespace {

// Checks served estimates bit for bit against the reference replica's
// serial EstimateCardinality. A served value that differs is explained,
// and counted as reused instead of failed, when it is the reference
// estimate of another working-set query with the same fingerprint: the
// result cache keys on the fingerprint, and composite queries equal up
// to pattern order share one while SG-Encoding, which encodes composites
// in first-occurrence order, gives them different estimates.
class ReferenceCheck {
 public:
  explicit ReferenceCheck(ServingState* state) : state_(state) {
    lmkg::query::FingerprintScratch scratch;
    for (size_t i = 0; i < state->queries.size(); ++i)
      by_fingerprint_[lmkg::query::ComputeFingerprint(state->queries[i],
                                                       &scratch)]
          .push_back(static_cast<uint32_t>(i));
  }

  void Check(uint32_t query, double served, PhaseCount* phase) {
    ++phase->attempted;
    if (served == Reference(query) && std::isfinite(served)) return;
    for (uint32_t other : by_fingerprint_[lmkg::query::ComputeFingerprint(
             state_->queries[query])]) {
      if (other != query && served == Reference(other)) {
        ++reused_;
        return;
      }
    }
    ++phase->failed;
  }

  void Check(const std::vector<Served>& served, PhaseCount* phase) {
    for (const Served& s : served) Check(s.query, s.value, phase);
  }

  uint64_t reused() const { return reused_; }

 private:
  double Reference(uint32_t query) {
    return state_->reference->EstimateCardinality(state_->queries[query]);
  }

  ServingState* state_;
  std::unordered_map<lmkg::query::Fingerprint, std::vector<uint32_t>,
                     lmkg::query::FingerprintHasher>
      by_fingerprint_;
  uint64_t reused_ = 0;
};

// The q-error of the service's estimates of the labeled queries (served
// through the service, untimed; the labeled queries lead the working
// set), each also checked against the reference. Also reports the
// reused-estimate count of the whole run.
void ReportQErrorAndReuse(ServingState* state, ReferenceCheck* check,
                          RunOutput* out) {
  PhaseCount& phase = out->Phase("qerror-labeled");
  std::vector<double> served, truth;
  for (size_t i = 0; i < state->labeled.size(); ++i) {
    const double value = state->service->Estimate(state->labeled[i].query);
    check->Check(static_cast<uint32_t>(i), value, &phase);
    served.push_back(value);
    truth.push_back(state->labeled[i].cardinality);
  }
  const auto [p50, p95] = QErrorP50P95(served, truth);
  out->report.Set("core.qerror_p50", p50, "ratio");
  out->report.Set("core.qerror_p95", p95, "ratio");
  out->report.Set("serving.reused_estimates",
                  static_cast<double>(check->reused()), "count");
  out->report.Note(StrFormat(
      "qerror over %zu labeled queries: p50 %.3f p95 %.3f | %llu checked "
      "estimates differ from the reference only as a cached estimate of a "
      "fingerprint-equal, differently ordered query",
      served.size(), p50, p95,
      static_cast<unsigned long long>(check->reused())));
}

// Closed loop: each client sends its next blocking Estimate as soon as
// the previous one returns, walking its own pick sequence over `set`,
// until `seconds` have passed.
struct ClosedLoopResult {
  Latencies latency;
  uint64_t completed = 0;
  uint64_t nonfinite = 0;
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::vector<Served> served;

  /// Adds a later run of the same loop.
  void Append(const ClosedLoopResult& later) {
    latency.Merge(later.latency);
    completed += later.completed;
    nonfinite += later.nonfinite;
    seconds += later.seconds;
    cpu_s += later.cpu_s;
    served.insert(served.end(), later.served.begin(), later.served.end());
  }
};

ClosedLoopResult RunClosedLoop(EstimatorService* service,
                               const std::vector<Query>& set,
                               const std::vector<std::vector<uint32_t>>& picks,
                               double seconds, Tracer* tracer) {
  std::vector<ClosedLoopResult> per_client(picks.size());
  for (ClosedLoopResult& c : per_client) {
    c.latency.Reserve();
    c.served.reserve(kMaxChecks);
  }
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < picks.size(); ++c) {
    threads.emplace_back([&, c] {
      ClosedLoopResult& me = per_client[c];
      TraceBuffer* trace = tracer == nullptr ? nullptr : tracer->NewBuffer();
      const std::vector<uint32_t>& mine = picks[c];
      uint64_t i = 0;
      for (int64_t now = NowNs(); now < deadline; ++i) {
        const uint32_t q = mine[i % mine.size()];
        if (trace != nullptr) trace->Begin(SpanName::kEstimate, i, now);
        const double value = service->Estimate(set[q]);
        const int64_t end = NowNs();
        if (trace != nullptr) trace->End(end);
        me.latency.Add(end - now);
        if (!std::isfinite(value)) ++me.nonfinite;
        if (i % kCheckEvery == 0 && me.served.size() < kMaxChecks)
          me.served.push_back({q, value});
        now = end;
      }
      me.completed = i;
    });
  }
  for (std::thread& thread : threads) thread.join();
  ClosedLoopResult total;
  total.seconds = SecondsSince(start);
  total.cpu_s = ProcessCpuSeconds() - cpu_start;
  for (ClosedLoopResult& c : per_client) {
    total.latency.Merge(c.latency);
    total.completed += c.completed;
    total.nonfinite += c.nonfinite;
    total.served.insert(total.served.end(), c.served.begin(), c.served.end());
  }
  return total;
}

// Per-client pick sequences: `draw` gives the next query index.
template <typename Draw>
std::vector<std::vector<uint32_t>> MakePicks(size_t clients, uint64_t seed,
                                             const Draw& draw) {
  constexpr size_t kPicks = size_t{1} << 16;
  std::vector<std::vector<uint32_t>> picks(clients);
  for (size_t c = 0; c < clients; ++c) {
    lmkg::util::Pcg32 rng(seed + 100 + c, /*stream=*/0x2f);
    for (size_t i = 0; i < kPicks; ++i) picks[c].push_back(draw(rng));
  }
  return picks;
}

// Replays the working set, in request order, through each layer.
LayerCosts ReplayServingLayers(ServingState* state, const Params& params,
                               Tracer* tracer) {
  std::vector<const Query*> stream;
  lmkg::util::Pcg32 rng(params.seed, /*stream=*/0x4e9);
  const size_t n = std::min<size_t>(state->queries.size() * 2, 20000);
  for (size_t i = 0; i < n; ++i)
    stream.push_back(&state->queries[rng.UniformInt(
        static_cast<uint32_t>(state->queries.size()))]);
  ReplayGroup group;
  group.model = state->reference.get();
  group.queries.assign(state->queries.begin(),
                       state->queries.begin() +
                           static_cast<std::ptrdiff_t>(std::min<size_t>(
                               state->queries.size(), 4096)));
  return ReplayLayers(stream, {group}, state->service_config,
                      state->service->num_shards(),
                      tracer == nullptr ? nullptr : tracer->NewBuffer());
}

// Interpolates the offered rate at which the windowed p99 crosses
// `limit_us` between the highest rung that met the limit with no growing
// backlog and the rung above it (log p99, linear rate). The top rung
// passing reports its achieved rate; no rung passing reports 0.
double SloRate(const std::vector<double>& rates,
               const std::vector<OpenLoopResult>& rungs, double limit_us) {
  auto p99 = [&](size_t i) {
    return rungs[i].windowed.MedianPercentileUs(99);
  };
  size_t last_pass = rungs.size();
  for (size_t i = 0; i < rungs.size(); ++i)
    if (rungs[i].KeptUp() && p99(i) <= limit_us) last_pass = i;
  if (last_pass == rungs.size()) return 0.0;
  if (last_pass + 1 == rungs.size()) return rungs.back().achieved_qps;
  const size_t next = last_pass + 1;
  const double lo = std::log(p99(last_pass));
  const double hi = std::log(std::max(p99(next), limit_us * 1.0001));
  const double frac = std::clamp((std::log(limit_us) - lo) / (hi - lo), 0.0,
                                 1.0);
  return rates[last_pass] + frac * (rates[next] - rates[last_pass]);
}

MixSpec WorkingMix(const Params& params) {
  MixSpec mix = TrainMix(params);
  mix.tree_max = static_cast<int>(params.Num("set_tree_max"));
  return mix;
}

// The labeled queries (exact q-error) plus unlabeled ones up to
// `set_size`, all distinct by fingerprint.
std::unique_ptr<ServingState> SetUpWorkingSet(const Params& params,
                                              Report* report,
                                              size_t set_size) {
  return RepeatSetup<ServingState>(report, [&](SetupTimes* times) {
    return BuildServingState(params, times, [&](ServingState* s) {
      s->labeled = GenerateLabeled(*s->graph, WorkingMix(params),
                                   params.Count("labeled_per_combo"),
                                   params.seed + 1);
      for (const auto& lq : s->labeled) s->queries.push_back(lq.query);
      const size_t labeled = s->queries.size();
      std::vector<Query> rest = GenerateUnlabeled(
          *s->graph, WorkingMix(params),
          set_size > labeled ? set_size - labeled : 0, params.seed + 2,
          s->queries);
      for (Query& q : rest) s->queries.push_back(std::move(q));
    });
  });
}

}  // namespace

void RunEstimateMiss(const Params& params, RunOutput* out) {
  Report& report = out->report;
  std::unique_ptr<ServingState> state =
      SetUpWorkingSet(params, &report, params.Count("working_set"));
  EstimatorService* service = state->service.get();
  ReferenceCheck check(state.get());
  const std::vector<double> rates = params.List("rates");
  const size_t ref = params.Count("reference_rung");
  const double limit_us = params.Num("p99_limit_us");
  OpenLoopConfig config;
  config.clients = params.Count("clients");
  config.seed = params.seed + 3;
  config.rate_qps = rates[ref];
  config.seconds = kWarmupSeconds;
  (void)RunOpenLoop(service, state->queries, config, nullptr);

  PhaseCount& phase = out->Phase("open-loop");
  if (!params.trace) {
    service->ResetStats();
    // Every open-loop figure rides on how promptly the machine wakes
    // sleeping threads, which on shared machines swings by a fifth or
    // more from run to run, so the ladder is printed, not bounded. The
    // bounded p50 and throughput come from a closed loop over the same
    // working set with kCapacityClients clients: the miss path's cost.
    const auto picks = MakePicks(kCapacityClients, params.seed, [&](auto& rng) {
      return rng.UniformInt(static_cast<uint32_t>(state->queries.size()));
    });
    ClosedLoopResult capacity;
    std::vector<double> capacity_qps, capacity_p50;
    for (size_t k = 0; k < kSegments; ++k) {
      const ClosedLoopResult part = RunClosedLoop(
          service, state->queries, picks,
          params.seconds * kCapacityShare / static_cast<double>(kSegments),
          nullptr);
      capacity_qps.push_back(static_cast<double>(part.completed) /
                             part.seconds);
      capacity_p50.push_back(part.latency.PercentileUs(50));
      capacity.Append(part);
    }
    phase.attempted += capacity.completed;
    phase.failed += capacity.nonfinite;
    check.Check(capacity.served, &out->Phase("reference"));
    const auto stats = service->Stats();
    const double qps = InterquartileMean(capacity_qps);
    const double p50 = InterquartileMean(capacity_p50);
    report.Set("p50_us", p50, "us");
    report.Set("ops_per_s", qps, "1/s");
    std::string segment_p50s;
    for (double value : capacity_p50)
      segment_p50s += StrFormat(" %.2f", value);
    report.Note(StrFormat(
        "capacity (closed loop, %zu clients, interquartile mean of %zu "
        "segments): %.0f estimates/s, p50 %.2f us (segments:%s) | hit rate "
        "%.4f fill %.2f",
        kCapacityClients, kSegments, qps, p50,
        segment_p50s.c_str(), stats.cache_hit_rate, stats.mean_batch_fill));
    // Read before the ladder: its overloaded rungs keep hundreds of
    // thousands of raw tail timings, which would make this figure the
    // benchmark's memory rather than the library's.
    report.Set("peak_rss_mb", PeakRssMiB(), "MiB");

    std::vector<OpenLoopResult> rungs;
    std::vector<double> ref_call_p50;
    for (size_t i = 0; i < rates.size(); ++i) {
      service->ResetStats();
      config.rate_qps = rates[i];
      const double rung_seconds =
          params.seconds *
          (i == ref ? kReferenceShare
                    : (1.0 - kReferenceShare - kCapacityShare) /
                          static_cast<double>(rates.size() - 1));
      // The reference rung runs in segments with fresh client threads,
      // the others in one piece.
      const size_t parts = i == ref ? kSegments : 1;
      config.seconds = rung_seconds / static_cast<double>(parts);
      rungs.emplace_back();
      for (size_t k = 0; k < parts; ++k) {
        config.seed = params.seed + 10 + i * 100 + k;
        const OpenLoopResult part =
            RunOpenLoop(service, state->queries, config, nullptr);
        if (i == ref) ref_call_p50.push_back(part.call.PercentileUs(50));
        rungs.back().Append(part);
      }
      const OpenLoopResult& r = rungs.back();
      const auto stats = service->Stats();
      phase.attempted += r.issued;
      phase.failed += r.nonfinite;
      check.Check(r.served, &out->Phase("reference"));
      report.Note(StrFormat(
          "rung %zu: offered %.0f/s achieved %.0f/s n=%llu p50 %.2f us "
          "p99 %.2f us (median of %zu windows %.2f us) p%.2f %.2f us | "
          "generator late p99 %.2f us, backlog max %llu end %llu | hit rate "
          "%.4f fill %.2f | %s",
          i, rates[i], r.achieved_qps,
          static_cast<unsigned long long>(r.latency.count()),
          r.latency.PercentileUs(50), r.latency.PercentileUs(99),
          r.windowed.windows(), r.windowed.MedianPercentileUs(99),
          r.latency.TailPercentile(),
          r.latency.PercentileUs(r.latency.TailPercentile()),
          r.late.PercentileUs(99),
          static_cast<unsigned long long>(r.backlog_max),
          static_cast<unsigned long long>(r.backlog_end),
          stats.cache_hit_rate, stats.mean_batch_fill,
          !r.KeptUp() ? "backlog grew"
          : r.windowed.MedianPercentileUs(99) > limit_us
              ? "misses the p99 limit"
              : "meets the p99 limit"));
    }
    report.Note(StrFormat(
        "reference rung: Estimate call p50 %.2f us (median of %zu "
        "segments); lowest rung: estimate p50 from scheduled arrival %.2f us "
        "(n=%llu)",
        Median(ref_call_p50), ref_call_p50.size(),
        rungs[0].latency.PercentileUs(50),
        static_cast<unsigned long long>(rungs[0].latency.count())));
    report.Note(StrFormat("SLO rate (windowed p99 <= %.0f us, no growing "
                          "backlog): %.0f/s",
                          limit_us, SloRate(rates, rungs, limit_us)));
  } else {
    config.rate_qps = rates[ref];
    config.seconds = params.seconds / 2;
    config.seed = params.seed + 10 + ref;
    service->ResetStats();
    const OpenLoopResult untraced =
        RunOpenLoop(service, state->queries, config, nullptr);
    const auto untraced_stats = service->Stats();
    report.Set("request.p99_us", untraced.windowed.MedianPercentileUs(99),
               "us");
    service->ResetStats();
    Tracer tracer(kTraceSpansPerThread);
    const OpenLoopResult traced =
        RunOpenLoop(service, state->queries, config, &tracer);
    const auto stats = service->Stats();
    for (const OpenLoopResult* r : {&untraced, &traced}) {
      phase.attempted += r->issued;
      phase.failed += r->nonfinite;
      check.Check(r->served, &out->Phase("reference"));
    }
    ReportServingStats(stats, &report);
    ReportOpenLoopHarness(traced, &report);
    const LayerCosts costs =
        ReplayServingLayers(state.get(), params, &tracer);
    ReportLayerCosts(costs, &report);
    ReportServingCall(traced.call, ExplainedCallNs(costs, stats, 1, 1),
                      &report);
    // The service's own share of a request is the Estimate call; the
    // generator's wait before it is reported as harness.gen_late_p99_us.
    ReportReconciliation(
        untraced.call.MeanUs(),
        ExplainedCallNs(costs, untraced_stats, 1, 1) / 1e3,
        traced.call.MeanUs(), traced.issued, &report);
    if (!tracer.WriteJsonLines(params.out_dir + "/trace-estimate-miss.jsonl"))
      report.Note("could not write the span file");
    report.Set("peak_rss_mb", PeakRssMiB(), "MiB");
  }
  ReportQErrorAndReuse(state.get(), &check, out);
}

void RunEstimateHot(const Params& params, RunOutput* out) {
  Report& report = out->report;
  std::unique_ptr<ServingState> state =
      SetUpWorkingSet(params, &report, params.Count("hot_set"));
  ReferenceCheck check(state.get());
  // Requests are Zipf-skewed over the hot set in a seed-dependent rank
  // order.
  EstimatorService* service = state->service.get();
  const size_t clients = params.Count("clients");
  const lmkg::util::ZipfDistribution zipf(state->queries.size(),
                                          params.Num("zipf_s"));
  std::vector<uint32_t> rank_to_query(state->queries.size());
  for (size_t i = 0; i < rank_to_query.size(); ++i)
    rank_to_query[i] = static_cast<uint32_t>(i);
  lmkg::util::Pcg32 shuffle_rng(params.seed, /*stream=*/0x5af);
  shuffle_rng.Shuffle(&rank_to_query);
  const auto picks = MakePicks(clients, params.seed, [&](auto& rng) {
    return rank_to_query[zipf.Sample(rng)];
  });
  // Fill the cache: every hot query once.
  for (const Query& q : state->queries) (void)service->Estimate(q);

  auto run = [&](double seconds, Tracer* tracer) {
    return RunClosedLoop(service, state->queries, picks, seconds, tracer);
  };

  PhaseCount& phase = out->Phase("closed-loop");
  auto account = [&](const ClosedLoopResult& r) {
    phase.attempted += r.completed;
    phase.failed += r.nonfinite;
    check.Check(r.served, &out->Phase("reference"));
  };
  if (!params.trace) {
    service->ResetStats();
    ClosedLoopResult r;
    std::vector<double> p50, p99, qps;
    for (size_t k = 0; k < kSegments; ++k) {
      const ClosedLoopResult part =
          run(params.seconds / static_cast<double>(kSegments), nullptr);
      account(part);
      p50.push_back(part.latency.PercentileUs(50));
      p99.push_back(part.latency.PercentileUs(99));
      qps.push_back(static_cast<double>(part.completed) / part.seconds);
      r.Append(part);
    }
    const auto stats = service->Stats();
    report.Set("p50_us", InterquartileMean(p50), "us");
    report.Set("ops_per_s", InterquartileMean(qps), "1/s");
    report.Note(StrFormat(
        "closed loop, %zu clients, %zu segments: %llu estimates, p50 %.3f us "
        "p99 %.3f us (median of the segments' %.3f us) p%.2f %.3f us | hit "
        "rate %.4f fill %.2f",
        clients, kSegments, static_cast<unsigned long long>(r.completed),
        r.latency.PercentileUs(50), r.latency.PercentileUs(99), Median(p99),
        r.latency.TailPercentile(),
        r.latency.PercentileUs(r.latency.TailPercentile()),
        stats.cache_hit_rate, stats.mean_batch_fill));
  } else {
    service->ResetStats();
    const ClosedLoopResult untraced = run(params.seconds / 2, nullptr);
    const auto untraced_stats = service->Stats();
    account(untraced);
    report.Set("request.p99_us", untraced.latency.PercentileUs(99), "us");
    service->ResetStats();
    Tracer tracer(kTraceSpansPerThread);
    const ClosedLoopResult traced = run(params.seconds / 2, &tracer);
    account(traced);
    const auto stats = service->Stats();
    ReportServingStats(stats, &report);
    report.Set("proc.cpu_us_per_op",
               traced.cpu_s * 1e6 / static_cast<double>(traced.completed),
               "us");
    // The replay stream is the Zipf request stream itself.
    std::vector<const Query*> stream;
    for (size_t i = 0; i < 20000; ++i)
      stream.push_back(&state->queries[picks[0][i % picks[0].size()]]);
    ReplayGroup group;
    group.model = state->reference.get();
    group.queries = state->queries;
    const LayerCosts costs =
        ReplayLayers(stream, {group}, state->service_config,
                     service->num_shards(), tracer.NewBuffer());
    ReportLayerCosts(costs, &report);
    ReportServingCall(traced.latency, ExplainedCallNs(costs, stats, 1, 1),
                      &report);
    ReportReconciliation(untraced.latency.MeanUs(),
                         ExplainedCallNs(costs, untraced_stats, 1, 1) / 1e3,
                         traced.latency.MeanUs(), traced.completed, &report);
    if (!tracer.WriteJsonLines(params.out_dir + "/trace-estimate-hot.jsonl"))
      report.Note("could not write the span file");
  }
  ReportQErrorAndReuse(state.get(), &check, out);
  report.Set("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace perfbench
