// plan-stream: a closed loop of JoinPlanner::PlanQuery over a stream of
// distinct size 4-10 star, chain and composite queries, pricing through
// a batched ServingSource with the planner's memo kept across the
// stream.
#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <thread>
#include <utility>

#include "core/single_pattern.h"
#include "layers.h"
#include "planner/planner.h"
#include "query/executor.h"
#include "query/fingerprint.h"
#include "setup.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

using lmkg::planner::CardinalitySource;
using lmkg::planner::Plan;
using lmkg::query::Fingerprint;
using lmkg::query::Query;
using lmkg::util::StrFormat;

namespace {

// The benchmark's timing decorator around the planner's pricing source:
// counts calls and priced queries, and when traced wraps every bulk
// pricing call in a span and keeps the first queries it priced for the
// layer replays.
class TimedSource : public lmkg::planner::CardinalitySource {
 public:
  explicit TimedSource(lmkg::serving::EstimatorService* service)
      : inner_(service, /*batched=*/true) {}

  void Trace(TraceBuffer* trace, size_t keep) {
    trace_ = trace;
    keep_ = keep;
  }

  double EstimateOne(const Query& q) override {
    double out = 0.0;
    EstimateMany({&q, 1}, {&out, 1});
    return out;
  }

  void EstimateMany(std::span<const Query> queries,
                    std::span<double> out) override {
    if (trace_ != nullptr) {
      trace_->Begin(SpanName::kEstimateMany, calls_);
      const int64_t start = NowNs();
      inner_.EstimateMany(queries, out);
      const int64_t end = NowNs();
      trace_->End(end);
      call_.Add(end - start);
      for (size_t i = 0; i < queries.size() && priced_.size() < keep_; ++i)
        priced_.push_back(queries[i]);
    } else {
      inner_.EstimateMany(queries, out);
    }
    ++calls_;
    queries_ += queries.size();
  }

  uint64_t calls() const { return calls_; }
  uint64_t queries() const { return queries_; }
  const Latencies& call_latency() const { return call_; }
  const std::vector<Query>& priced() const { return priced_; }

 private:
  lmkg::planner::ServingSource inner_;
  TraceBuffer* trace_ = nullptr;
  size_t keep_ = 0;
  uint64_t calls_ = 0;
  uint64_t queries_ = 0;
  Latencies call_;
  std::vector<Query> priced_;
};

struct SavedPlan {
  size_t query = 0;
  Plan plan;
};

struct StreamResult {
  Latencies latency;
  uint64_t plans = 0;
  uint64_t considered = 0, priced = 0, memo_hits = 0, wraps = 0;
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::vector<SavedPlan> saved;

  /// Adds a later run that continued the stream.
  void Append(const StreamResult& later) {
    latency.Merge(later.latency);
    plans += later.plans;
    considered += later.considered;
    priced += later.priced;
    memo_hits += later.memo_hits;
    wraps += later.wraps;
    seconds += later.seconds;
    cpu_s += later.cpu_s;
    saved.insert(saved.end(), later.saved.begin(), later.saved.end());
  }
};

bool SamePlan(const Plan& a, const Plan& b) {
  if (!a.valid() || !std::isfinite(a.cost)) return false;
  if (a.root != b.root || !(a.cost == b.cost) ||
      a.nodes.size() != b.nodes.size())
    return false;
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    const auto& x = a.nodes[i];
    const auto& y = b.nodes[i];
    if (x.mask != y.mask || !(x.cardinality == y.cardinality) ||
        x.left != y.left || x.right != y.right || x.pattern != y.pattern)
      return false;
  }
  return true;
}

// Prices through a reference source, except the sub-queries given a
// value of their own.
class OverrideSource : public CardinalitySource {
 public:
  explicit OverrideSource(CardinalitySource* reference)
      : reference_(reference) {}

  /// Gives `q` its own value, unless it has one already; returns whether
  /// it did.
  bool Set(const Query& q, double value) {
    if (Find(q) != nullptr) return false;
    overrides_.push_back({q, value});
    return true;
  }

  double EstimateOne(const Query& q) override {
    double out = 0.0;
    EstimateMany({&q, 1}, {&out, 1});
    return out;
  }

  void EstimateMany(std::span<const Query> queries,
                    std::span<double> out) override {
    std::vector<Query> rest;
    std::vector<size_t> rest_index;
    for (size_t i = 0; i < queries.size(); ++i) {
      const double* value = Find(queries[i]);
      if (value != nullptr) {
        out[i] = *value;
      } else {
        rest.push_back(queries[i]);
        rest_index.push_back(i);
      }
    }
    std::vector<double> rest_out(rest.size());
    if (!rest.empty()) reference_->EstimateMany(rest, rest_out);
    for (size_t k = 0; k < rest.size(); ++k) out[rest_index[k]] = rest_out[k];
  }

 private:
  const double* Find(const Query& q) const {
    for (const auto& [sub, value] : overrides_)
      if (sub.num_vars == q.num_vars && sub.patterns == q.patterns)
        return &value;
    return nullptr;
  }

  CardinalitySource* reference_;
  std::vector<std::pair<Query, double>> overrides_;
};

// A pattern's predicate: its bound term, or 0 when it is a variable.
// Sub-plans with equal keys have equal multisets of these, which narrows
// the search for them to a few candidate sub-plans per query.
uint64_t PredicateKey(const lmkg::query::TriplePattern& pattern) {
  return pattern.p.bound() ? static_cast<uint64_t>(pattern.p.value) : 0;
}

// Checks sampled plans against the plan of a fresh planner over the
// reference source (a DirectSource on the service's weights).
//
// A served plan can differ from it for a known reason. The planner's memo
// keys a sub-plan by its subset fingerprint, the service's result cache
// by the fingerprint of the materialized sub-plan. Both sort patterns by
// a structural key, so composite sub-plans that are equal up to pattern
// order share a key. SG-Encoding encodes composites in first-occurrence
// order, though, so the model gives the two orders different estimates,
// and the one priced first in a pass of the stream serves both.
//
// A sub-plan's admissible estimates are the reference estimates of
// itself and of every sub-plan with the same memo or cache key in the
// same query or in a stream query planned earlier in the same pass (the
// memo and the cache start empty with each pass). A differing plan counts as reused only
// when that is proven:
//   1. each estimate in it is admissible for its sub-plan, and
//   2. a fresh planner choosing with those estimates, and with the
//      highest admissible estimate for each sub-plan of a plan that would
//      win instead, chooses exactly the served plan: the served plan is
//      the best one under some choice of admissible estimates.
// Anything else fails: a stale or wrong memo or cache entry, a key
// collision, or a serving path that prices a sub-plan differently from
// the model.
class PlanCheck {
 public:
  enum class Verdict { kSame, kReused, kFailed };

  PlanCheck(const std::vector<Query>& stream, CardinalitySource* reference)
      : stream_(stream), reference_(reference), keys_(stream.size()) {
    for (size_t j = 0; j < stream.size(); ++j) {
      for (const auto& pattern : stream[j].patterns)
        keys_[j].push_back(PredicateKey(pattern));
      std::sort(keys_[j].begin(), keys_[j].end());
    }
  }

  // `served` is the plan of stream query `index`, planned in a pass that
  // started at the head of the stream.
  Verdict Check(size_t index, const Plan& served) {
    const Query& q = stream_[index];
    lmkg::planner::JoinPlanner reference_planner(reference_);
    const Plan expected = reference_planner.PlanQuery(q);
    if (SamePlan(served, expected)) return Verdict::kSame;
    if (!served.valid() || !std::isfinite(served.cost)) return Verdict::kFailed;

    const uint64_t all = (uint64_t{1} << q.size()) - 1;
    OverrideSource source(reference_);
    std::vector<uint64_t> decided;
    for (const lmkg::planner::PlanNode& node : served.nodes) {
      if (node.pattern >= 0) continue;
      if ((node.mask & ~all) != 0 || std::popcount(node.mask) < 2)
        return Verdict::kFailed;
      decided.push_back(node.mask);
      // Pinned either way: another mask of the query can materialize to
      // the same sub-plan, which then has the same estimate.
      const Query sub = Materialize(index, node.mask);
      source.Set(sub, node.cardinality);
      if (node.cardinality == reference_->EstimateOne(sub)) continue;
      bool admissible = false;
      ForEachSameKey(index, node.mask, [&](double value) {
        admissible = value == node.cardinality;
        return admissible;
      });
      if (!admissible) return Verdict::kFailed;
    }
    // Each round raises the sub-plans of the plan that won instead to
    // their highest admissible estimate; a rival with nothing left to
    // raise fails.
    constexpr int kMaxRounds = 16;
    Plan rival = expected;
    for (int round = 0; round < kMaxRounds; ++round) {
      bool raised = false;
      for (const lmkg::planner::PlanNode& node : rival.nodes) {
        if (node.pattern >= 0 ||
            std::find(decided.begin(), decided.end(), node.mask) !=
                decided.end())
          continue;
        decided.push_back(node.mask);
        const Query sub = Materialize(index, node.mask);
        const double own = reference_->EstimateOne(sub);
        double highest = own;
        ForEachSameKey(index, node.mask, [&](double value) {
          highest = std::max(highest, value);
          return false;
        });
        if (highest != own && source.Set(sub, highest)) raised = true;
      }
      if (!raised && round > 0) return Verdict::kFailed;
      lmkg::planner::JoinPlanner replanner(&source);
      rival = replanner.PlanQuery(q);
      if (SamePlan(rival, served)) return Verdict::kReused;
    }
    return Verdict::kFailed;
  }

 private:
  // Sub-plan `mask` of stream query `j`.
  Query Materialize(size_t j, uint64_t mask) {
    Query sub;
    lmkg::planner::MaterializeSubquery(stream_[j], mask, &var_map_, &sub);
    return sub;
  }

  // The memo's key for sub-plan `mask` of `q` (the planner's own).
  Fingerprint MemoKey(const Query& q, uint64_t mask) {
    subset_.clear();
    for (size_t b = 0; b < q.size(); ++b)
      if ((mask >> b) & 1) subset_.push_back(static_cast<int>(b));
    return lmkg::query::ComputeSubsetFingerprint(q, subset_, &scratch_);
  }

  // Calls `visit` with the reference estimate of every sub-plan of the
  // stream queries from the head of the pass to `index` whose memo or
  // cache key equals that of sub-plan `mask` of query `index`, until
  // `visit` returns true.
  template <typename Visit>
  void ForEachSameKey(size_t index, uint64_t mask, const Visit& visit) {
    const Query& q = stream_[index];
    const Fingerprint memo_key = MemoKey(q, mask);
    const Fingerprint cache_key =
        lmkg::query::ComputeFingerprint(Materialize(index, mask), &scratch_);
    std::vector<uint64_t> want;
    for (size_t b = 0; b < q.size(); ++b)
      if ((mask >> b) & 1) want.push_back(PredicateKey(q.patterns[b]));
    std::sort(want.begin(), want.end());
    std::vector<uint64_t> candidates;
    for (size_t j = 0; j <= index; ++j) {
      if (!std::includes(keys_[j].begin(), keys_[j].end(), want.begin(),
                         want.end()))
        continue;
      candidates.clear();
      MasksWithKeys(stream_[j], want, &candidates);
      for (uint64_t m : candidates) {
        const Query sub = Materialize(j, m);
        if (MemoKey(stream_[j], m) != memo_key &&
            lmkg::query::ComputeFingerprint(sub, &scratch_) != cache_key)
          continue;
        if (visit(reference_->EstimateOne(sub))) return;
      }
    }
  }

  // Every mask of `q` whose patterns' predicate keys are the multiset
  // `want` (sorted).
  static void MasksWithKeys(const Query& q, const std::vector<uint64_t>& want,
                            std::vector<uint64_t>* out) {
    struct Run {
      size_t count;
      std::vector<int> patterns;
    };
    std::vector<Run> runs;
    for (size_t a = 0; a < want.size();) {
      size_t b = a;
      while (b < want.size() && want[b] == want[a]) ++b;
      Run run{b - a, {}};
      for (size_t k = 0; k < q.size(); ++k)
        if (PredicateKey(q.patterns[k]) == want[a])
          run.patterns.push_back(static_cast<int>(k));
      runs.push_back(std::move(run));
      a = b;
    }
    // Chooses `left` more patterns of run r, from its `from`-th on.
    auto choose = [&](auto& self, size_t r, size_t from, size_t left,
                      uint64_t mask) -> void {
      if (left == 0) {
        if (r + 1 == runs.size())
          out->push_back(mask);
        else
          self(self, r + 1, 0, runs[r + 1].count, mask);
        return;
      }
      for (size_t k = from; k + left <= runs[r].patterns.size(); ++k)
        self(self, r, k + 1, left - 1,
             mask | (uint64_t{1} << runs[r].patterns[k]));
    };
    if (!runs.empty()) choose(choose, 0, 0, runs[0].count, 0);
  }

  const std::vector<Query>& stream_;
  CardinalitySource* reference_;
  std::vector<std::vector<uint64_t>> keys_;  // sorted, per stream query
  lmkg::query::FingerprintScratch scratch_;
  std::vector<int> subset_;
  std::vector<int> var_map_;
};

// Plans the stream in order, from `*position` on, until `seconds` pass,
// and leaves `*position` at the next query. A stream that runs out starts
// over with the memo cleared and the service's cache invalidated, so a
// faster planner never plans against warmer state.
StreamResult PlanStream(const std::vector<Query>& stream,
                        lmkg::serving::EstimatorService* service,
                        lmkg::planner::JoinPlanner* planner,
                        double seconds, size_t* position,
                        TraceBuffer* trace) {
  StreamResult result;
  result.latency.Reserve();
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  size_t& i = *position;
  for (int64_t now = start; now < deadline; ++result.plans) {
    if (i == stream.size()) {
      i = 0;
      ++result.wraps;
      planner->ClearMemo();
      service->AdvanceEpoch();
    }
    if (trace != nullptr) trace->Begin(SpanName::kPlanQuery, i, now);
    const Plan& plan = planner->PlanQuery(stream[i]);
    const int64_t end = NowNs();
    if (trace != nullptr) trace->End(end);
    result.latency.Add(end - now);
    result.considered += plan.subplans_considered;
    result.priced += plan.subplans_priced;
    result.memo_hits += plan.memo_hits;
    if (result.plans % kCheckEvery == 0) result.saved.push_back({i, plan});
    ++i;
    now = end;
  }
  result.seconds = SecondsSince(start);
  result.cpu_s = ProcessCpuSeconds() - cpu_start;
  return result;
}

}  // namespace

void RunPlanStream(const Params& params, RunOutput* out) {
  Report& report = out->report;
  MixSpec mix;
  mix.star_min = mix.chain_min = mix.tree_min = 4;
  mix.star_max = static_cast<int>(params.Num("plan_star_max"));
  mix.chain_max = static_cast<int>(params.Num("plan_chain_max"));
  mix.tree_max = static_cast<int>(params.Num("plan_tree_max"));
  std::vector<Query> warm;
  std::unique_ptr<ServingState> state = RepeatSetup<ServingState>(
      &report, [&](SetupTimes* times) {
        return BuildServingState(params, times, [&](ServingState* s) {
          s->queries = GenerateUnlabeled(*s->graph, mix,
                                         params.Count("stream_size"),
                                         params.seed + 2);
          warm = GenerateUnlabeled(*s->graph, mix, 16, params.seed + 5,
                                   s->queries);
        });
      });
  lmkg::serving::EstimatorService* service = state->service.get();

  // Warm scratch buffers and pages with a throwaway planner on queries
  // outside the stream, then drop what that cached.
  {
    TimedSource source(service);
    lmkg::planner::JoinPlanner planner(&source);
    for (const Query& q : warm) (void)planner.PlanQuery(q);
    service->AdvanceEpoch();
  }

  // Correctness of sampled plans (PlanCheck).
  PhaseCount& phase = out->Phase("plan-stream");
  lmkg::core::IndependenceEstimator fallback(*state->graph);
  lmkg::planner::DirectSource direct(state->reference.get(), &fallback);
  PlanCheck plan_check(state->queries, &direct);
  uint64_t reused = 0;
  auto check = [&](const StreamResult& r) {
    phase.attempted += r.plans;
    PhaseCount& ref = out->Phase("reference");
    for (const SavedPlan& saved : r.saved) {
      ++ref.attempted;
      switch (plan_check.Check(saved.query, saved.plan)) {
        case PlanCheck::Verdict::kSame: break;
        case PlanCheck::Verdict::kReused: ++reused; break;
        case PlanCheck::Verdict::kFailed: ++ref.failed; break;
      }
    }
  };

  if (!params.trace) {
    // One planner plans the stream through segments, each on a fresh
    // thread; the stream position and the memo carry over.
    service->ResetStats();
    TimedSource source(service);
    lmkg::planner::JoinPlanner planner(&source);
    StreamResult r;
    std::vector<double> p50, rate;
    size_t position = 0;
    for (size_t k = 0; k < kSegments; ++k) {
      StreamResult part;
      std::thread([&] {
        part = PlanStream(state->queries, service, &planner,
                          params.seconds / static_cast<double>(kSegments),
                          &position, nullptr);
      }).join();
      p50.push_back(part.latency.PercentileUs(50));
      rate.push_back(static_cast<double>(part.plans) / part.seconds);
      r.Append(part);
    }
    const auto stats = service->Stats();
    check(r);
    report.Set("p50_us", InterquartileMean(p50), "us");
    report.Set("ops_per_s", InterquartileMean(rate), "1/s");
    report.Note(StrFormat(
        "plan stream: %llu plans (%llu passes over %zu queries), p50 %.1f us "
        "p99 %.1f us p%.2f %.1f us | %.1f sub-plans considered and %.1f "
        "priced per plan, %.2f pricing calls per plan of %.1f queries | "
        "service hit rate %.4f fill %.2f",
        static_cast<unsigned long long>(r.plans),
        static_cast<unsigned long long>(r.wraps + 1), state->queries.size(),
        r.latency.PercentileUs(50), r.latency.PercentileUs(99),
        r.latency.TailPercentile(),
        r.latency.PercentileUs(r.latency.TailPercentile()),
        static_cast<double>(r.considered) / static_cast<double>(r.plans),
        static_cast<double>(r.priced) / static_cast<double>(r.plans),
        static_cast<double>(source.calls()) / static_cast<double>(r.plans),
        static_cast<double>(source.queries()) /
            static_cast<double>(std::max<uint64_t>(source.calls(), 1)),
        stats.cache_hit_rate, stats.mean_batch_fill));
  } else {
    StreamResult untraced;
    lmkg::serving::ServingStatsSnapshot untraced_stats;
    double untraced_batch_mean = 0.0;
    double untraced_calls_per_plan = 0.0;
    {
      service->ResetStats();
      TimedSource source(service);
      lmkg::planner::JoinPlanner planner(&source);
      size_t position = 0;
      untraced = PlanStream(state->queries, service, &planner,
                            params.seconds / 2, &position, nullptr);
      untraced_stats = service->Stats();
      untraced_batch_mean =
          static_cast<double>(source.queries()) /
          static_cast<double>(std::max<uint64_t>(source.calls(), 1));
      untraced_calls_per_plan = static_cast<double>(source.calls()) /
                                static_cast<double>(untraced.plans);
    }
    check(untraced);
    report.Set("request.p99_us", untraced.latency.PercentileUs(99), "us");
    // The traced run starts from the same cold memo and cold cache.
    service->AdvanceEpoch();
    service->ResetStats();
    Tracer tracer(kTraceSpansPerThread);
    TraceBuffer* trace = tracer.NewBuffer();
    TimedSource source(service);
    source.Trace(trace, 20000);
    lmkg::planner::JoinPlanner planner(&source);
    size_t position = 0;
    const StreamResult traced =
        PlanStream(state->queries, service, &planner, params.seconds / 2,
                   &position, trace);
    const auto stats = service->Stats();
    check(traced);
    ReportServingStats(stats, &report);

    const double plans = static_cast<double>(traced.plans);
    const auto totals = tracer.Totals();
    auto span = [&](SpanName name) {
      return totals[static_cast<size_t>(name)];
    };
    const double pricing_ns = span(SpanName::kEstimateMany).total_ns;
    report.Set("planner.pricing_us_per_plan", pricing_ns / plans / 1e3, "us");
    report.Set("planner.self_us_per_plan",
               span(SpanName::kPlanQuery).self_ns / plans / 1e3, "us");
    report.Set("planner.pricing_batch_mean",
               static_cast<double>(source.queries()) /
                   static_cast<double>(std::max<uint64_t>(source.calls(), 1)),
               "count");
    report.Set("planner.pricing_calls_per_plan",
               static_cast<double>(source.calls()) / plans, "count");
    report.Set("planner.subplans_considered_per_plan",
               static_cast<double>(traced.considered) / plans, "count");
    report.Set("planner.subplans_priced_per_plan",
               static_cast<double>(traced.priced) / plans, "count");
    report.Set("planner.subplans_considered",
               static_cast<double>(traced.considered), "count");
    report.Set("planner.priced_share",
               static_cast<double>(traced.priced) /
                   static_cast<double>(std::max<uint64_t>(traced.considered,
                                                          1)),
               "ratio");
    report.Set("planner.memo_hit_rate",
               static_cast<double>(traced.memo_hits) /
                   static_cast<double>(std::max<uint64_t>(
                       traced.memo_hits + traced.priced, 1)),
               "ratio");
    report.Set("proc.cpu_us_per_op", traced.cpu_s * 1e6 / plans, "us");

    // Layer replays over the sub-plans the planner actually priced.
    std::vector<const Query*> stream;
    for (const Query& q : source.priced()) stream.push_back(&q);
    ReplayGroup group;
    group.model = state->reference.get();
    group.queries = source.priced();
    const LayerCosts costs =
        ReplayLayers(stream, {group}, state->service_config,
                     service->num_shards(), tracer.NewBuffer());
    ReportLayerCosts(costs, &report);
    // One pricing call carries pricing_batch_mean queries, split over
    // the shards, which compute their parts at the same time.
    const double shards = static_cast<double>(service->num_shards());
    ReportServingCall(
        source.call_latency(),
        ExplainedCallNs(costs, stats, report.Get("planner.pricing_batch_mean"),
                        shards),
        &report);
    // A plan is the planner's own work (its traced self time) plus its
    // pricing calls, as the untraced half made them.
    ReportReconciliation(
        untraced.latency.MeanUs(),
        report.Get("planner.self_us_per_plan") +
            untraced_calls_per_plan *
                ExplainedCallNs(costs, untraced_stats, untraced_batch_mean,
                                shards) /
                1e3,
        traced.latency.MeanUs(), traced.plans, &report);
    if (!tracer.WriteJsonLines(params.out_dir + "/trace-plan-stream.jsonl"))
      report.Note("could not write the span file");

    // Plan quality, outside the timed window: true C_out of the plans
    // chosen with the model over the true optimum, and the q-error of the
    // whole-query estimates, over the first queries of the stream that
    // have at most quality_max_size patterns.
    lmkg::query::Executor executor(*state->graph);
    lmkg::planner::OracleSource oracle(&executor);
    lmkg::planner::JoinPlanner optimal_planner(&oracle);
    lmkg::planner::JoinPlanner chosen_planner(&direct);
    double log_overhead = 0.0;
    std::vector<double> served, truth;
    const size_t max_size = params.Count("quality_max_size");
    for (const Query& q : state->queries) {
      if (served.size() == params.Count("quality_sample")) break;
      if (q.size() > max_size) continue;
      const double optimal =
          std::max(optimal_planner.PlanQuery(q).cost, 1.0);
      const Plan& chosen = chosen_planner.PlanQuery(q);
      served.push_back(chosen.nodes[static_cast<size_t>(chosen.root)]
                           .cardinality);
      truth.push_back(executor.Cardinality(q));
      log_overhead += std::log(
          std::max(lmkg::planner::PlanTrueCost(q, chosen, &oracle), 1.0) /
          optimal);
    }
    const double overhead =
        std::exp(log_overhead / static_cast<double>(served.size()));
    const auto [p50, p95] = QErrorP50P95(served, truth);
    report.Set("planner.plan_cost_overhead", overhead, "ratio");
    report.Set("core.qerror_p50", p50, "ratio");
    report.Set("core.qerror_p95", p95, "ratio");
    report.Note(StrFormat("plan quality over %zu queries: true cost %.3fx "
                          "optimal (geomean); whole-query q-error p50 %.2f "
                          "p95 %.2f",
                          served.size(), overhead, p50, p95));
  }
  report.Set("planner.reused_estimate_plans", static_cast<double>(reused),
             "count");
  report.Note(StrFormat(
      "%llu of %llu sampled plans differ from a fresh DirectSource "
      "planner's, each proven to come from reused estimates of same-key, "
      "differently ordered sub-plans planned earlier in the pass",
      static_cast<unsigned long long>(reused),
      static_cast<unsigned long long>(out->Phase("reference").attempted)));
  report.Set("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace perfbench
