// Set-up shared by the workloads: the dataset, labeled and unlabeled
// query generation from the seed, the LMKG-S serving model, and the
// repeated, timed set-up that setup_s reports.
#ifndef LMKG_PERFBENCH_SETUP_H_
#define LMKG_PERFBENCH_SETUP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/lmkg_s.h"
#include "harness.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "sampling/workload.h"
#include "serving/estimator_service.h"

namespace perfbench {

/// Wall time of each set-up step of one repetition, seconds.
struct SetupTimes {
  double dataset_s = 0.0;  // data::MakeDataset
  double label_s = 0.0;    // WorkloadGenerator::Generate (+ stream sampling)
  double train_s = 0.0;    // LmkgS::Train / AdaptiveLmkg construction
  double replica_s = 0.0;  // replica load or attach
  double total_s = 0.0;    // everything before the timed window
};

/// Set-ups per run. setup_s is their median: one set-up takes well under
/// a second and swings by a third with what the machine's other tenants
/// do, and the median of three is as steady as the run's other figures
/// for under two seconds more.
constexpr size_t kSetupRepeats = 3;

/// Runs `build` kSetupRepeats times (each from scratch, the previous
/// result destroyed first), keeps the last result, and reports the median
/// of every step as setup_s and setup.*_s.
template <typename State>
std::unique_ptr<State> RepeatSetup(
    Report* report,
    const std::function<std::unique_ptr<State>(SetupTimes*)>& build) {
  std::vector<SetupTimes> reps;
  std::unique_ptr<State> state;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    state.reset();
    SetupTimes times;
    const int64_t start = NowNs();
    state = build(&times);
    times.total_s = static_cast<double>(NowNs() - start) / 1e9;
    reps.push_back(times);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : reps) values.push_back(t.*field);
    return Median(values);
  };
  report->Set("setup_s", median_of(&SetupTimes::total_s), "s");
  report->Set("setup.dataset_s", median_of(&SetupTimes::dataset_s), "s");
  report->Set("setup.label_s", median_of(&SetupTimes::label_s), "s");
  report->Set("setup.train_s", median_of(&SetupTimes::train_s), "s");
  report->Set("setup.replica_s", median_of(&SetupTimes::replica_s), "s");
  return state;
}

/// Seconds since `start_ns`.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// The benchmark's dataset: LUBM at `scale`, generator seed
/// `dataset_seed`. It is the same for every run seed: the database stays
/// put while the seed varies what is asked of it.
std::unique_ptr<lmkg::rdf::Graph> MakeGraph(const Params& params);

/// The shapes and sizes of a generated query mix.
struct MixSpec {
  int star_min = 2, star_max = 2;    // star sizes (0 max = none)
  int chain_min = 2, chain_max = 2;  // chain sizes
  int tree_min = 3, tree_max = 3;    // composite tree sizes
};

/// Exactly labeled star/chain/tree queries, `per_combo` of each
/// (topology, size), from the library's workload generators.
std::vector<lmkg::sampling::LabeledQuery> GenerateLabeled(
    const lmkg::rdf::Graph& graph, const MixSpec& mix, size_t per_combo,
    uint64_t seed);

/// `count` distinct (by fingerprint) unlabeled queries, the mix's
/// (topology, size) combos taking turns until a combo runs out:
/// random-walk samples of the graph with nodes unbound the way the
/// paper's generator unbinds them. Skips any fingerprint in `exclude`.
/// Much cheaper than labeling, which is what lets the working sets be far
/// larger than the serving cache.
std::vector<lmkg::query::Query> GenerateUnlabeled(
    const lmkg::rdf::Graph& graph, const MixSpec& mix, size_t count,
    uint64_t seed, const std::vector<lmkg::query::Query>& exclude = {});

/// One trained LMKG-S over SG-Encoding (star, chain and composite
/// queries up to `max_edges` patterns), serialized once; every replica
/// is a fresh Load of the same bytes.
class LmkgSModel {
 public:
  LmkgSModel(const lmkg::rdf::Graph& graph, int max_edges,
             const lmkg::core::LmkgSConfig& config);

  /// Trains on `data` and keeps the serialized weights.
  void Train(const std::vector<lmkg::sampling::LabeledQuery>& data);

  std::unique_ptr<lmkg::core::LmkgS> NewModel() const;
  std::vector<std::unique_ptr<lmkg::core::CardinalityEstimator>> Replicas(
      size_t n) const;

 private:
  const lmkg::rdf::Graph& graph_;
  const int max_edges_;
  const lmkg::core::LmkgSConfig config_;
  std::string blob_;
};

/// Everything the LMKG-S workloads (estimate-miss, estimate-hot,
/// plan-stream) run against: the dataset, the trained model, the
/// workload's queries, the service, and a reference replica outside it.
struct ServingState {
  std::unique_ptr<lmkg::rdf::Graph> graph;
  std::unique_ptr<LmkgSModel> model;
  /// Exactly labeled queries, generated from other seeds than the
  /// training set (q-error).
  std::vector<lmkg::sampling::LabeledQuery> labeled;
  /// The workload's requests: working set or stream.
  std::vector<lmkg::query::Query> queries;
  lmkg::serving::ServiceConfig service_config;
  std::unique_ptr<lmkg::serving::EstimatorService> service;
  /// Serial reference replica (same weights, outside the service).
  std::unique_ptr<lmkg::core::LmkgS> reference;
};

/// Builds one ServingState: dataset, training labels, training, then
/// `make_queries` (timed as labeling), then `shards` replicas behind a
/// service with default ServiceConfig except the cache capacity.
std::unique_ptr<ServingState> BuildServingState(
    const Params& params, SetupTimes* times,
    const std::function<void(ServingState*)>& make_queries);

/// The LMKG-S model configuration the parameters describe.
lmkg::core::LmkgSConfig ModelConfig(const Params& params, uint64_t seed);

/// The training mix the parameters describe.
MixSpec TrainMix(const Params& params);

}  // namespace perfbench

#endif  // LMKG_PERFBENCH_SETUP_H_
