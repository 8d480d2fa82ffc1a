#include "setup.h"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <unordered_set>

#include "data/dataset.h"
#include "encoding/query_encoder.h"
#include "query/fingerprint.h"
#include "sampling/composite.h"
#include "sampling/random_walk.h"

namespace perfbench {

using lmkg::query::PatternTerm;
using lmkg::query::Query;
using lmkg::query::Topology;
namespace sampling = lmkg::sampling;

std::vector<sampling::LabeledQuery> GenerateLabeled(
    const lmkg::rdf::Graph& graph, const MixSpec& mix, size_t per_combo,
    uint64_t seed) {
  std::vector<sampling::LabeledQuery> out;
  uint64_t combo = 0;
  auto append = [&](std::vector<sampling::LabeledQuery> labeled) {
    for (auto& lq : labeled) out.push_back(std::move(lq));
  };
  sampling::WorkloadGenerator generator(graph);
  for (Topology topology : {Topology::kStar, Topology::kChain}) {
    const int lo = topology == Topology::kStar ? mix.star_min : mix.chain_min;
    const int hi = topology == Topology::kStar ? mix.star_max : mix.chain_max;
    for (int size = lo; size <= hi; ++size) {
      sampling::WorkloadGenerator::Options options;
      options.topology = topology;
      options.query_size = size;
      options.count = per_combo;
      options.seed = seed * 1000003 + 7919 * ++combo;
      append(generator.Generate(options));
    }
  }
  sampling::CompositeWorkloadGenerator trees(graph);
  for (int size = mix.tree_min; size <= mix.tree_max; ++size) {
    sampling::CompositeWorkloadGenerator::Options options;
    options.query_size = size;
    options.count = per_combo;
    options.seed = seed * 1000003 + 7919 * ++combo;
    append(trees.Generate(options));
  }
  return out;
}

namespace {

// Node unbinding of the paper's generator: a star's centre always, its
// objects with p = 0.35; a chain's interior nodes with p = 0.9 and its
// end points with p = 0.35; a tree's root always, interior nodes with
// p = 0.8 and leaves with p = 0.35. Predicates stay bound.
PatternTerm Unbind(lmkg::rdf::TermId id, double prob, int* next_var,
                   lmkg::util::Pcg32& rng) {
  return rng.Bernoulli(prob) ? PatternTerm::Variable((*next_var)++)
                             : PatternTerm::Bound(id);
}

std::optional<Query> SampleStar(const sampling::RandomWalkSampler& walker,
                                int size, lmkg::util::Pcg32& rng) {
  auto star = walker.SampleStar(size, rng);
  if (!star.has_value()) return std::nullopt;
  int next_var = 0;
  const PatternTerm center = PatternTerm::Variable(next_var++);
  std::vector<std::pair<PatternTerm, PatternTerm>> pairs;
  for (const auto& edge : star->edges)
    pairs.emplace_back(PatternTerm::Bound(edge.p),
                       Unbind(edge.o, 0.35, &next_var, rng));
  Query q = lmkg::query::MakeStarQuery(center, pairs);
  lmkg::query::StarView view;
  if (!lmkg::query::AsStar(q, &view)) return std::nullopt;
  return q;
}

std::optional<Query> SampleChain(const sampling::RandomWalkSampler& walker,
                                 int size, lmkg::util::Pcg32& rng) {
  auto chain = walker.SampleChain(size, rng);
  if (!chain.has_value()) return std::nullopt;
  int next_var = 0;
  std::vector<PatternTerm> nodes;
  for (size_t i = 0; i < chain->nodes.size(); ++i) {
    const bool interior = i > 0 && i + 1 < chain->nodes.size();
    nodes.push_back(
        Unbind(chain->nodes[i], interior ? 0.9 : 0.35, &next_var, rng));
  }
  std::vector<PatternTerm> predicates;
  for (lmkg::rdf::TermId p : chain->predicates)
    predicates.push_back(PatternTerm::Bound(p));
  if (next_var == 0) return std::nullopt;
  Query q = lmkg::query::MakeChainQuery(nodes, predicates);
  lmkg::query::ChainScratch scratch;
  lmkg::query::ChainView view;
  if (!lmkg::query::AsChain(q, &scratch, &view)) return std::nullopt;
  return q;
}

std::optional<Query> SampleTree(const sampling::CompositeSampler& sampler,
                                int size, lmkg::util::Pcg32& rng) {
  auto tree = sampler.SampleTree(size, rng);
  if (!tree.has_value()) return std::nullopt;
  std::vector<bool> has_child(tree->nodes.size(), false);
  for (size_t i = 1; i < tree->nodes.size(); ++i)
    has_child[static_cast<size_t>(tree->parents[i])] = true;
  int next_var = 0;
  std::vector<PatternTerm> terms;
  for (size_t i = 0; i < tree->nodes.size(); ++i) {
    const double prob = i == 0 ? 1.0 : has_child[i] ? 0.8 : 0.35;
    terms.push_back(Unbind(tree->nodes[i], prob, &next_var, rng));
  }
  Query q;
  for (size_t i = 1; i < tree->nodes.size(); ++i) {
    lmkg::query::TriplePattern pattern;
    pattern.s = terms[static_cast<size_t>(tree->parents[i])];
    pattern.p = PatternTerm::Bound(tree->predicates[i - 1]);
    pattern.o = terms[i];
    q.patterns.push_back(pattern);
  }
  q.num_vars = next_var;
  if (lmkg::query::ClassifyTopology(q) != Topology::kComposite)
    return std::nullopt;
  return q;
}

}  // namespace

std::vector<Query> GenerateUnlabeled(const lmkg::rdf::Graph& graph,
                                     const MixSpec& mix, size_t count,
                                     uint64_t seed,
                                     const std::vector<Query>& exclude) {
  struct Combo {
    Topology topology;
    int size;
  };
  std::vector<Combo> combos;
  for (int s = mix.star_min; s <= mix.star_max; ++s)
    combos.push_back({Topology::kStar, s});
  for (int s = mix.chain_min; s <= mix.chain_max; ++s)
    combos.push_back({Topology::kChain, s});
  for (int s = mix.tree_min; s <= mix.tree_max; ++s)
    combos.push_back({Topology::kComposite, s});

  sampling::RandomWalkSampler walker(graph);
  sampling::CompositeSampler trees(graph);
  lmkg::util::Pcg32 rng(seed, /*stream=*/0x5eed);
  lmkg::query::FingerprintScratch scratch;
  std::unordered_set<lmkg::query::Fingerprint,
                     lmkg::query::FingerprintHasher>
      seen;
  for (const Query& q : exclude)
    seen.insert(lmkg::query::ComputeFingerprint(q, &scratch));

  // Combos take turns, so every seed gets the same mix. A combo whose
  // sample fails (dead end, duplicate) tries again on its next turn; one
  // that fails kMaxMisses turns in a row has run out of distinct queries
  // on this graph and leaves the rotation.
  constexpr size_t kMaxMisses = 200;
  std::vector<size_t> misses(combos.size(), 0);
  std::vector<size_t> live(combos.size());
  for (size_t i = 0; i < live.size(); ++i) live[i] = i;
  std::vector<Query> out;
  out.reserve(count);
  for (size_t turn = 0; out.size() < count && !live.empty(); ++turn) {
    const size_t slot = turn % live.size();
    const Combo& combo = combos[live[slot]];
    std::optional<Query> q;
    switch (combo.topology) {
      case Topology::kStar: q = SampleStar(walker, combo.size, rng); break;
      case Topology::kChain: q = SampleChain(walker, combo.size, rng); break;
      default: q = SampleTree(trees, combo.size, rng); break;
    }
    if (q.has_value() &&
        seen.insert(lmkg::query::ComputeFingerprint(*q, &scratch)).second) {
      misses[live[slot]] = 0;
      out.push_back(*std::move(q));
    } else if (++misses[live[slot]] == kMaxMisses) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(slot));
    }
  }
  if (out.size() < count) {
    std::cerr << "perfbench: generated only " << out.size() << " of "
              << count << " distinct queries\n";
    std::exit(2);
  }
  return out;
}

LmkgSModel::LmkgSModel(const lmkg::rdf::Graph& graph, int max_edges,
                       const lmkg::core::LmkgSConfig& config)
    : graph_(graph), max_edges_(max_edges), config_(config) {}

void LmkgSModel::Train(const std::vector<sampling::LabeledQuery>& data) {
  std::unique_ptr<lmkg::core::LmkgS> model = NewModel();
  model->Train(data);
  std::ostringstream blob;
  if (!model->Save(blob).ok()) {
    std::cerr << "perfbench: model serialization failed\n";
    std::exit(2);
  }
  blob_ = blob.str();
}

std::unique_ptr<lmkg::core::LmkgS> LmkgSModel::NewModel() const {
  auto model = std::make_unique<lmkg::core::LmkgS>(
      lmkg::encoding::MakeSgEncoder(graph_, max_edges_ + 1, max_edges_,
                                    lmkg::encoding::TermEncoding::kBinary),
      config_);
  if (!blob_.empty()) {
    std::istringstream in(blob_);
    if (!model->Load(in).ok()) {
      std::cerr << "perfbench: replica load failed\n";
      std::exit(2);
    }
  }
  return model;
}

std::vector<std::unique_ptr<lmkg::core::CardinalityEstimator>>
LmkgSModel::Replicas(size_t n) const {
  std::vector<std::unique_ptr<lmkg::core::CardinalityEstimator>> replicas;
  for (size_t i = 0; i < n; ++i) replicas.push_back(NewModel());
  return replicas;
}

std::unique_ptr<lmkg::rdf::Graph> MakeGraph(const Params& params) {
  return std::make_unique<lmkg::rdf::Graph>(lmkg::data::MakeDataset(
      "lubm", params.Num("scale"),
      static_cast<uint64_t>(params.Num("dataset_seed"))));
}

std::unique_ptr<ServingState> BuildServingState(
    const Params& params, SetupTimes* times,
    const std::function<void(ServingState*)>& make_queries) {
  auto state = std::make_unique<ServingState>();
  int64_t start = NowNs();
  state->graph = MakeGraph(params);
  times->dataset_s = SecondsSince(start);

  start = NowNs();
  const std::vector<sampling::LabeledQuery> train =
      GenerateLabeled(*state->graph, TrainMix(params),
                      params.Count("train_per_combo"), params.seed);
  make_queries(state.get());
  times->label_s = SecondsSince(start);

  start = NowNs();
  state->model = std::make_unique<LmkgSModel>(
      *state->graph, static_cast<int>(params.Num("max_edges")),
      ModelConfig(params, params.seed));
  state->model->Train(train);
  times->train_s = SecondsSince(start);

  start = NowNs();
  state->service_config.cache_capacity = params.Count("cache_capacity");
  state->service = std::make_unique<lmkg::serving::EstimatorService>(
      state->model->Replicas(params.Count("shards")), state->service_config);
  state->reference = state->model->NewModel();
  times->replica_s = SecondsSince(start);
  return state;
}

lmkg::core::LmkgSConfig ModelConfig(const Params& params, uint64_t seed) {
  lmkg::core::LmkgSConfig config;
  config.hidden_dim = params.Count("hidden_dim");
  config.epochs = static_cast<int>(params.Num("epochs"));
  config.seed = seed;
  return config;
}

MixSpec TrainMix(const Params& params) {
  MixSpec mix;
  mix.star_min = mix.chain_min = 2;
  mix.star_max = mix.chain_max = static_cast<int>(params.Num("train_max"));
  mix.tree_min = 3;
  mix.tree_max = static_cast<int>(params.Num("train_tree_max"));
  return mix;
}

}  // namespace perfbench
