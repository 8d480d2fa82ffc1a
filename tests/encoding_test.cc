#include <gtest/gtest.h>

#include "core/lmkg_s.h"
#include "encoding/query_encoder.h"
#include "query/fingerprint.h"
#include "query/topology.h"
#include "encoding/term_encoder.h"
#include "sampling/workload.h"
#include "test_util.h"
#include "util/math.h"

namespace lmkg::encoding {
namespace {

using query::PatternTerm;
using query::Query;

PatternTerm B(rdf::TermId id) { return PatternTerm::Bound(id); }
PatternTerm V(int v) { return PatternTerm::Variable(v); }

// --- term encoders ------------------------------------------------------------

class TermEncoderRoundTrip
    : public ::testing::TestWithParam<std::tuple<TermEncoding, size_t>> {};

TEST_P(TermEncoderRoundTrip, EncodeDecodeIsIdentity) {
  auto [encoding, domain] = GetParam();
  TermEncoder encoder(encoding, domain);
  std::vector<float> buf(encoder.width());
  for (rdf::TermId id = 0; id <= domain; ++id) {
    encoder.Encode(id, buf.data());
    EXPECT_EQ(encoder.Decode(buf.data()), id);
  }
}

TEST_P(TermEncoderRoundTrip, UnboundIsAllZeros) {
  auto [encoding, domain] = GetParam();
  TermEncoder encoder(encoding, domain);
  std::vector<float> buf(encoder.width(), 1.0f);
  encoder.Encode(rdf::kUnboundTerm, buf.data());
  for (float v : buf) EXPECT_EQ(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Domains, TermEncoderRoundTrip,
    ::testing::Combine(::testing::Values(TermEncoding::kOneHot,
                                         TermEncoding::kBinary),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                         size_t{8}, size_t{17},
                                         size_t{100})));

TEST(TermEncoderTest, Widths) {
  EXPECT_EQ(TermEncoder(TermEncoding::kOneHot, 100).width(), 100u);
  // Binary: ceil(log2(100)) + 1 = 8 (paper §V-A1).
  EXPECT_EQ(TermEncoder(TermEncoding::kBinary, 100).width(), 8u);
  EXPECT_EQ(TermEncoder(TermEncoding::kBinary, 3).width(), 3u);
}

TEST(TermEncoderTest, PaperBinaryExample) {
  // Paper §V: "for a KG with 3 unique subjects, the binary encoding of
  // the subject with id 2 will be [10]" (plus the reserved extra bit).
  TermEncoder encoder(TermEncoding::kBinary, 3);
  std::vector<float> buf(encoder.width());
  encoder.Encode(2, buf.data());
  // LSB-first bit layout: 2 = 010.
  EXPECT_EQ(buf[0], 0.0f);
  EXPECT_EQ(buf[1], 1.0f);
  EXPECT_EQ(buf[2], 0.0f);
}

TEST(TermEncoderTest, PaperOneHotExample) {
  // "if the total number of subjects is 3, the one-hot encoding of the
  // subject with id 2 will be [010]".
  TermEncoder encoder(TermEncoding::kOneHot, 3);
  std::vector<float> buf(encoder.width());
  encoder.Encode(2, buf.data());
  EXPECT_EQ(buf[0], 0.0f);
  EXPECT_EQ(buf[1], 1.0f);
  EXPECT_EQ(buf[2], 0.0f);
}

TEST(TermEncoderDeathTest, IdBeyondDomainAborts) {
  TermEncoder encoder(TermEncoding::kBinary, 3);
  std::vector<float> buf(encoder.width());
  EXPECT_DEATH(encoder.Encode(4, buf.data()), "LMKG_CHECK");
}

// --- query encoders ------------------------------------------------------------

class QueryEncoderTest : public ::testing::Test {
 protected:
  QueryEncoderTest() : graph_(lmkg::testing::MakeRandomGraph(20, 5, 80, 1)) {}
  rdf::Graph graph_;
};

TEST_F(QueryEncoderTest, StarEncoderWidth) {
  auto enc = MakeStarEncoder(graph_, 3, TermEncoding::kBinary);
  size_t node_bits = util::BinaryEncodingBits(graph_.num_nodes());
  size_t pred_bits = util::BinaryEncodingBits(graph_.num_predicates());
  EXPECT_EQ(enc->width(), node_bits + 3 * (pred_bits + node_bits));
}

TEST_F(QueryEncoderTest, ChainEncoderWidth) {
  auto enc = MakeChainEncoder(graph_, 3, TermEncoding::kBinary);
  size_t node_bits = util::BinaryEncodingBits(graph_.num_nodes());
  size_t pred_bits = util::BinaryEncodingBits(graph_.num_predicates());
  EXPECT_EQ(enc->width(), 4 * node_bits + 3 * pred_bits);
}

TEST_F(QueryEncoderTest, StarEncoderAcceptsOnlyStarsWithinCapacity) {
  auto enc = MakeStarEncoder(graph_, 2, TermEncoding::kBinary);
  Query star2 = query::MakeStarQuery(V(0), {{B(1), B(2)}, {B(2), V(1)}});
  Query star3 = query::MakeStarQuery(
      V(0), {{B(1), B(2)}, {B(2), V(1)}, {B(3), V(2)}});
  Query chain = query::MakeChainQuery({V(0), V(1), V(2)}, {B(1), B(2)});
  EXPECT_TRUE(enc->CanEncode(star2));
  EXPECT_FALSE(enc->CanEncode(star3));
  EXPECT_FALSE(enc->CanEncode(chain));
}

TEST_F(QueryEncoderTest, StarEncodingIsCanonicalUnderPatternOrder) {
  auto enc = MakeStarEncoder(graph_, 2, TermEncoding::kBinary);
  Query a = query::MakeStarQuery(V(0), {{B(1), B(2)}, {B(3), B(4)}});
  Query b = query::MakeStarQuery(V(0), {{B(3), B(4)}, {B(1), B(2)}});
  EXPECT_EQ(enc->EncodeToVector(a), enc->EncodeToVector(b));
}

TEST_F(QueryEncoderTest, SmallerQueryIsZeroPadded) {
  auto enc = MakeStarEncoder(graph_, 3, TermEncoding::kBinary);
  Query star1 = query::MakeStarQuery(V(0), {{B(1), B(2)}});
  std::vector<float> v = enc->EncodeToVector(star1);
  size_t node_bits = util::BinaryEncodingBits(graph_.num_nodes());
  size_t pred_bits = util::BinaryEncodingBits(graph_.num_predicates());
  // The trailing two (p, o) slots must be all zero.
  size_t tail_start = node_bits + (pred_bits + node_bits);
  for (size_t i = tail_start; i < v.size(); ++i) EXPECT_EQ(v[i], 0.0f);
}

TEST_F(QueryEncoderTest, UnboundTermsEncodeAsZeros) {
  auto enc = MakeStarEncoder(graph_, 1, TermEncoding::kBinary);
  Query q = query::MakeStarQuery(V(0), {{B(1), V(1)}});
  std::vector<float> v = enc->EncodeToVector(q);
  size_t node_bits = util::BinaryEncodingBits(graph_.num_nodes());
  // Subject slot (variable) all zero.
  for (size_t i = 0; i < node_bits; ++i) EXPECT_EQ(v[i], 0.0f);
}

TEST_F(QueryEncoderTest, ChainEncoderLaysOutWalkOrder) {
  auto enc = MakeChainEncoder(graph_, 2, TermEncoding::kOneHot);
  Query q = query::MakeChainQuery({B(5), V(0), B(7)}, {B(2), B(3)});
  std::vector<float> v = enc->EncodeToVector(q);
  size_t n = graph_.num_nodes();
  size_t b = graph_.num_predicates();
  // [n1 | p1 | n2 | p2 | n3] with one-hot widths [n, b, n, b, n].
  EXPECT_EQ(v[5 - 1], 1.0f);                    // n1 = 5
  EXPECT_EQ(v[n + 2 - 1], 1.0f);                // p1 = 2
  for (size_t i = n + b; i < n + b + n; ++i)    // n2 unbound
    EXPECT_EQ(v[i], 0.0f);
  EXPECT_EQ(v[n + b + n + 3 - 1], 1.0f);        // p2 = 3
  EXPECT_EQ(v[n + b + n + b + 7 - 1], 1.0f);    // n3 = 7
}

// --- SG-Encoding ------------------------------------------------------------------

TEST_F(QueryEncoderTest, SgFootprint) {
  Query star = query::MakeStarQuery(V(0), {{B(1), B(2)}, {B(2), V(1)}});
  SgFootprint fp = ComputeSgFootprint(star);
  EXPECT_EQ(fp.nodes, 3);
  EXPECT_EQ(fp.edges, 2);
  // Shared objects collapse into one node.
  Query shared = query::MakeStarQuery(V(0), {{B(1), B(2)}, {B(3), B(2)}});
  EXPECT_EQ(ComputeSgFootprint(shared).nodes, 2);
}

TEST_F(QueryEncoderTest, SgWidthFormula) {
  auto enc = MakeSgEncoder(graph_, 4, 3, TermEncoding::kBinary);
  size_t node_bits = util::BinaryEncodingBits(graph_.num_nodes());
  size_t pred_bits = util::BinaryEncodingBits(graph_.num_predicates());
  EXPECT_EQ(enc->width(),
            size_t{4} * 4 * 3 + 4 * node_bits + 3 * pred_bits);
}

TEST_F(QueryEncoderTest, SgEncodesBothTopologiesInOneEncoder) {
  auto enc = MakeSgEncoder(graph_, 4, 3, TermEncoding::kBinary);
  Query star = query::MakeStarQuery(V(0), {{B(1), B(2)}, {B(2), V(1)}});
  Query chain = query::MakeChainQuery({V(0), V(1), V(2)}, {B(1), B(2)});
  EXPECT_TRUE(enc->CanEncode(star));
  EXPECT_TRUE(enc->CanEncode(chain));
  EXPECT_NE(enc->EncodeToVector(star), enc->EncodeToVector(chain));
}

TEST_F(QueryEncoderTest, SgRejectsOverCapacity) {
  auto enc = MakeSgEncoder(graph_, 3, 2, TermEncoding::kBinary);
  Query star3 = query::MakeStarQuery(
      V(0), {{B(1), V(1)}, {B(2), V(2)}, {B(3), V(3)}});
  EXPECT_FALSE(enc->CanEncode(star3));
}

TEST_F(QueryEncoderTest, SgAdjacencyStructureMatchesPaperExample) {
  // Fig. 2: star query ?Book hasAuthor StephenKing ; genre Horror with
  // n=3, e=2: edge 0 from node 0 (the variable) to node 1, edge 1 from
  // node 0 to node 2.
  auto enc = MakeSgEncoder(graph_, 3, 2, TermEncoding::kBinary);
  Query q = query::MakeStarQuery(V(0), {{B(1), B(2)}, {B(2), B(3)}});
  std::vector<float> v = enc->EncodeToVector(q);
  const int n = 3, e = 2;
  auto a = [&](int i, int j, int l) { return v[(i * n + j) * e + l]; };
  EXPECT_EQ(a(0, 1, 0), 1.0f);  // first pattern: centre -> first object
  EXPECT_EQ(a(0, 2, 1), 1.0f);  // second pattern: centre -> second object
  // Exactly two set bits in A.
  float total = 0;
  for (int i = 0; i < n * n * e; ++i) total += v[i];
  EXPECT_EQ(total, 2.0f);
}

TEST_F(QueryEncoderTest, SgCanonicalUnderPatternOrder) {
  auto enc = MakeSgEncoder(graph_, 3, 2, TermEncoding::kBinary);
  Query a = query::MakeStarQuery(V(0), {{B(1), B(2)}, {B(2), B(3)}});
  Query b = query::MakeStarQuery(V(0), {{B(2), B(3)}, {B(1), B(2)}});
  EXPECT_EQ(enc->EncodeToVector(a), enc->EncodeToVector(b));
}

TEST_F(QueryEncoderTest, SgDistinguishesDirection) {
  auto enc = MakeSgEncoder(graph_, 3, 2, TermEncoding::kBinary);
  // 1 -p-> 2 chain vs 2 -p-> 1 chain (as bound single-edge queries
  // extended by a second hop to stay >= 2 patterns is unnecessary —
  // single patterns are fine for the encoder).
  Query forward;
  forward.patterns.push_back({B(1), B(1), B(2)});
  query::NormalizeVariables(&forward);
  Query backward;
  backward.patterns.push_back({B(2), B(1), B(1)});
  query::NormalizeVariables(&backward);
  EXPECT_NE(enc->EncodeToVector(forward), enc->EncodeToVector(backward));
}

TEST_F(QueryEncoderTest, SgEncodesCompositeShapes) {
  // The SG-Encoding's §V-A1 claim: trees, cycles, and compounds fit the
  // same encoder as stars and chains (first-occurrence node order).
  auto enc = MakeSgEncoder(graph_, 5, 4, TermEncoding::kBinary);
  query::Query tree = query::MakeTreeQuery(
      {query::PatternTerm::Variable(0), query::PatternTerm::Variable(1),
       query::PatternTerm::Variable(2), query::PatternTerm::Variable(3)},
      {-1, 0, 0, 1},
      {query::PatternTerm::Bound(1), query::PatternTerm::Bound(2),
       query::PatternTerm::Bound(3)});
  ASSERT_EQ(query::ClassifyDetailedTopology(tree),
            query::DetailedTopology::kTree);
  ASSERT_TRUE(enc->CanEncode(tree));
  query::Query cycle = query::MakeCycleQuery(
      {query::PatternTerm::Variable(0), query::PatternTerm::Variable(1),
       query::PatternTerm::Variable(2)},
      {query::PatternTerm::Bound(1), query::PatternTerm::Bound(2),
       query::PatternTerm::Bound(3)});
  ASSERT_TRUE(enc->CanEncode(cycle));

  // Distinct shapes over the same terms produce distinct features.
  auto tree_vec = enc->EncodeToVector(tree);
  auto cycle_vec = enc->EncodeToVector(cycle);
  EXPECT_NE(tree_vec, cycle_vec);
}

TEST_F(QueryEncoderTest, SgCompositeShufflesSharingAFingerprintEstimateIdentically) {
  // A tree (neither star nor chain), and the same BGP with its patterns
  // reordered and its variables renamed. They share a fingerprint — the
  // key the result cache and the planner memo serve estimates by — so
  // SG-Encoding must give them the same input, and LMKG-S the same
  // estimate bit for bit.
  Query tree;
  tree.patterns = {{V(0), B(1), V(1)}, {V(0), B(2), V(2)}, {V(1), B(3), V(3)}};
  tree.num_vars = 4;
  Query shuffled;
  shuffled.patterns = {
      {V(0), B(3), V(1)}, {V(2), B(2), V(3)}, {V(2), B(1), V(0)}};
  shuffled.num_vars = 4;
  ASSERT_EQ(query::ClassifyTopology(tree), query::Topology::kComposite);
  ASSERT_EQ(query::ComputeFingerprint(tree),
            query::ComputeFingerprint(shuffled));

  auto enc = MakeSgEncoder(graph_, 4, 3, TermEncoding::kBinary);
  EXPECT_EQ(enc->EncodeToVector(tree), enc->EncodeToVector(shuffled));

  core::LmkgSConfig config;
  config.hidden_dim = 8;
  config.epochs = 2;
  config.dropout = 0.0;
  core::LmkgS model(MakeSgEncoder(graph_, 4, 3, TermEncoding::kBinary),
                    config);
  Query other = tree;
  other.patterns[2].p = B(4);
  std::vector<sampling::LabeledQuery> train(2);
  train[0].query = tree;
  train[0].cardinality = 40.0;
  train[1].query = other;
  train[1].cardinality = 3.0;
  model.Train(train);
  EXPECT_EQ(model.EstimateCardinality(tree),
            model.EstimateCardinality(shuffled));
  std::vector<double> batched(2, 0.0);
  model.EstimateCardinalityBatch(std::vector<Query>{tree, shuffled},
                                 batched);
  EXPECT_EQ(batched[0], batched[1]);
}

TEST_F(QueryEncoderTest, SgCompositeFootprintGatesCapacity) {
  // A 4-edge tree has 5 nodes: fits (5, 4), not (4, 4) or (5, 3).
  query::Query tree = query::MakeTreeQuery(
      {query::PatternTerm::Variable(0), query::PatternTerm::Variable(1),
       query::PatternTerm::Variable(2), query::PatternTerm::Variable(3),
       query::PatternTerm::Variable(4)},
      {-1, 0, 0, 1, 1},
      {query::PatternTerm::Bound(1), query::PatternTerm::Bound(2),
       query::PatternTerm::Bound(3), query::PatternTerm::Bound(4)});
  EXPECT_TRUE(MakeSgEncoder(graph_, 5, 4, TermEncoding::kBinary)
                  ->CanEncode(tree));
  EXPECT_FALSE(MakeSgEncoder(graph_, 4, 4, TermEncoding::kBinary)
                   ->CanEncode(tree));
  EXPECT_FALSE(MakeSgEncoder(graph_, 5, 3, TermEncoding::kBinary)
                   ->CanEncode(tree));
  // A cycle of 4 edges has only 4 nodes: fits (4, 4).
  query::Query cycle = query::MakeCycleQuery(
      {query::PatternTerm::Variable(0), query::PatternTerm::Variable(1),
       query::PatternTerm::Variable(2), query::PatternTerm::Variable(3)},
      {query::PatternTerm::Bound(1), query::PatternTerm::Bound(2),
       query::PatternTerm::Bound(3), query::PatternTerm::Bound(4)});
  EXPECT_TRUE(MakeSgEncoder(graph_, 4, 4, TermEncoding::kBinary)
                  ->CanEncode(cycle));
}

TEST_F(QueryEncoderTest, EncoderNames) {
  EXPECT_EQ(MakeStarEncoder(graph_, 2, TermEncoding::kBinary)->name(),
            "star2-binary");
  EXPECT_EQ(MakeChainEncoder(graph_, 3, TermEncoding::kOneHot)->name(),
            "chain3-one-hot");
  EXPECT_EQ(MakeSgEncoder(graph_, 4, 3, TermEncoding::kBinary)->name(),
            "sg-n4-e3-binary");
}

}  // namespace
}  // namespace lmkg::encoding
