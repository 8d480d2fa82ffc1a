#include "encoding/query_encoder.h"

#include <algorithm>
#include <map>

#include "util/check.h"
#include "util/strings.h"

namespace lmkg::encoding {
namespace {

using query::PatternTerm;
using query::Query;

// Canonical pattern order (bound terms by id, then variables) comes from
// query::CanonicalStarOrder so encoders and LMKG-U stay in lockstep.

// Identity of a query node: same bound id or same variable -> same node.
using NodeKey = std::pair<bool, uint64_t>;  // (is_var, id-or-var)
NodeKey MakeNodeKey(const PatternTerm& t) {
  return t.bound() ? NodeKey{false, t.value}
                   : NodeKey{true, static_cast<uint64_t>(t.var)};
}

// --- Pattern-bound star ---------------------------------------------------

class StarEncoder final : public QueryEncoder {
 public:
  StarEncoder(const rdf::Graph& graph, int max_size,
              TermEncoding term_encoding)
      : max_size_(max_size),
        node_enc_(term_encoding, graph.num_nodes()),
        pred_enc_(term_encoding, graph.num_predicates()) {
    LMKG_CHECK_GE(max_size, 1);
  }

  size_t width() const override {
    return node_enc_.width() +
           static_cast<size_t>(max_size_) *
               (pred_enc_.width() + node_enc_.width());
  }

  bool CanEncode(const Query& q) const override {
    query::StarView star;
    return query::AsStar(q, &star) &&
           star.size() <= static_cast<size_t>(max_size_);
  }

  void Encode(const Query& q, float* out) const override {
    query::StarView star;
    LMKG_CHECK(query::AsStar(q, &star)) << "not a star: " << QueryToString(q);
    LMKG_CHECK_LE(star.size(), static_cast<size_t>(max_size_));
    query::CanonicalStarOrder(star, &order_);
    std::fill(out, out + width(), 0.0f);
    float* cursor = out;
    node_enc_.Encode(star.center().bound() ? star.center().value : 0,
                     cursor);
    cursor += node_enc_.width();
    for (int idx : order_) {
      const query::PatternTerm p = star.predicate(idx);
      const query::PatternTerm o = star.object(idx);
      pred_enc_.Encode(p.bound() ? p.value : 0, cursor);
      cursor += pred_enc_.width();
      node_enc_.Encode(o.bound() ? o.value : 0, cursor);
      cursor += node_enc_.width();
    }
  }

  std::string name() const override {
    return util::StrFormat("star%d-%s", max_size_,
                           TermEncodingName(node_enc_.encoding()));
  }

 private:
  int max_size_;
  TermEncoder node_enc_;
  TermEncoder pred_enc_;
  mutable std::vector<int> order_;  // canonicalization scratch
};

// --- Pattern-bound chain ----------------------------------------------------

class ChainEncoder final : public QueryEncoder {
 public:
  ChainEncoder(const rdf::Graph& graph, int max_size,
               TermEncoding term_encoding)
      : max_size_(max_size),
        node_enc_(term_encoding, graph.num_nodes()),
        pred_enc_(term_encoding, graph.num_predicates()) {
    LMKG_CHECK_GE(max_size, 1);
  }

  size_t width() const override {
    return static_cast<size_t>(max_size_ + 1) * node_enc_.width() +
           static_cast<size_t>(max_size_) * pred_enc_.width();
  }

  bool CanEncode(const Query& q) const override {
    query::ChainView chain;
    return query::AsChain(q, &chain_scratch_, &chain) &&
           chain.size() <= static_cast<size_t>(max_size_);
  }

  void Encode(const Query& q, float* out) const override {
    query::ChainView chain;
    LMKG_CHECK(query::AsChain(q, &chain_scratch_, &chain))
        << "not a chain: " << QueryToString(q);
    LMKG_CHECK_LE(chain.size(), static_cast<size_t>(max_size_));
    std::fill(out, out + width(), 0.0f);
    float* cursor = out;
    for (size_t i = 0; i < chain.num_nodes(); ++i) {
      const query::PatternTerm n = chain.node(i);
      node_enc_.Encode(n.bound() ? n.value : 0, cursor);
      cursor += node_enc_.width();
      if (i < chain.size()) {
        const query::PatternTerm p = chain.predicate(i);
        pred_enc_.Encode(p.bound() ? p.value : 0, cursor);
        cursor += pred_enc_.width();
      }
    }
  }

  std::string name() const override {
    return util::StrFormat("chain%d-%s", max_size_,
                           TermEncodingName(node_enc_.encoding()));
  }

 private:
  int max_size_;
  TermEncoder node_enc_;
  TermEncoder pred_enc_;
  mutable query::ChainScratch chain_scratch_;  // canonicalization scratch
};

// --- SG-Encoding ------------------------------------------------------------

class SgEncoderImpl final : public QueryEncoder {
 public:
  SgEncoderImpl(const rdf::Graph& graph, int max_nodes, int max_edges,
                TermEncoding term_encoding)
      : max_nodes_(max_nodes),
        max_edges_(max_edges),
        node_enc_(term_encoding, graph.num_nodes()),
        pred_enc_(term_encoding, graph.num_predicates()) {
    LMKG_CHECK_GE(max_nodes, 2);
    LMKG_CHECK_GE(max_edges, 1);
  }

  size_t width() const override {
    return a_size() + x_size() + e_size();
  }

  bool CanEncode(const Query& q) const override {
    if (q.patterns.empty()) return false;
    SgFootprint fp = ComputeSgFootprint(q);
    return fp.nodes <= max_nodes_ && fp.edges <= max_edges_;
  }

  // Reusable canonicalization buffers: one query's worth of pattern-order
  // and node-index scratch. Held as a mutable member so every Encode /
  // EncodeBatch call after the first is allocation-free (the zero-allocs-
  // per-query pin in tests/alloc_test.cc rests on this).
  struct Scratch {
    std::vector<int> order;  // pattern visit order (star/composite)
    query::ChainScratch chain;
    // Flat first-occurrence node index (a handful of nodes per query —
    // linear scan beats a std::map and allocates nothing once warm).
    std::vector<std::pair<NodeKey, int>> nodes;
    std::vector<uint32_t> cols;  // sparse-path column staging (one query)
  };

  void Encode(const Query& q, float* out) const override {
    EncodeWithScratch(q, out, &scratch_);
  }

  void EncodeBatch(std::span<const Query> queries,
                   nn::Matrix* out) const override {
    out->Resize(queries.size(), width());
    for (size_t i = 0; i < queries.size(); ++i)
      EncodeWithScratch(queries[i], out->row(i), &scratch_);
  }

  bool EncodeBatchSparse(std::span<const Query> queries,
                         nn::SparseRows* out) const override {
    out->Clear(width());
    for (const Query& q : queries) {
      EmitSparseColumns(q, &out->col, &scratch_);
      out->row_begin.push_back(out->col.size());
    }
    return true;
  }

  // Canonical edge ordering (paper Fig. 2 step 2.2) as a pattern
  // permutation: star -> centre first, then pairs in canonical order;
  // chain -> walk order; otherwise query::CanonicalCompositeOrder — the
  // order query::ComputeFingerprint hashes composites in, so queries
  // sharing a fingerprint (the result cache's and the planner memo's
  // key) encode identically. Star detection is a
  // cheap all-subjects-equal scan. Also validates the edge-capacity
  // bound (the public CanEncode goes through ComputeSgFootprint, whose
  // std::map would cost an allocation per node on this hot path).
  const int* CanonicalOrder(const Query& q, Scratch* scratch) const {
    LMKG_CHECK(!q.patterns.empty());
    const size_t num_patterns = q.patterns.size();
    LMKG_CHECK_LE(num_patterns, static_cast<size_t>(max_edges_))
        << "query exceeds SG edge capacity: " << QueryToString(q);
    bool is_star = true;
    const NodeKey center = MakeNodeKey(q.patterns[0].s);
    for (const auto& t : q.patterns) {
      if (MakeNodeKey(t.s) != center) {
        is_star = false;
        break;
      }
    }
    if (is_star) {
      query::StarView star;
      LMKG_CHECK(query::AsStar(q, &star));
      query::CanonicalStarOrder(star, &scratch->order);
      return scratch->order.data();
    }
    if (query::ChainView chain;
        query::AsChain(q, &scratch->chain, &chain)) {
      return scratch->chain.order.data();
    }
    query::CanonicalCompositeOrder(q, nullptr, num_patterns,
                                   &scratch->order);
    return scratch->order.data();
  }

  // First-occurrence node index over the canonical order, shared by the
  // dense and sparse emitters.
  int NodeOf(const PatternTerm& t, const Query& q,
             std::vector<std::pair<NodeKey, int>>* nodes) const {
    NodeKey key = MakeNodeKey(t);
    for (const auto& [existing, idx] : *nodes)
      if (existing == key) return idx;
    LMKG_CHECK_LT(nodes->size(), static_cast<size_t>(max_nodes_))
        << "query exceeds SG node capacity: " << QueryToString(q);
    nodes->emplace_back(key, static_cast<int>(nodes->size()));
    return nodes->back().second;
  }

  void EncodeWithScratch(const Query& q, float* out,
                         Scratch* scratch) const {
    const int* order = CanonicalOrder(q, scratch);
    std::fill(out, out + width(), 0.0f);
    std::vector<std::pair<NodeKey, int>>& nodes = scratch->nodes;
    nodes.clear();
    float* a = out;
    float* x = out + a_size();
    float* e = x + x_size();
    for (size_t l = 0; l < q.patterns.size(); ++l) {
      const auto& t = q.patterns[order[l]];
      int i = NodeOf(t.s, q, &nodes);
      int j = NodeOf(t.o, q, &nodes);
      // A_ijl = 1: edge l from node i to node j.
      a[(static_cast<size_t>(i) * max_nodes_ + j) * max_edges_ + l] = 1.0f;
      pred_enc_.Encode(t.p.bound() ? t.p.value : 0,
                       e + l * pred_enc_.width());
    }
    for (const auto& [key, idx] : nodes) {
      rdf::TermId value =
          key.first ? rdf::kUnboundTerm
                    : static_cast<rdf::TermId>(key.second);
      node_enc_.Encode(value, x + static_cast<size_t>(idx) *
                                      node_enc_.width());
    }
  }

  // Sparse mirror of EncodeWithScratch: appends the nonzero columns of
  // one query's row to *cols in ascending order — the dense kernels'
  // column sweep order, which the bit-compatibility contract of
  // nn::SparseRows requires. Ascending order comes cheap: the A, X, and
  // E regions are emitted in region order, X and E are ascending by
  // construction (node slots / edge slots visited in index order, bits
  // ascending within a term), and only the <= max_edges_ A cells need an
  // insertion sort. No cell is emitted twice: A cells differ in the edge
  // coordinate l, X/E cells in node/edge slot.
  void EmitSparseColumns(const Query& q, std::vector<uint32_t>* cols,
                         Scratch* scratch) const {
    const int* order = CanonicalOrder(q, scratch);
    std::vector<std::pair<NodeKey, int>>& nodes = scratch->nodes;
    nodes.clear();
    std::vector<uint32_t>& a_cols = scratch->cols;
    a_cols.clear();
    const uint32_t x_base = static_cast<uint32_t>(a_size());
    const uint32_t e_base = static_cast<uint32_t>(a_size() + x_size());
    for (size_t l = 0; l < q.patterns.size(); ++l) {
      const auto& t = q.patterns[order[l]];
      int i = NodeOf(t.s, q, &nodes);
      int j = NodeOf(t.o, q, &nodes);
      const uint32_t a_col = static_cast<uint32_t>(
          (static_cast<size_t>(i) * max_nodes_ + j) * max_edges_ + l);
      // Insertion into the sorted prefix (a handful of edges per query).
      size_t pos = a_cols.size();
      a_cols.push_back(a_col);
      while (pos > 0 && a_cols[pos - 1] > a_col) {
        a_cols[pos] = a_cols[pos - 1];
        a_cols[--pos] = a_col;
      }
    }
    cols->insert(cols->end(), a_cols.begin(), a_cols.end());
    for (const auto& [key, idx] : nodes) {
      rdf::TermId value =
          key.first ? rdf::kUnboundTerm
                    : static_cast<rdf::TermId>(key.second);
      node_enc_.EncodeSparse(
          value,
          x_base + static_cast<uint32_t>(idx * node_enc_.width()), cols);
    }
    for (size_t l = 0; l < q.patterns.size(); ++l) {
      const auto& t = q.patterns[order[l]];
      pred_enc_.EncodeSparse(
          t.p.bound() ? t.p.value : 0,
          e_base + static_cast<uint32_t>(l * pred_enc_.width()), cols);
    }
  }

  std::string name() const override {
    return util::StrFormat("sg-n%d-e%d-%s", max_nodes_, max_edges_,
                           TermEncodingName(node_enc_.encoding()));
  }

  size_t a_size() const {
    return static_cast<size_t>(max_nodes_) * max_nodes_ * max_edges_;
  }
  size_t x_size() const {
    return static_cast<size_t>(max_nodes_) * node_enc_.width();
  }
  size_t e_size() const {
    return static_cast<size_t>(max_edges_) * pred_enc_.width();
  }

 private:
  int max_nodes_;
  int max_edges_;
  TermEncoder node_enc_;
  TermEncoder pred_enc_;
  mutable Scratch scratch_;  // reused across Encode/EncodeBatch calls
};

}  // namespace

void QueryEncoder::EncodeBatch(std::span<const query::Query> queries,
                               nn::Matrix* out) const {
  // Encode overwrites its whole row (every encoder zero-fills first), so
  // a plain Resize suffices.
  out->Resize(queries.size(), width());
  for (size_t i = 0; i < queries.size(); ++i) {
    LMKG_CHECK(CanEncode(queries[i]))
        << "batch query not encodable: " << QueryToString(queries[i]);
    Encode(queries[i], out->row(i));
  }
}

SgFootprint ComputeSgFootprint(const query::Query& q) {
  std::map<NodeKey, int> nodes;
  for (const auto& t : q.patterns) {
    nodes.emplace(MakeNodeKey(t.s), static_cast<int>(nodes.size()));
    nodes.emplace(MakeNodeKey(t.o), static_cast<int>(nodes.size()));
  }
  SgFootprint fp;
  fp.nodes = static_cast<int>(nodes.size());
  fp.edges = static_cast<int>(q.patterns.size());
  return fp;
}

std::unique_ptr<QueryEncoder> MakeStarEncoder(const rdf::Graph& graph,
                                              int max_size,
                                              TermEncoding term_encoding) {
  return std::make_unique<StarEncoder>(graph, max_size, term_encoding);
}

std::unique_ptr<QueryEncoder> MakeChainEncoder(const rdf::Graph& graph,
                                               int max_size,
                                               TermEncoding term_encoding) {
  return std::make_unique<ChainEncoder>(graph, max_size, term_encoding);
}

std::unique_ptr<QueryEncoder> MakeSgEncoder(const rdf::Graph& graph,
                                            int max_nodes, int max_edges,
                                            TermEncoding term_encoding) {
  return std::make_unique<SgEncoderImpl>(graph, max_nodes, max_edges,
                                         term_encoding);
}

}  // namespace lmkg::encoding
