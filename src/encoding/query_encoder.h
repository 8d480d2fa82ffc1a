#ifndef LMKG_ENCODING_QUERY_ENCODER_H_
#define LMKG_ENCODING_QUERY_ENCODER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "encoding/term_encoder.h"
#include "nn/tensor.h"
#include "query/query.h"
#include "rdf/graph.h"

namespace lmkg::encoding {

/// Featurizes whole queries into fixed-width float vectors — the input of
/// LMKG-S (paper §V-A). Two families exist:
///
///   * Pattern-bound (§V-A2): a flat concatenation of term encodings tied
///     to one topology and maximum size. Compact, but one model per shape.
///   * SG-Encoding (§V-A1): (A, X, E) — adjacency tensor + node feature
///     matrix + predicate feature matrix. Topology-agnostic: one model can
///     serve star, chain, and composite queries up to (max_nodes,
///     max_edges).
///
/// Queries smaller than the encoder's capacity are padded with zeros
/// (absent terms), which is what lets one size-k model answer size-<k
/// queries (paper Table II discussion).
///
/// Thread safety: encoders keep internal canonicalization scratch that is
/// reused across Encode/EncodeBatch calls so the per-query hot path is
/// allocation-free once warm (pinned by tests/alloc_test.cc). As a
/// consequence, concurrent Encode calls on the SAME encoder instance are
/// not safe; use one encoder per thread.
class QueryEncoder {
 public:
  virtual ~QueryEncoder() = default;

  /// Width of the feature vector in floats.
  virtual size_t width() const = 0;
  /// Whether this encoder can represent the query (topology + capacity).
  virtual bool CanEncode(const query::Query& q) const = 0;
  /// Writes the feature vector into out[0..width()). Requires CanEncode.
  virtual void Encode(const query::Query& q, float* out) const = 0;
  virtual std::string name() const = 0;

  /// Convenience: encode into a fresh vector.
  std::vector<float> EncodeToVector(const query::Query& q) const {
    std::vector<float> out(width(), 0.0f);
    Encode(q, out.data());
    return out;
  }

  /// Encodes a batch of queries as one feature matrix: `out` is resized
  /// to (queries.size(), width()) and row i receives the encoding of
  /// queries[i] — the input-assembly step of batched inference. Requires
  /// CanEncode for every query. Rows are identical to per-query Encode
  /// output; encoders override this to reuse canonicalization scratch
  /// across the batch instead of reallocating it per query.
  virtual void EncodeBatch(std::span<const query::Query> queries,
                           nn::Matrix* out) const;

  /// Sparse variant of EncodeBatch: row i of `out` lists the ascending
  /// column indices Encode would set to 1.0 (all encodings here are
  /// 0/1-valued). Returns false if this encoder has no sparse path, in
  /// which case `out` is untouched and the caller falls back to
  /// EncodeBatch. The estimation hot path prefers this form — no dense
  /// zero-fill, and the first network layer consumes the indices
  /// directly (nn::Sequential::ForwardSparseInput) with bit-identical
  /// results.
  virtual bool EncodeBatchSparse(std::span<const query::Query> /*queries*/,
                                 nn::SparseRows* /*out*/) const {
    return false;
  }
};

/// Pattern-bound star encoder: [subject | p1 o1 | ... | pk ok], pairs in
/// canonical (p, o) order so equivalent queries encode identically.
std::unique_ptr<QueryEncoder> MakeStarEncoder(const rdf::Graph& graph,
                                              int max_size,
                                              TermEncoding term_encoding);

/// Pattern-bound chain encoder: [n1 p1 n2 ... pk nk+1] in walk order.
std::unique_ptr<QueryEncoder> MakeChainEncoder(const rdf::Graph& graph,
                                               int max_size,
                                               TermEncoding term_encoding);

/// SG-Encoding with capacity for `max_nodes` nodes and `max_edges` edges.
/// Layout: [A | X | E] with A row-major (i * n + j) * e + l, X and E one
/// row per node/edge. Star queries place the centre at node 0 and objects
/// in canonical predicate order; chains use walk order; composite queries
/// use query::CanonicalCompositeOrder (the fingerprint's order).
std::unique_ptr<QueryEncoder> MakeSgEncoder(const rdf::Graph& graph,
                                            int max_nodes, int max_edges,
                                            TermEncoding term_encoding);

/// Capacity planning helpers: the (nodes, edges) footprint of a query
/// under SG-Encoding.
struct SgFootprint {
  int nodes = 0;
  int edges = 0;
};
SgFootprint ComputeSgFootprint(const query::Query& q);

}  // namespace lmkg::encoding

#endif  // LMKG_ENCODING_QUERY_ENCODER_H_
