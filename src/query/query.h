#ifndef LMKG_QUERY_QUERY_H_
#define LMKG_QUERY_QUERY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rdf/triple.h"

namespace lmkg::query {

inline constexpr int kNoVar = -1;

/// One position of a triple pattern: either a bound term id or a query
/// variable. Variables are numbered densely from 0 within a Query.
struct PatternTerm {
  rdf::TermId value = rdf::kUnboundTerm;  // >= 1 iff bound
  int var = kNoVar;                       // >= 0 iff variable

  bool bound() const { return value != rdf::kUnboundTerm; }
  bool is_var() const { return var != kNoVar; }

  static PatternTerm Bound(rdf::TermId id) {
    PatternTerm t;
    t.value = id;
    return t;
  }
  static PatternTerm Variable(int v) {
    PatternTerm t;
    t.var = v;
    return t;
  }

  friend bool operator==(const PatternTerm&, const PatternTerm&) = default;
};

/// A triple pattern (s, p, o) where each position may be bound or a var.
struct TriplePattern {
  PatternTerm s;
  PatternTerm p;
  PatternTerm o;

  friend bool operator==(const TriplePattern&,
                         const TriplePattern&) = default;
};

/// Query topology classes considered by the paper (§V). LMKG focuses on
/// star and chain, the two most common shapes in real SPARQL logs
/// (Bonifati et al., VLDB 2017); anything else is kComposite and is
/// handled by decomposition (§IV "Query Decomposition").
enum class Topology {
  kSingle,     // one triple pattern
  kStar,       // >= 2 patterns sharing one subject
  kChain,      // o_i joins s_{i+1}
  kComposite,  // anything else
};

const char* TopologyName(Topology t);

/// A basic graph pattern (conjunction of triple patterns) with `num_vars`
/// variables numbered 0..num_vars-1. Optional variable names are kept for
/// printing/parsing round trips.
struct Query {
  std::vector<TriplePattern> patterns;
  int num_vars = 0;
  std::vector<std::string> var_names;  // may be empty; else size num_vars

  /// Number of triple patterns ("query size" in the paper's terms).
  size_t size() const { return patterns.size(); }

  /// True if no position holds a variable.
  bool fully_bound() const;

  /// Checks internal consistency: vars dense in [0, num_vars), no variable
  /// used both as a node (s/o) and as a predicate.
  bool Valid() const;
};

/// Builds a subject-star query: all patterns share `center` as subject.
Query MakeStarQuery(PatternTerm center,
                    const std::vector<std::pair<PatternTerm, PatternTerm>>&
                        predicate_object_pairs);

/// Builds a chain query from k+1 node terms and k predicate terms:
/// (n0,p0,n1), (n1,p1,n2), ...
Query MakeChainQuery(const std::vector<PatternTerm>& nodes,
                     const std::vector<PatternTerm>& predicates);

/// Non-owning star view: center + (p, o) pairs, indexing straight into
/// `q.patterns` — pair i is pattern i for a whole-query view (AsStar),
/// or pattern subset[i] for a subset view (AsStarSubset). Valid only
/// while the viewed Query (and, for a subset view, the caller's index
/// array) is alive and unmodified. Building one allocates nothing.
class StarView {
 public:
  StarView() = default;

  PatternTerm center() const { return pattern(0).s; }
  /// Number of (p, o) pairs (== number of viewed patterns).
  size_t size() const { return size_; }
  PatternTerm predicate(size_t i) const { return pattern(i).p; }
  PatternTerm object(size_t i) const { return pattern(i).o; }

 private:
  friend bool AsStar(const Query& q, StarView* view);
  friend bool AsStarSubset(const Query& q, std::span<const int> subset,
                           StarView* view);
  const TriplePattern& pattern(size_t i) const {
    return q_->patterns[subset_ == nullptr ? i
                                           : static_cast<size_t>(
                                                 subset_[i])];
  }
  const Query* q_ = nullptr;
  const int* subset_ = nullptr;  // nullptr = identity (pair i = pattern i)
  size_t size_ = 0;
};

/// Fills `*view` and returns true iff the query is star-shaped (all
/// subjects are the same term; single patterns qualify as stars of
/// size 1). Allocation-free.
bool AsStar(const Query& q, StarView* view);

/// Subset variant: views only the patterns q.patterns[subset[i]] and
/// returns true iff THAT sub-BGP is star-shaped, without materializing a
/// subquery. The view aliases `subset`, which must stay alive and
/// untouched while the view is used. Allocation-free.
bool AsStarSubset(const Query& q, std::span<const int> subset,
                  StarView* view);

/// Writes the canonical (p, o) pair order of a star into *order as a
/// sorted index permutation (bound terms by id before variables by
/// number) — the one ordering every consumer (encoders, LMKG-U term
/// sequences) must share so equivalent queries encode and estimate
/// identically. Reuses the caller's buffer; allocation-free once warm.
void CanonicalStarOrder(const StarView& star, std::vector<int>* order);

/// Writes the canonical pattern order of a composite (neither star nor
/// chain) sub-BGP into *order: the n patterns q.patterns[subset[i]]
/// (subset == nullptr means the identity 0..n) as ORIGINAL pattern
/// indices, sorted by a variable-independent structural key (bound terms
/// by id, every variable tying), ties kept in ascending index order.
/// ComputeFingerprint and SG-Encoding both order composites this way, so
/// equal fingerprints imply identical encoder input. For an ascending
/// subset the tie order equals the materialized subquery's pattern
/// order. Allocation-free once *order is warm.
void CanonicalCompositeOrder(const Query& q, const int* subset, size_t n,
                             std::vector<int>* order);

/// Reusable scratch for AsChain: the walk-order output plus an
/// open-addressing fingerprint table used for O(k) head detection, walk
/// lookup, and node-distinctness checking. A warm scratch (capacity >=
/// the largest query seen) makes AsChain allocation-free; hot paths hold
/// one per encoder/estimator and reuse it across queries.
struct ChainScratch {
  std::vector<int> order;  // pattern indices in walk order (the output)
  // Internal hash-table storage (managed by AsChain): slot fingerprints,
  // packed payloads, and a generation stamp per slot so clearing between
  // passes is O(1) instead of O(capacity).
  std::vector<uint64_t> slot_fp;
  std::vector<int64_t> slot_payload;
  std::vector<uint32_t> slot_generation;
  uint32_t generation = 0;
};

/// Non-owning chain view: nodes/predicates in walk order, realized as a
/// pattern permutation over `q.patterns`. Valid only while both the
/// viewed Query and the ChainScratch passed to AsChain are alive and
/// untouched (the view aliases scratch->order; the next AsChain call on
/// the same scratch invalidates it).
class ChainView {
 public:
  ChainView() = default;

  /// Number of edges/predicates k (nodes are k+1).
  size_t size() const { return k_; }
  size_t num_nodes() const { return k_ + 1; }
  /// Node i in walk order, i in [0, k].
  PatternTerm node(size_t i) const {
    return i < k_ ? pattern(i).s : pattern(k_ - 1).o;
  }
  /// Predicate i in walk order, i in [0, k).
  PatternTerm predicate(size_t i) const { return pattern(i).p; }
  /// Index into q.patterns of the i-th edge in walk order.
  int pattern_index(size_t i) const { return order_[i]; }

 private:
  friend bool AsChain(const Query& q, ChainScratch* scratch,
                      ChainView* view);
  friend bool AsChainSubset(const Query& q, std::span<const int> subset,
                            ChainScratch* scratch, ChainView* view);
  const TriplePattern& pattern(size_t i) const {
    return q_->patterns[order_[i]];
  }
  const Query* q_ = nullptr;
  const int* order_ = nullptr;
  size_t k_ = 0;
};

/// Fills `*view` and returns true iff the query is chain-shaped
/// (o_i joins s_{i+1} after reordering; no branching, cycles, or repeated
/// nodes). O(k) via fingerprint hashing; allocation-free once `scratch`
/// is warm.
bool AsChain(const Query& q, ChainScratch* scratch, ChainView* view);

/// Subset variant: considers only the patterns q.patterns[subset[i]] and
/// returns true iff that sub-BGP is chain-shaped, without materializing a
/// subquery. The view's pattern_index values are indices into the FULL
/// query's pattern list (i.e. subset entries in walk order). Same scratch
/// and lifetime rules as AsChain; allocation-free once warm.
bool AsChainSubset(const Query& q, std::span<const int> subset,
                   ChainScratch* scratch, ChainView* view);

/// Classifies the topology; chain detection reorders patterns if needed.
/// The scratch overload is allocation-free once warm; the plain overload
/// allocates a throwaway scratch per call (fine off the hot path).
Topology ClassifyTopology(const Query& q, ChainScratch* scratch);
Topology ClassifyTopology(const Query& q);

/// Renumbers variables densely and fills num_vars; call after hand-building
/// queries from pattern lists.
void NormalizeVariables(Query* q);

/// Debug representation like "(?0 <p3> e17) (?0 <p5> ?1)".
std::string QueryToString(const Query& q);

}  // namespace lmkg::query

#endif  // LMKG_QUERY_QUERY_H_
