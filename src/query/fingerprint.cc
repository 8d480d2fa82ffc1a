#include "query/fingerprint.h"

#include <algorithm>

namespace lmkg::query {

namespace {

// splitmix64 finalizer — the absorbed tokens are near-sequential term
// ids, so each lane needs real avalanche mixing between tokens.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Two independently-mixed 64-bit lanes absorbed token by token. Order
// matters (state chains through the mix), so the canonical emission order
// is part of the fingerprint.
class Hash128 {
 public:
  void Absorb(uint64_t token) {
    hi_ = Mix64(hi_ ^ (token * 0x9e3779b97f4a7c15ull));
    lo_ = Mix64(lo_ ^ (token * 0xc2b2ae3d27d4eb4full));
  }
  Fingerprint Done() const { return Fingerprint{hi_, lo_}; }

 private:
  uint64_t hi_ = 0x6a09e667f3bcc908ull;
  uint64_t lo_ = 0xbb67ae8584caa73bull;
};

// Shape tags keep the three canonical branches in disjoint token spaces.
enum : uint64_t { kTagStar = 1, kTagChain = 2, kTagOther = 3 };

// Token of one pattern term under canonical variable renumbering:
// variables get dense ids in order of first appearance in the emission
// order (bit 62 separates the spaces), so isomorphic renamings tokenize
// identically while distinct sharing structures stay distinct.
uint64_t TermToken(const PatternTerm& t, std::vector<int>* var_map,
                   int* next_var) {
  if (!t.is_var()) return static_cast<uint64_t>(t.value);
  int& mapped = (*var_map)[t.var];
  if (mapped < 0) mapped = (*next_var)++;
  return (uint64_t{1} << 62) |
         static_cast<uint64_t>(static_cast<uint32_t>(mapped));
}

// Shared implementation of ComputeFingerprint/ComputeSubsetFingerprint
// over the n patterns q.patterns[subset[0..n)] (subset == nullptr means
// the identity 0..n). Variable ids are the FULL query's ids in both
// cases; TermToken renumbers them by first appearance in the canonical
// emission order, which is what makes the subset fingerprint match the
// fingerprint of a materialized, re-normalized subquery.
Fingerprint ComputeFingerprintImpl(const Query& q, const int* subset,
                                   size_t n, FingerprintScratch* scratch) {
  Hash128 hash;
  scratch->var_map.assign(static_cast<size_t>(std::max(q.num_vars, 0)),
                          -1);
  int next_var = 0;

  StarView star;
  if (subset == nullptr
          ? AsStar(q, &star)
          : AsStarSubset(q, std::span<const int>(subset, n), &star)) {
    hash.Absorb(kTagStar);
    hash.Absorb(star.size());
    // Canonical (p, o) pair order — the exact ordering the encoders and
    // LMKG-U term sequences use, so cache equivalence classes match the
    // estimators' (equal fingerprint => identical encoder input =>
    // identical estimate).
    CanonicalStarOrder(star, &scratch->order);
    hash.Absorb(TermToken(star.center(), &scratch->var_map, &next_var));
    for (size_t i = 0; i < star.size(); ++i) {
      const int pair = scratch->order[i];
      hash.Absorb(
          TermToken(star.predicate(pair), &scratch->var_map, &next_var));
      hash.Absorb(
          TermToken(star.object(pair), &scratch->var_map, &next_var));
    }
    return hash.Done();
  }

  ChainView chain;
  if (subset == nullptr
          ? AsChain(q, &scratch->chain, &chain)
          : AsChainSubset(q, std::span<const int>(subset, n),
                          &scratch->chain, &chain)) {
    hash.Absorb(kTagChain);
    hash.Absorb(chain.size());
    // Walk order is unique (single head), so any pattern shuffle and any
    // variable renaming of the same chain emits the same token stream.
    for (size_t i = 0; i < chain.size(); ++i) {
      hash.Absorb(TermToken(chain.node(i), &scratch->var_map, &next_var));
      hash.Absorb(
          TermToken(chain.predicate(i), &scratch->var_map, &next_var));
    }
    hash.Absorb(
        TermToken(chain.node(chain.size()), &scratch->var_map, &next_var));
    return hash.Done();
  }

  // Composite fallback: patterns in query::CanonicalCompositeOrder, the
  // order SG-Encoding uses too, variables renumbered in that emission
  // order. Sound (different queries emit different streams) but only
  // best-effort canonical — see the header.
  hash.Absorb(kTagOther);
  hash.Absorb(n);
  CanonicalCompositeOrder(q, subset, n, &scratch->order);
  for (int index : scratch->order) {
    const TriplePattern& t = q.patterns[index];
    hash.Absorb(TermToken(t.s, &scratch->var_map, &next_var));
    hash.Absorb(TermToken(t.p, &scratch->var_map, &next_var));
    hash.Absorb(TermToken(t.o, &scratch->var_map, &next_var));
  }
  return hash.Done();
}

}  // namespace

Fingerprint ComputeFingerprint(const Query& q,
                               FingerprintScratch* scratch) {
  return ComputeFingerprintImpl(q, nullptr, q.patterns.size(), scratch);
}

Fingerprint ComputeSubsetFingerprint(const Query& q,
                                     std::span<const int> subset,
                                     FingerprintScratch* scratch) {
  return ComputeFingerprintImpl(q, subset.data(), subset.size(), scratch);
}

Fingerprint ComputeFingerprint(const Query& q) {
  FingerprintScratch scratch;
  return ComputeFingerprint(q, &scratch);
}

}  // namespace lmkg::query
