#include "query/query.h"

#include <algorithm>
#include <array>
#include <map>

#include "util/check.h"
#include "util/strings.h"

namespace lmkg::query {

const char* TopologyName(Topology t) {
  switch (t) {
    case Topology::kSingle:
      return "single";
    case Topology::kStar:
      return "star";
    case Topology::kChain:
      return "chain";
    case Topology::kComposite:
      return "composite";
  }
  return "?";
}

bool Query::fully_bound() const {
  for (const auto& t : patterns)
    if (t.s.is_var() || t.p.is_var() || t.o.is_var()) return false;
  return true;
}

bool Query::Valid() const {
  std::vector<int> seen_node(num_vars, 0);
  std::vector<int> seen_pred(num_vars, 0);
  for (const auto& t : patterns) {
    for (const PatternTerm* term : {&t.s, &t.p, &t.o}) {
      if (term->is_var()) {
        if (term->bound()) return false;
        if (term->var < 0 || term->var >= num_vars) return false;
      } else if (!term->bound()) {
        return false;  // neither bound nor variable
      }
    }
    if (t.s.is_var()) seen_node[t.s.var] = 1;
    if (t.o.is_var()) seen_node[t.o.var] = 1;
    if (t.p.is_var()) seen_pred[t.p.var] = 1;
  }
  for (int v = 0; v < num_vars; ++v) {
    if (!seen_node[v] && !seen_pred[v]) return false;  // unused var
    if (seen_node[v] && seen_pred[v]) return false;    // mixed id spaces
  }
  if (!var_names.empty() &&
      var_names.size() != static_cast<size_t>(num_vars))
    return false;
  return true;
}

Query MakeStarQuery(
    PatternTerm center,
    const std::vector<std::pair<PatternTerm, PatternTerm>>&
        predicate_object_pairs) {
  Query q;
  for (const auto& [p, o] : predicate_object_pairs) {
    TriplePattern t;
    t.s = center;
    t.p = p;
    t.o = o;
    q.patterns.push_back(t);
  }
  NormalizeVariables(&q);
  return q;
}

Query MakeChainQuery(const std::vector<PatternTerm>& nodes,
                     const std::vector<PatternTerm>& predicates) {
  LMKG_CHECK_EQ(nodes.size(), predicates.size() + 1);
  Query q;
  for (size_t i = 0; i < predicates.size(); ++i) {
    TriplePattern t;
    t.s = nodes[i];
    t.p = predicates[i];
    t.o = nodes[i + 1];
    q.patterns.push_back(t);
  }
  NormalizeVariables(&q);
  return q;
}

void NormalizeVariables(Query* q) {
  std::map<int, int> remap;
  auto renumber = [&](PatternTerm* t) {
    if (!t->is_var()) return;
    auto [it, inserted] =
        remap.emplace(t->var, static_cast<int>(remap.size()));
    t->var = it->second;
  };
  for (auto& t : q->patterns) {
    renumber(&t.s);
    renumber(&t.p);
    renumber(&t.o);
  }
  q->num_vars = static_cast<int>(remap.size());
  if (!q->var_names.empty()) {
    std::vector<std::string> names(remap.size());
    for (const auto& [old_v, new_v] : remap) {
      if (old_v >= 0 && old_v < static_cast<int>(q->var_names.size()))
        names[new_v] = q->var_names[old_v];
    }
    q->var_names = std::move(names);
  }
}

namespace {

// Two pattern terms refer to the same query node iff they are the same
// variable or the same bound id.
bool SameTerm(const PatternTerm& a, const PatternTerm& b) {
  if (a.is_var() != b.is_var()) return false;
  return a.is_var() ? a.var == b.var : a.value == b.value;
}

// Injective 64-bit encoding of a pattern term's node identity: two terms
// have equal fingerprints iff SameTerm holds. Bit 63 separates the
// variable and bound-id spaces.
uint64_t Fingerprint(const PatternTerm& t) {
  return t.is_var()
             ? (uint64_t{1} << 63) |
                   static_cast<uint64_t>(static_cast<uint32_t>(t.var))
             : static_cast<uint64_t>(t.value);
}

// splitmix64 finalizer — fingerprints are near-sequential ids, so they
// need real mixing before masking to a power-of-two table.
uint64_t MixFingerprint(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Open-addressing fingerprint -> payload map over ChainScratch storage.
// Clear() is O(1) (generation bump); the table never rehashes mid-pass
// because Reserve sizes it to 2x the element count up front.
class TermTable {
 public:
  TermTable(ChainScratch* scratch, size_t max_entries)
      : scratch_(*scratch) {
    size_t capacity = 16;
    while (capacity < 2 * max_entries) capacity *= 2;
    if (scratch_.slot_fp.size() < capacity) {
      scratch_.slot_fp.resize(capacity);
      scratch_.slot_payload.resize(capacity);
      scratch_.slot_generation.assign(capacity, 0);
      scratch_.generation = 0;
    }
    mask_ = scratch_.slot_fp.size() - 1;
    Clear();
  }

  void Clear() {
    // A wrapped generation counter would make slots stamped 2^32 clears
    // ago read as live again (a long-lived server clears ~3x per
    // AsChain, so this is hours, not forever) — rewind by wiping the
    // stamps once per wrap.
    if (++scratch_.generation == 0) {
      std::fill(scratch_.slot_generation.begin(),
                scratch_.slot_generation.end(), 0u);
      scratch_.generation = 1;
    }
  }

  // Returns the slot for `fp`, inserting it with `initial` payload if
  // absent. `inserted` reports which happened.
  int64_t* FindOrInsert(uint64_t fp, int64_t initial, bool* inserted) {
    size_t slot = MixFingerprint(fp) & mask_;
    while (true) {
      if (scratch_.slot_generation[slot] != scratch_.generation) {
        scratch_.slot_generation[slot] = scratch_.generation;
        scratch_.slot_fp[slot] = fp;
        scratch_.slot_payload[slot] = initial;
        *inserted = true;
        return &scratch_.slot_payload[slot];
      }
      if (scratch_.slot_fp[slot] == fp) {
        *inserted = false;
        return &scratch_.slot_payload[slot];
      }
      slot = (slot + 1) & mask_;
    }
  }

  // Returns the payload slot for `fp`, or nullptr if absent.
  int64_t* Find(uint64_t fp) {
    size_t slot = MixFingerprint(fp) & mask_;
    while (scratch_.slot_generation[slot] == scratch_.generation) {
      if (scratch_.slot_fp[slot] == fp)
        return &scratch_.slot_payload[slot];
      slot = (slot + 1) & mask_;
    }
    return nullptr;
  }

 private:
  ChainScratch& scratch_;
  size_t mask_;
};

}  // namespace

bool AsStar(const Query& q, StarView* view) {
  if (q.patterns.empty()) return false;
  const PatternTerm& center = q.patterns[0].s;
  for (const auto& t : q.patterns)
    if (!SameTerm(t.s, center)) return false;
  view->q_ = &q;
  view->subset_ = nullptr;
  view->size_ = q.patterns.size();
  return true;
}

bool AsStarSubset(const Query& q, std::span<const int> subset,
                  StarView* view) {
  if (subset.empty()) return false;
  const PatternTerm& center = q.patterns[subset[0]].s;
  for (int index : subset)
    if (!SameTerm(q.patterns[index].s, center)) return false;
  view->q_ = &q;
  view->subset_ = subset.data();
  view->size_ = subset.size();
  return true;
}

void CanonicalStarOrder(const StarView& star, std::vector<int>* order) {
  order->resize(star.size());
  for (size_t i = 0; i < star.size(); ++i)
    (*order)[i] = static_cast<int>(i);
  // Sort key: bound terms by id first, then variables by number.
  auto key = [](const PatternTerm& t) {
    return t.bound() ? std::pair<uint64_t, uint64_t>(0, t.value)
                     : std::pair<uint64_t, uint64_t>(
                           1, static_cast<uint64_t>(t.var));
  };
  std::sort(order->begin(), order->end(), [&](int a, int b) {
    return std::pair(key(star.predicate(a)), key(star.object(a))) <
           std::pair(key(star.predicate(b)), key(star.object(b)));
  });
}

namespace {

// Variable-independent structural sort key for composite patterns: bound
// terms order by id, every variable ties at the same key.
std::array<uint64_t, 6> StructuralKey(const TriplePattern& t) {
  auto part = [](const PatternTerm& term) -> std::array<uint64_t, 2> {
    return term.is_var()
               ? std::array<uint64_t, 2>{1, 0}
               : std::array<uint64_t, 2>{0,
                                         static_cast<uint64_t>(term.value)};
  };
  const auto s = part(t.s), p = part(t.p), o = part(t.o);
  return {s[0], s[1], p[0], p[1], o[0], o[1]};
}

}  // namespace

void CanonicalCompositeOrder(const Query& q, const int* subset, size_t n,
                             std::vector<int>* order) {
  order->resize(n);
  for (size_t i = 0; i < n; ++i)
    (*order)[i] = subset == nullptr ? static_cast<int>(i) : subset[i];
  // std::sort with the original index as tie-break reproduces
  // stable_sort's order without its temporary-buffer allocation.
  std::sort(order->begin(), order->end(), [&](int a, int b) {
    const auto key_a = StructuralKey(q.patterns[a]);
    const auto key_b = StructuralKey(q.patterns[b]);
    if (key_a != key_b) return key_a < key_b;
    return a < b;
  });
}

namespace {

// Shared implementation of AsChain/AsChainSubset over the k patterns
// q.patterns[Pat(0..k)], where Pat(j) = subset ? subset[j] : j. The walk
// order written into scratch->order (and the walk itself) always uses
// ORIGINAL pattern indices, so ChainView accessors work identically for
// both entry points.
bool AsChainImpl(const Query& q, const int* subset, size_t k,
                 ChainScratch* scratch, ChainView* view) {
  auto pat = [&](size_t j) -> const TriplePattern& {
    return q.patterns[subset == nullptr ? j
                                        : static_cast<size_t>(subset[j])];
  };
  auto original = [&](size_t j) -> int {
    return subset == nullptr ? static_cast<int>(j) : subset[j];
  };
  if (k == 1) {
    scratch->order[0] = original(0);
    return true;
  }

  TermTable table(scratch, k + 1);

  // Head detection in O(k): hash the object terms, then scan subjects.
  // The head is the unique pattern whose subject is no OTHER pattern's
  // object (a pattern's own object does not disqualify its subject —
  // payload packs occurrence count and one owner index to preserve that).
  for (size_t j = 0; j < k; ++j) {
    bool inserted;
    int64_t* payload = table.FindOrInsert(
        Fingerprint(pat(j).o),
        (int64_t{1} << 32) | static_cast<int64_t>(original(j)),
        &inserted);
    if (!inserted)
      *payload += int64_t{1} << 32;  // count++, owner stays the first
  }
  int head = -1;
  for (size_t i = 0; i < k; ++i) {
    const int64_t* payload = table.Find(Fingerprint(pat(i).s));
    const bool is_object =
        payload != nullptr &&
        ((*payload >> 32) >= 2 ||
         static_cast<int>(*payload & 0xffffffff) != original(i));
    if (!is_object) {
      if (head != -1) {
        // Two heads: not a single chain — composite shapes go through
        // decomposition.
        return false;
      }
      head = static_cast<int>(i);
    }
  }
  if (head == -1) return false;  // cyclic

  // Subject -> pattern index map. A duplicate subject is branching: the
  // walk below consumes every pattern, so it would reach the shared
  // subject with two candidate continuations and fail anyway.
  table.Clear();
  for (size_t j = 0; j < k; ++j) {
    bool inserted;
    table.FindOrInsert(Fingerprint(pat(j).s),
                       static_cast<int64_t>(original(j)), &inserted);
    if (!inserted) return false;
  }

  // Walk from the head, marking consumed patterns with bit 32.
  uint64_t current = Fingerprint(pat(static_cast<size_t>(head)).s);
  for (size_t step = 0; step < k; ++step) {
    int64_t* payload = table.Find(current);
    if (payload == nullptr) return false;            // disconnected
    if (*payload & (int64_t{1} << 32)) return false;  // revisit: cycle
    const int next = static_cast<int>(*payload & 0xffffffff);
    *payload |= int64_t{1} << 32;
    scratch->order[step] = next;
    current = Fingerprint(q.patterns[next].o);
  }

  // All k+1 nodes along the chain must be distinct query terms, otherwise
  // the shape is a cycle/petal.
  table.Clear();
  for (size_t i = 0; i <= k; ++i) {
    bool inserted;
    table.FindOrInsert(Fingerprint(view->node(i)), 0, &inserted);
    if (!inserted) return false;
  }
  return true;
}

}  // namespace

bool AsChain(const Query& q, ChainScratch* scratch, ChainView* view) {
  const size_t k = q.patterns.size();
  if (k == 0) return false;
  scratch->order.resize(k);
  view->q_ = &q;
  view->order_ = scratch->order.data();
  view->k_ = k;
  return AsChainImpl(q, nullptr, k, scratch, view);
}

bool AsChainSubset(const Query& q, std::span<const int> subset,
                   ChainScratch* scratch, ChainView* view) {
  const size_t k = subset.size();
  if (k == 0) return false;
  scratch->order.resize(k);
  view->q_ = &q;
  view->order_ = scratch->order.data();
  view->k_ = k;
  return AsChainImpl(q, subset.data(), k, scratch, view);
}

Topology ClassifyTopology(const Query& q, ChainScratch* scratch) {
  if (q.patterns.size() <= 1) return Topology::kSingle;
  StarView star;
  if (AsStar(q, &star)) return Topology::kStar;
  ChainView chain;
  if (AsChain(q, scratch, &chain)) return Topology::kChain;
  return Topology::kComposite;
}

Topology ClassifyTopology(const Query& q) {
  ChainScratch scratch;
  return ClassifyTopology(q, &scratch);
}

std::string QueryToString(const Query& q) {
  auto term = [&](const PatternTerm& t) -> std::string {
    if (t.is_var()) {
      if (!q.var_names.empty() &&
          t.var < static_cast<int>(q.var_names.size()))
        return "?" + q.var_names[t.var];
      return util::StrFormat("?%d", t.var);
    }
    return util::StrFormat("%u", t.value);
  };
  std::vector<std::string> parts;
  for (const auto& t : q.patterns)
    parts.push_back(util::StrFormat("(%s %s %s)", term(t.s).c_str(),
                                    term(t.p).c_str(), term(t.o).c_str()));
  return util::Join(parts, " ");
}

}  // namespace lmkg::query
