#include "repair/justified.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"

namespace opcqa {

namespace {

// All completions of a TGD violation (κ,h) w.r.t. db: the sets
// h′(head) − db over extensions h′ of h mapping existential variables into
// the base domain. Each completion is sorted/deduplicated.
std::set<std::vector<Fact>> CollectCompletions(const Database& db,
                                               const Constraint& tgd,
                                               const Assignment& h,
                                               const BaseSpec& base) {
  OPCQA_CHECK(tgd.is_tgd());
  std::set<std::vector<Fact>> completions;
  const std::vector<VarId>& exist = tgd.existential();
  const std::vector<ConstId>& domain = base.domain();
  Assignment extended = h;
  auto emit = [&]() {
    std::vector<Fact> missing;
    for (const Fact& fact : extended.ApplyAll(tgd.head())) {
      if (!db.Contains(fact)) missing.push_back(fact);
    }
    // missing is sorted because ApplyAll sorts and db filtering preserves
    // order.
    completions.insert(std::move(missing));
  };
  if (exist.empty()) {
    emit();
    return completions;
  }
  if (domain.empty()) return completions;
  std::vector<size_t> index(exist.size(), 0);
  for (;;) {
    for (size_t i = 0; i < exist.size(); ++i) {
      extended.Unbind(exist[i]);
      extended.Bind(exist[i], domain[index[i]]);
    }
    emit();
    size_t i = exist.size();
    bool done = true;
    while (i > 0) {
      --i;
      if (++index[i] < domain.size()) {
        done = false;
        break;
      }
      index[i] = 0;
    }
    if (done) break;
  }
  return completions;
}

// Keeps only the ⊊-minimal completions (Definition 3 tightness for +F).
std::vector<std::vector<Fact>> MinimalCompletions(
    const std::set<std::vector<Fact>>& completions) {
  auto is_subset = [](const std::vector<Fact>& a, const std::vector<Fact>& b) {
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
  };
  std::vector<std::vector<Fact>> minimal;
  for (const auto& candidate : completions) {
    bool dominated = false;
    for (const auto& other : completions) {
      if (other != candidate && is_subset(other, candidate)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) minimal.push_back(candidate);
  }
  return minimal;
}

// Lexicographic fact value order over id vectors: with each vector sorted,
// this is the order the equivalent std::set<Operation> would produce.
struct IdVectorValueLess {
  bool operator()(const std::vector<FactId>& a,
                  const std::vector<FactId>& b) const {
    const FactStore& store = FactStore::Global();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      if (a[i] == b[i]) continue;
      return store.Less(a[i], b[i]);
    }
    return a.size() < b.size();
  }
};

using IdSubsetSet = std::set<std::vector<FactId>, IdVectorValueLess>;

// Emits all non-empty subsets of a violation's body image as interned id
// vectors (the deletion pools of Proposition 1). Pool sizes are bounded by
// constraint body sizes. Id-level because the support of deletion chains
// is rebuilt at every state of the enumerator and the Sample walk.
void EmitDeletionSubsets(const ConstraintSet& constraints, const Violation& v,
                         std::vector<FactId>* image, IdSubsetSet* out) {
  BodyImageIds(constraints, v, image);
  OPCQA_CHECK_LE(image->size(), 20u)
      << "violation body image too large for subset enumeration";
  size_t n = image->size();
  std::vector<FactId> subset;
  for (size_t mask = 1; mask < (size_t{1} << n); ++mask) {
    subset.clear();
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) subset.push_back((*image)[i]);
    }
    out->insert(subset);
  }
}

// Materializes the deduplicated subsets as removal operations, appended in
// their (fact value lexicographic) order.
void AppendDeletions(const IdSubsetSet& subsets, std::vector<Operation>* ops) {
  ops->reserve(ops->size() + subsets.size());
  for (const std::vector<FactId>& ids : subsets) {
    ops->push_back(Operation::RemoveIds(ids));
  }
}

}  // namespace

std::vector<Operation> JustifiedDeletions(const Database& db,
                                          const ConstraintSet& constraints,
                                          const ViolationSet& violations) {
  (void)db;
  IdSubsetSet subsets;
  std::vector<FactId> image;
  for (const Violation& v : violations) {
    EmitDeletionSubsets(constraints, v, &image, &subsets);
  }
  std::vector<Operation> ops;
  AppendDeletions(subsets, &ops);
  return ops;
}

std::shared_ptr<const DeletionCandidateIndex> DeletionCandidateIndex::Build(
    const ConstraintSet& constraints, const ViolationSet& violations) {
  auto index = std::make_shared<DeletionCandidateIndex>();
  // Pass 1: the deduplicated candidate pool, in the emission order of
  // JustifiedDeletions (fact-value lexicographic).
  IdSubsetSet pool;
  std::vector<FactId> image;
  for (const Violation& v : violations) {
    EmitDeletionSubsets(constraints, v, &image, &pool);
  }
  std::map<std::vector<FactId>, uint32_t, IdVectorValueLess> rank_of;
  index->ops_.reserve(pool.size());
  for (const std::vector<FactId>& ids : pool) {
    rank_of.emplace(ids, static_cast<uint32_t>(index->ops_.size()));
    index->ops_.push_back(Operation::RemoveIds(ids));
  }
  // Pass 2, in id order: each violation's subsets as ranks into the pool,
  // and its body-image facts as (fact, id) incidences.
  auto size32 = [](const std::vector<uint32_t>& v) {
    return static_cast<uint32_t>(v.size());
  };
  std::vector<std::pair<FactId, uint32_t>> incidences;
  for (const Violation& v : violations) {
    uint32_t id = static_cast<uint32_t>(index->violations_.size());
    index->violations_.push_back(v);
    index->mixed_hashes_.push_back(HashMix64(v.Hash()));
    index->rank_begin_.push_back(size32(index->rank_data_));
    IdSubsetSet subsets;
    EmitDeletionSubsets(constraints, v, &image, &subsets);
    for (const std::vector<FactId>& ids : subsets) {
      index->rank_data_.push_back(rank_of.at(ids));
    }
    for (FactId fact : image) incidences.emplace_back(fact, id);
  }
  index->rank_begin_.push_back(size32(index->rank_data_));
  // Ids were emitted ascending per violation, so sorting by (fact, id)
  // leaves each fact's id list ascending.
  std::sort(incidences.begin(), incidences.end());
  std::vector<FactId>& facts = index->incident_facts_;
  for (const auto& [fact, id] : incidences) {
    if (facts.empty() || facts.back() != fact) {
      facts.push_back(fact);
      index->incident_begin_.push_back(size32(index->incident_data_));
    }
    index->incident_data_.push_back(id);
  }
  index->incident_begin_.push_back(size32(index->incident_data_));
  return index;
}

std::span<const uint32_t> DeletionCandidateIndex::Incident(FactId fact) const {
  const std::vector<FactId>& facts = incident_facts_;
  auto it = std::lower_bound(facts.begin(), facts.end(), fact);
  if (it == facts.end() || *it != fact) return {};
  size_t i = static_cast<size_t>(it - facts.begin());
  const uint32_t* data = incident_data_.data();
  return {data + incident_begin_[i], data + incident_begin_[i + 1]};
}

void DeletionCandidateIndex::WriteFor(const std::vector<uint32_t>& ids,
                                      std::vector<uint64_t>* marks,
                                      std::vector<Operation>* ops) const {
  // Union of the rank lists as a bitmap over ops_: reading its set bits
  // in order yields the ranks sorted and deduplicated without a sort.
  marks->assign((ops_.size() + 63) / 64, 0);
  for (uint32_t id : ids) {
    for (uint32_t i = rank_begin_[id]; i < rank_begin_[id + 1]; ++i) {
      (*marks)[rank_data_[i] / 64] |= uint64_t{1} << (rank_data_[i] % 64);
    }
  }
  size_t n = 0;
  for (size_t word = 0; word < marks->size(); ++word) {
    for (uint64_t bits = (*marks)[word]; bits != 0; bits &= bits - 1) {
      const Operation& op = ops_[word * 64 + std::countr_zero(bits)];
      if (n < ops->size()) {
        (*ops)[n] = op;
      } else {
        ops->push_back(op);
      }
      ++n;
    }
  }
  ops->resize(n);
}

std::vector<Operation> JustifiedOperations(const Database& db,
                                           const ConstraintSet& constraints,
                                           const ViolationSet& violations,
                                           const BaseSpec& base) {
  // Additions sort before removals (Operation::Kind order), so collecting
  // them separately and concatenating reproduces one sorted set.
  std::set<Operation> add_ops;
  IdSubsetSet del_subsets;
  std::vector<FactId> image;
  for (const Violation& v : violations) {
    EmitDeletionSubsets(constraints, v, &image, &del_subsets);
    const Constraint& c = constraints[v.constraint_index];
    if (!c.is_tgd()) continue;  // EGDs/DCs admit no justified additions
    std::set<std::vector<Fact>> completions =
        CollectCompletions(db, c, v.h, base);
    for (std::vector<Fact>& f : MinimalCompletions(completions)) {
      OPCQA_CHECK(!f.empty())
          << "empty completion for a violation — V(D,Σ) is stale";
      add_ops.insert(Operation::Add(std::move(f)));
    }
  }
  std::vector<Operation> ops(add_ops.begin(), add_ops.end());
  AppendDeletions(del_subsets, &ops);
  return ops;
}

bool IsJustified(const Database& db, const ConstraintSet& constraints,
                 const BaseSpec& base, const Operation& op) {
  ViolationSet violations = ComputeViolations(db, constraints);
  if (op.is_remove()) {
    // Justified iff F ⊆ h(ϕ) for some current violation (Proposition 1;
    // the subset relation is equivalent to Definition 3 for our classes).
    for (const Violation& v : violations) {
      const std::vector<Fact> image = BodyImage(constraints, v);
      bool subset = std::all_of(
          op.facts().begin(), op.facts().end(), [&](const Fact& f) {
            return std::binary_search(image.begin(), image.end(), f);
          });
      if (subset) return true;
    }
    return false;
  }
  // Addition: F must be a ⊊-minimal completion of some TGD violation.
  for (const Violation& v : violations) {
    const Constraint& c = constraints[v.constraint_index];
    if (!c.is_tgd()) continue;
    std::set<std::vector<Fact>> completions =
        CollectCompletions(db, c, v.h, base);
    if (completions.count(op.facts()) == 0) continue;
    bool minimal = true;
    for (const auto& other : completions) {
      if (other != op.facts() && !other.empty() &&
          std::includes(op.facts().begin(), op.facts().end(), other.begin(),
                        other.end())) {
        minimal = false;
        break;
      }
    }
    if (minimal) return true;
  }
  return false;
}

}  // namespace opcqa
