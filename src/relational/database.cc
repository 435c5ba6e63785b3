#include "relational/database.h"

#include <algorithm>
#include <set>

#include "util/hash.h"
#include "util/logging.h"

namespace opcqa {

namespace {

const std::vector<FactId> kEmptyBucket;

// Position of `id` in a value-sorted bucket (insertion point if absent).
std::vector<FactId>::const_iterator LowerBound(
    const std::vector<FactId>& bucket, FactId id) {
  const FactStore& store = FactStore::Global();
  return std::lower_bound(bucket.begin(), bucket.end(), id,
                          [&store](FactId a, FactId b) {
                            return store.Less(a, b);
                          });
}

}  // namespace

Database::Database(const Schema* schema) : schema_(schema) {
  OPCQA_CHECK(schema != nullptr);
  facts_.resize(schema->size());
}

const Schema& Database::schema() const {
  OPCQA_CHECK(schema_ != nullptr) << "default-constructed Database used";
  return *schema_;
}

bool Database::Insert(const Fact& fact) {
  OPCQA_CHECK_LT(fact.pred(), facts_.size());
  OPCQA_CHECK_EQ(fact.arity(), schema().Arity(fact.pred()))
      << "arity mismatch inserting into " << schema().RelationName(fact.pred());
  return InsertId(FactStore::Global().Intern(fact));
}

bool Database::InsertId(FactId id) {
  PredId pred = FactStore::Global().pred(id);
  OPCQA_CHECK_LT(pred, facts_.size());
  std::vector<FactId>& bucket = facts_[pred];
  auto it = LowerBound(bucket, id);
  if (it != bucket.end() && *it == id) return false;
  bucket.insert(it, id);
  ++size_;
  hash_ += HashMix64(FactStore::Global().hash(id));
  return true;
}

void Database::InsertAll(const std::vector<Fact>& facts) {
  for (const Fact& fact : facts) Insert(fact);
}

bool Database::Erase(const Fact& fact) {
  OPCQA_CHECK_LT(fact.pred(), facts_.size());
  FactId id = FactStore::Global().Find(fact);
  if (id == FactStore::kNotFound) return false;
  return EraseId(id);
}

bool Database::EraseId(FactId id) {
  PredId pred = FactStore::Global().pred(id);
  OPCQA_CHECK_LT(pred, facts_.size());
  std::vector<FactId>& bucket = facts_[pred];
  auto it = LowerBound(bucket, id);
  if (it == bucket.end() || *it != id) return false;
  bucket.erase(it);
  --size_;
  hash_ -= HashMix64(FactStore::Global().hash(id));
  return true;
}

size_t Database::HashWithout(const std::vector<FactId>& ids) const {
  size_t hash = hash_;
  for (FactId id : ids) hash -= HashMix64(FactStore::Global().hash(id));
  return hash;
}

bool Database::EqualsWithout(const std::vector<FactId>& ids,
                             const Database& other) const {
  if (other.size_ + ids.size() != size_ ||
      other.facts_.size() != facts_.size()) {
    return false;
  }
  // Both sides list each relation in the same value order, so `other`
  // must be a subsequence of this database whose skipped facts are all in
  // `ids`; the size check then makes the skipped facts exactly `ids`.
  for (size_t pred = 0; pred < facts_.size(); ++pred) {
    const std::vector<FactId>& kept = other.facts_[pred];
    size_t matched = 0;
    for (FactId id : facts_[pred]) {
      if (matched < kept.size() && kept[matched] == id) {
        ++matched;
      } else if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        return false;
      }
    }
    if (matched != kept.size()) return false;
  }
  return true;
}

bool Database::Contains(const Fact& fact) const {
  if (fact.pred() >= facts_.size()) return false;
  FactId id = FactStore::Global().Find(fact);
  if (id == FactStore::kNotFound) return false;
  return ContainsId(id);
}

bool Database::ContainsId(FactId id) const {
  PredId pred = FactStore::Global().pred(id);
  if (pred >= facts_.size()) return false;
  const std::vector<FactId>& bucket = facts_[pred];
  auto it = LowerBound(bucket, id);
  return it != bucket.end() && *it == id;
}

const std::vector<FactId>& Database::FactsOf(PredId pred) const {
  OPCQA_CHECK_LT(pred, facts_.size());
  return facts_[pred];
}

std::vector<FactId> Database::AllFactIds() const {
  std::vector<FactId> all;
  all.reserve(size_);
  for (const auto& bucket : facts_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  return all;
}

std::vector<Fact> Database::AllFacts() const {
  const FactStore& store = FactStore::Global();
  std::vector<Fact> all;
  all.reserve(size_);
  for (const auto& bucket : facts_) {
    for (FactId id : bucket) all.push_back(store.ToFact(id));
  }
  return all;
}

std::vector<ConstId> Database::ActiveDomain() const {
  const FactStore& store = FactStore::Global();
  std::set<ConstId> domain;
  for (const auto& bucket : facts_) {
    for (FactId id : bucket) {
      FactView v = store.View(id);
      domain.insert(v.args, v.args + v.arity);
    }
  }
  return std::vector<ConstId>(domain.begin(), domain.end());
}

void Database::SymmetricDifferenceIds(const Database& other,
                                      std::vector<FactId>* only_here,
                                      std::vector<FactId>* only_there) const {
  const FactStore& store = FactStore::Global();
  only_here->clear();
  only_there->clear();
  size_t buckets = std::max(facts_.size(), other.facts_.size());
  for (size_t p = 0; p < buckets; ++p) {
    const std::vector<FactId>& mine =
        p < facts_.size() ? facts_[p] : kEmptyBucket;
    const std::vector<FactId>& theirs =
        p < other.facts_.size() ? other.facts_[p] : kEmptyBucket;
    // Merge walk; equal values share an id, so the equality test is id ==.
    size_t i = 0, j = 0;
    while (i < mine.size() && j < theirs.size()) {
      if (mine[i] == theirs[j]) {
        ++i;
        ++j;
        continue;
      }
      if (store.Less(mine[i], theirs[j])) {
        only_here->push_back(mine[i++]);
      } else {
        only_there->push_back(theirs[j++]);
      }
    }
    only_here->insert(only_here->end(), mine.begin() + i, mine.end());
    only_there->insert(only_there->end(), theirs.begin() + j, theirs.end());
  }
}

void Database::SymmetricDifference(const Database& other,
                                   std::vector<Fact>* only_here,
                                   std::vector<Fact>* only_there) const {
  const FactStore& store = FactStore::Global();
  std::vector<FactId> here_ids, there_ids;
  SymmetricDifferenceIds(other, &here_ids, &there_ids);
  only_here->clear();
  only_there->clear();
  only_here->reserve(here_ids.size());
  only_there->reserve(there_ids.size());
  for (FactId id : here_ids) only_here->push_back(store.ToFact(id));
  for (FactId id : there_ids) only_there->push_back(store.ToFact(id));
}

size_t Database::SymmetricDifferenceSize(const Database& other) const {
  std::vector<FactId> here, there;
  SymmetricDifferenceIds(other, &here, &there);
  return here.size() + there.size();
}

bool Database::operator==(const Database& other) const {
  // Interned + value-sorted ⇒ set equality is id-vector equality.
  if (size_ != other.size_) return false;
  size_t buckets = std::max(facts_.size(), other.facts_.size());
  for (size_t p = 0; p < buckets; ++p) {
    const std::vector<FactId>& mine =
        p < facts_.size() ? facts_[p] : kEmptyBucket;
    const std::vector<FactId>& theirs =
        p < other.facts_.size() ? other.facts_[p] : kEmptyBucket;
    if (mine != theirs) return false;
  }
  return true;
}

bool Database::operator<(const Database& other) const {
  // Same order as the former vector<set<Fact>> lexicographic comparison.
  const FactStore& store = FactStore::Global();
  size_t buckets = std::min(facts_.size(), other.facts_.size());
  for (size_t p = 0; p < buckets; ++p) {
    const std::vector<FactId>& mine = facts_[p];
    const std::vector<FactId>& theirs = other.facts_[p];
    size_t n = std::min(mine.size(), theirs.size());
    for (size_t i = 0; i < n; ++i) {
      if (mine[i] == theirs[i]) continue;
      return store.Less(mine[i], theirs[i]);
    }
    if (mine.size() != theirs.size()) return mine.size() < theirs.size();
  }
  return facts_.size() < other.facts_.size();
}

std::string Database::ToString() const {
  const FactStore& store = FactStore::Global();
  std::string out;
  for (const auto& bucket : facts_) {
    for (FactId id : bucket) {
      if (!out.empty()) out += " ";
      out += store.ToFact(id).ToString(schema());
      out += ".";
    }
  }
  return out;
}

}  // namespace opcqa
