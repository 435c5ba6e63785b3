// Database instances: finite sets of facts over a schema.
//
// Storage is one FactId vector per relation symbol, kept sorted in fact
// value order against the process-global FactStore. This gives the same
// deterministic iteration as the former per-relation std::set<Fact> while
// making copies (DFS branching, repair aggregation keys) plain uint32
// vector copies, membership an id binary search, and equality/hash pure
// id-level operations over hashes cached at intern time.

#ifndef OPCQA_RELATIONAL_DATABASE_H_
#define OPCQA_RELATIONAL_DATABASE_H_

#include <string>
#include <vector>

#include "relational/fact.h"
#include "relational/fact_store.h"
#include "relational/schema.h"

namespace opcqa {

class Database {
 public:
  Database() : schema_(nullptr) {}
  explicit Database(const Schema* schema);

  const Schema& schema() const;

  /// Inserts a fact; returns true if it was not already present.
  bool Insert(const Fact& fact);
  /// Inserts an already-interned fact by id.
  bool InsertId(FactId id);
  /// Inserts many facts.
  void InsertAll(const std::vector<Fact>& facts);
  /// Removes a fact; returns true if it was present.
  bool Erase(const Fact& fact);
  bool EraseId(FactId id);

  bool Contains(const Fact& fact) const;
  bool ContainsId(FactId id) const;
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Fact ids of one relation, sorted in fact value order.
  const std::vector<FactId>& FactsOf(PredId pred) const;

  /// All fact ids, grouped by relation, in sorted order.
  std::vector<FactId> AllFactIds() const;

  /// All facts materialized, grouped by relation, in sorted order.
  std::vector<Fact> AllFacts() const;

  /// The active domain dom(D): constants occurring in the instance, sorted.
  std::vector<ConstId> ActiveDomain() const;

  /// Symmetric difference ∆(D, D') as (only-in-this, only-in-other). The
  /// ⊆-minimality checks of classical (ABC) repairs compare these deltas.
  void SymmetricDifference(const Database& other,
                           std::vector<Fact>* only_here,
                           std::vector<Fact>* only_there) const;

  /// Id-level symmetric difference (a sorted-vector merge walk).
  void SymmetricDifferenceIds(const Database& other,
                              std::vector<FactId>* only_here,
                              std::vector<FactId>* only_there) const;

  /// Total size |∆(D, D')|.
  size_t SymmetricDifferenceSize(const Database& other) const;

  /// Set equality of the stored facts (an id-vector comparison).
  bool operator==(const Database& other) const;
  bool operator<(const Database& other) const;

  /// "R(a,b). R(a,c). S(d)." — deterministic, usable as a canonical key.
  std::string ToString() const;

  /// Set fingerprint: the commutative sum of mixed per-fact hashes cached
  /// at intern time, maintained incrementally by InsertId/EraseId — O(1)
  /// to read, O(1) to update per fact. Equal fact sets always hash equal;
  /// distinct sets collide only as ordinary 64-bit hash collisions (the
  /// repair-space transposition table verifies against the real id sets).
  size_t Hash() const { return hash_; }

  /// Hash() of this database with `ids` (a subset of its facts, each once)
  /// erased, derived without copying it.
  size_t HashWithout(const std::vector<FactId>& ids) const;
  /// True when this database with `ids` (a subset of its facts, each once)
  /// erased equals `other`, decided without copying it: a lockstep walk of
  /// the id lists, no fact value comparisons.
  bool EqualsWithout(const std::vector<FactId>& ids,
                     const Database& other) const;

 private:
  const Schema* schema_;
  std::vector<std::vector<FactId>> facts_;  // per PredId, value-sorted
  size_t size_ = 0;
  size_t hash_ = 0;
};

}  // namespace opcqa

#endif  // OPCQA_RELATIONAL_DATABASE_H_
