// The practical approximation scheme sketched at the end of Section 5.
//
// "The user sets ε and δ and computes n = 1/(2ε²)·ln(2/δ). We then do the
//  following n times: from each group of tuples in relation R that violate
//  a key, randomly pick at most one tuple to be left there, and collect
//  others in a relation R_del. Then run the original query Q in which each
//  relation R is replaced with R − R_del, and append the outcome to a
//  temporary table T. [...] for each tuple t̄, return n_t̄ / n."
//
// KeyRepairLoop is the one implementation of that loop: grouping by key,
// the survivor draw, and the n-round tally of distinct answer rows. Its
// front ends supply only the per-round evaluation of Q over R − R_del:
// KeyRepairExecutor below (conjunctive queries over the algebra engine)
// and sql::SqlApproxRunner (a rewritten SQL statement).
//
// The survivor draw is one rule per violating group: with probability
// `keep_none_probability` no tuple survives (Example 5: neither
// conflicting source is trusted); otherwise one survives, drawn by trust
// weight when weights are given and uniformly when not.

#ifndef OPCQA_ENGINE_KEY_REPAIR_EXECUTOR_H_
#define OPCQA_ENGINE_KEY_REPAIR_EXECUTOR_H_

#include <functional>
#include <map>
#include <vector>

#include "engine/algebra.h"
#include "util/random.h"
#include "util/status.h"

namespace opcqa {
namespace engine {

/// Key constraint on one relation: the positions forming the key.
struct KeySpec {
  PredId pred;
  std::vector<size_t> key_positions;
};

struct ExecutorOptions {
  /// Per-row trust weights (missing rows weigh 1); empty = uniform draw.
  std::map<Row, double> trust;
  /// Probability of keeping *no* tuple from a group of conflicting tuples.
  double keep_none_probability = 0.0;
};

struct ApproxAnswers {
  /// tuple → n_t / n.
  std::map<Tuple, double> frequency;
  size_t rounds = 0;

  double Frequency(const Tuple& tuple) const {
    auto it = frequency.find(tuple);
    return it == frequency.end() ? 0.0 : it->second;
  }
};

/// A dirty relation and the positions of its key.
struct KeyedRelation {
  const Relation* relation;
  std::vector<size_t> key_positions;
};

/// One round's R_del: per keyed relation, the indices of its deleted rows.
using Deletions = std::vector<std::vector<size_t>>;

class KeyRepairLoop {
 public:
  /// Evaluates Q over R − R_del for one round's deletions.
  using Evaluate = std::function<Result<Relation>(const Deletions&)>;

  /// Reads the relations only here. Every round draws the keyed relations
  /// in the given order, and each one's groups in key-value order.
  KeyRepairLoop(const std::vector<KeyedRelation>& keyed, uint64_t seed,
                const ExecutorOptions& options);

  Deletions SampleDeletions();

  /// The n-round loop; the first evaluation error ends it.
  Result<ApproxAnswers> Run(size_t rounds, const Evaluate& evaluate);

 private:
  struct Group {
    std::vector<size_t> rows;     // a violating group (size ≥ 2)
    std::vector<double> weights;  // empty = uniform survivor
  };
  std::vector<std::vector<Group>> groups_;  // per keyed relation
  double keep_none_probability_;
  Rng rng_;
};

/// The CQ front end: evaluates a conjunctive query with the algebra engine.
class KeyRepairExecutor {
 public:
  /// `db` is the dirty database; `keys` at most one key per relation, in
  /// the order rounds draw them.
  KeyRepairExecutor(const Database& db, std::vector<KeySpec> keys,
                    uint64_t seed, ExecutorOptions options = {});

  /// Materialized dirty relation for `pred`.
  const Relation& RelationOf(PredId pred) const;

  /// Samples one R_del per keyed relation and returns the map
  /// pred → R − R_del (non-keyed relations are returned unchanged).
  std::map<PredId, Relation> SampleRepairedRelations();

  ApproxAnswers Run(const Query& query, size_t rounds);

  /// n(ε,δ) from Sampler::NumSamples, then Run.
  ApproxAnswers RunWithGuarantee(const Query& query, double epsilon,
                                 double delta);

 private:
  std::map<PredId, Relation> Repaired(const Deletions& deletions) const;

  std::map<PredId, Relation> relations_;
  std::vector<KeySpec> keys_;
  KeyRepairLoop loop_;
};

}  // namespace engine
}  // namespace opcqa

#endif  // OPCQA_ENGINE_KEY_REPAIR_EXECUTOR_H_
