#include "engine/key_repair_executor.h"

#include <set>

#include "repair/sampler.h"
#include "util/logging.h"

namespace opcqa {
namespace engine {

KeyRepairLoop::KeyRepairLoop(const std::vector<KeyedRelation>& keyed,
                             uint64_t seed, const ExecutorOptions& options)
    : keep_none_probability_(options.keep_none_probability), rng_(seed) {
  for (const auto& [rel, positions] : keyed) {
    std::map<Row, std::vector<size_t>> by_key;
    for (size_t i = 0; i < rel->size(); ++i) {
      Row key_value;
      for (size_t pos : positions) {
        OPCQA_CHECK_LT(pos, rel->arity()) << "key position of " << rel->name();
        key_value.push_back(rel->rows()[i][pos]);
      }
      by_key[std::move(key_value)].push_back(i);
    }
    std::vector<Group>& groups = groups_.emplace_back();
    for (auto& [key_value, rows] : by_key) {
      if (rows.size() < 2) continue;
      Group& group = groups.emplace_back(Group{std::move(rows), {}});
      if (options.trust.empty()) continue;
      for (size_t row : group.rows) {
        auto it = options.trust.find(rel->rows()[row]);
        group.weights.push_back(it == options.trust.end() ? 1.0 : it->second);
      }
    }
  }
}

Deletions KeyRepairLoop::SampleDeletions() {
  Deletions deletions(groups_.size());
  for (size_t k = 0; k < groups_.size(); ++k) {
    for (const Group& group : groups_[k]) {
      size_t survivor = group.rows.size();  // out of range = keep none
      if (!rng_.Bernoulli(keep_none_probability_)) {
        survivor = group.weights.empty() ? rng_.UniformInt(group.rows.size())
                                         : rng_.WeightedIndex(group.weights);
      }
      for (size_t i = 0; i < group.rows.size(); ++i) {
        if (i != survivor) deletions[k].push_back(group.rows[i]);
      }
    }
  }
  return deletions;
}

Result<ApproxAnswers> KeyRepairLoop::Run(size_t rounds,
                                         const Evaluate& evaluate) {
  OPCQA_CHECK_GT(rounds, 0u);
  std::map<Tuple, size_t> counts;  // the temporary table T
  for (size_t round = 0; round < rounds; ++round) {
    Result<Relation> answers = evaluate(SampleDeletions());
    if (!answers.ok()) return answers.status();
    for (const Row& row : std::set<Row>(answers->rows().begin(),
                                        answers->rows().end())) {
      ++counts[row];
    }
  }
  ApproxAnswers result;
  result.rounds = rounds;
  for (const auto& [tuple, count] : counts) {
    result.frequency[tuple] =
        static_cast<double>(count) / static_cast<double>(rounds);
  }
  return result;
}

namespace {

std::map<PredId, Relation> LoadRelations(const Database& db) {
  std::map<PredId, Relation> relations;
  for (PredId pred = 0; pred < db.schema().size(); ++pred) {
    relations.emplace(pred, Relation::FromDatabase(db, pred));
  }
  return relations;
}

std::vector<KeyedRelation> Keyed(const std::map<PredId, Relation>& relations,
                                 const std::vector<KeySpec>& keys) {
  std::vector<KeyedRelation> keyed;
  for (const KeySpec& key : keys) {
    keyed.push_back({&relations.at(key.pred), key.key_positions});
  }
  return keyed;
}

}  // namespace

KeyRepairExecutor::KeyRepairExecutor(const Database& db,
                                     std::vector<KeySpec> keys, uint64_t seed,
                                     ExecutorOptions options)
    : relations_(LoadRelations(db)),
      keys_(std::move(keys)),
      loop_(Keyed(relations_, keys_), seed, options) {}

const Relation& KeyRepairExecutor::RelationOf(PredId pred) const {
  return relations_.at(pred);
}

std::map<PredId, Relation> KeyRepairExecutor::Repaired(
    const Deletions& deletions) const {
  std::map<PredId, Relation> repaired = relations_;
  for (size_t k = 0; k < keys_.size(); ++k) {
    const Relation& rel = relations_.at(keys_[k].pred);
    std::vector<bool> deleted(rel.size(), false);
    for (size_t index : deletions[k]) deleted[index] = true;
    Relation& reduced = repaired[keys_[k].pred] =
        Relation(rel.name(), rel.columns());
    for (size_t i = 0; i < rel.size(); ++i) {
      if (!deleted[i]) reduced.Add(rel.rows()[i]);
    }
  }
  return repaired;
}

std::map<PredId, Relation> KeyRepairExecutor::SampleRepairedRelations() {
  return Repaired(loop_.SampleDeletions());
}

ApproxAnswers KeyRepairExecutor::Run(const Query& query, size_t rounds) {
  return loop_
      .Run(rounds,
           [&](const Deletions& deletions) -> Result<Relation> {
             std::map<PredId, Relation> repaired = Repaired(deletions);
             std::map<PredId, const Relation*> pointers;
             for (const auto& [pred, rel] : repaired) pointers[pred] = &rel;
             return ExecuteConjunctive(query, pointers);
           })
      .value();
}

ApproxAnswers KeyRepairExecutor::RunWithGuarantee(const Query& query,
                                                  double epsilon,
                                                  double delta) {
  return Run(query, Sampler::NumSamples(epsilon, delta));
}

}  // namespace engine
}  // namespace opcqa
