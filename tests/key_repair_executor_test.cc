// Tests for the Section 5 practical scheme (R − R_del loop) and for its
// two front ends sharing the one KeyRepairLoop.

#include <gtest/gtest.h>

#include "engine/key_repair_executor.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/ocqa.h"
#include "sql/approx_runner.h"

namespace opcqa {
namespace engine {
namespace {

KeySpec KeyOnFirst(const Schema& schema, const char* relation) {
  return KeySpec{schema.RelationOrDie(relation), {0}};
}

TEST(KeyRepairExecutorTest, SampledRelationsAreKeyConsistent) {
  gen::Workload w = gen::MakeKeyViolationWorkload(8, 4, 3, /*seed=*/21);
  KeyRepairExecutor executor(w.db, {KeyOnFirst(*w.schema, "R")}, /*seed=*/5);
  for (int round = 0; round < 10; ++round) {
    std::map<PredId, Relation> repaired = executor.SampleRepairedRelations();
    const Relation& r = repaired.at(w.schema->RelationOrDie("R"));
    std::set<ConstId> keys_seen;
    for (const Row& row : r.rows()) {
      EXPECT_TRUE(keys_seen.insert(row[0]).second)
          << "duplicate key survived: " << ConstName(row[0]);
    }
  }
}

TEST(KeyRepairExecutorTest, KeepOneUniformKeepsExactlyOnePerGroup) {
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 3, 2, /*seed=*/2);
  KeyRepairExecutor executor(w.db, {KeyOnFirst(*w.schema, "R")}, /*seed=*/3);
  std::map<PredId, Relation> repaired = executor.SampleRepairedRelations();
  // 6 keys → 6 surviving rows (one per group).
  EXPECT_EQ(repaired.at(w.schema->RelationOrDie("R")).size(), 6u);
}

TEST(KeyRepairExecutorTest, NonKeyedRelationsPassThrough) {
  gen::Workload w = gen::MakeJoinWorkload(10, 2, /*seed=*/4);
  // Only R is keyed; S and T must be returned unchanged.
  KeyRepairExecutor executor(w.db, {KeyOnFirst(*w.schema, "R")}, /*seed=*/6);
  std::map<PredId, Relation> repaired = executor.SampleRepairedRelations();
  PredId s = w.schema->RelationOrDie("S");
  EXPECT_EQ(repaired.at(s).size(), executor.RelationOf(s).size());
}

TEST(KeyRepairExecutorTest, FrequenciesMatchExactOcqaOnKeyPair) {
  // The executor's n_t/n must converge to the uniform-pick semantics:
  // for D = {R(a,b), R(a,c)} with keep-one-uniform, each value survives
  // with probability 1/2.
  gen::Workload w = gen::PaperKeyPairExample();
  KeyRepairExecutor executor(w.db, {KeyOnFirst(*w.schema, "R")}, /*seed=*/7);
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  ApproxAnswers answers = executor.Run(*q, 2000);
  EXPECT_NEAR(answers.Frequency({Const("b")}), 0.5, 0.05);
  EXPECT_NEAR(answers.Frequency({Const("c")}), 0.5, 0.05);
}

TEST(KeyRepairExecutorTest, TrustWeightedSkewsSurvival) {
  gen::Workload w = gen::PaperKeyPairExample();
  ExecutorOptions options;
  options.trust[{Const("a"), Const("b")}] = 9.0;
  options.trust[{Const("a"), Const("c")}] = 1.0;
  KeyRepairExecutor executor(w.db, {KeyOnFirst(*w.schema, "R")}, /*seed=*/8,
                             options);
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  ApproxAnswers answers = executor.Run(*q, 2000);
  EXPECT_NEAR(answers.Frequency({Const("b")}), 0.9, 0.05);
  EXPECT_NEAR(answers.Frequency({Const("c")}), 0.1, 0.05);
}

TEST(KeyRepairExecutorTest, KeepNoneProbabilityDropsWholeGroups) {
  gen::Workload w = gen::PaperKeyPairExample();
  ExecutorOptions options;
  options.keep_none_probability = 1.0;  // always trust neither
  KeyRepairExecutor executor(w.db, {KeyOnFirst(*w.schema, "R")}, /*seed=*/9,
                             options);
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  ApproxAnswers answers = executor.Run(*q, 50);
  EXPECT_TRUE(answers.frequency.empty());
}

TEST(KeyRepairExecutorTest, AgreesWithChainSamplerOnJoinQuery) {
  // End-to-end consistency: the engine loop and the generic chain sampler
  // approximate the same uniform-subset-repair distribution for CQs.
  // (keep-one-uniform corresponds to the ABC-style subset repairs; compare
  // against exact OCQA restricted to keep-one chains.)
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 1, 2, /*seed=*/10);
  KeyRepairExecutor executor(w.db, {KeyOnFirst(*w.schema, "R")},
                             /*seed=*/11);
  Result<Query> q = ParseQuery(*w.schema, "Q(x) := exists y R(x, y)");
  ASSERT_TRUE(q.ok());
  ApproxAnswers answers = executor.Run(*q, 500);
  // Every key value is present in every keep-one repair.
  for (const auto& [tuple, freq] : answers.frequency) {
    EXPECT_DOUBLE_EQ(freq, 1.0) << TupleToString(tuple);
  }
  EXPECT_EQ(answers.frequency.size(), 3u);
}

TEST(KeyRepairExecutorTest, RunWithGuaranteeUsesHoeffdingSamples) {
  gen::Workload w = gen::PaperKeyPairExample();
  KeyRepairExecutor executor(w.db, {KeyOnFirst(*w.schema, "R")},
                             /*seed=*/12);
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  ApproxAnswers answers = executor.RunWithGuarantee(*q, 0.1, 0.1);
  EXPECT_EQ(answers.rounds, 150u);
}

TEST(KeyRepairExecutorTest, CompositeKeysGroupCorrectly) {
  // Key = both columns: no two identical rows exist (set semantics), so
  // nothing is ever deleted.
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/13);
  PredId r = w.schema->RelationOrDie("R");
  KeyRepairExecutor executor(w.db, {KeySpec{r, {0, 1}}}, /*seed=*/14);
  std::map<PredId, Relation> repaired = executor.SampleRepairedRelations();
  EXPECT_EQ(repaired.at(r).size(), w.db.FactsOf(r).size());
}

// ---------------------------------------------------------------------
// One loop, two front ends
// ---------------------------------------------------------------------

/// The CQ front end over `db` and the SQL front end over the same tables
/// (columns c0, c1, ...), both keyed on column 0 of `keyed`, which both
/// draw in the listed order, at the same seed.
void ExpectFrontEndsAgree(const gen::Workload& w,
                          const std::vector<const char*>& keyed,
                          const char* cq, const char* sql,
                          double keep_none_probability, uint64_t seed) {
  std::vector<KeySpec> keys;
  std::vector<sql::TableKey> table_keys;
  for (const char* relation : keyed) {
    keys.push_back(KeyOnFirst(*w.schema, relation));
    table_keys.push_back({relation, {0}});
  }
  ExecutorOptions options;
  options.keep_none_probability = keep_none_probability;
  KeyRepairExecutor executor(w.db, keys, seed, options);
  Result<Query> q = ParseQuery(*w.schema, cq);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ApproxAnswers via_cq = executor.Run(*q, 400);

  sql::SqlApproxOptions sql_options;
  sql_options.keep_none_probability = keep_none_probability;
  sql::SqlApproxRunner runner(sql::Catalog::FromDatabase(w.db), table_keys,
                              seed, sql_options);
  Result<sql::SqlApproxResult> via_sql = runner.Run(sql, 400);
  ASSERT_TRUE(via_sql.ok()) << via_sql.status().ToString();

  EXPECT_FALSE(via_cq.frequency.empty());
  EXPECT_EQ(via_cq.rounds, via_sql->rounds);
  EXPECT_EQ(via_cq.frequency, via_sql->frequency);
}

TEST(KeyRepairLoopTest, CqAndSqlFrontEndsGiveIdenticalFrequencies) {
  ExpectFrontEndsAgree(gen::MakeKeyViolationWorkload(6, 3, 3, /*seed=*/31),
                       {"R"}, "Q(x, y) := R(x, y)", "SELECT c0, c1 FROM R",
                       /*keep_none_probability=*/0.0, /*seed=*/17);
  // Two keyed relations: both front ends draw R's groups, then S's.
  ExpectFrontEndsAgree(
      gen::MakeJoinWorkload(10, 4, /*seed=*/32), {"R", "S"},
      "Q(x, z) := exists y (R(x, y) & S(y, z))",
      "SELECT R.c0, S.c1 FROM R, S WHERE R.c1 = S.c0",
      /*keep_none_probability=*/0.0, /*seed=*/18);
}

TEST(KeyRepairLoopTest, KeepNoneWithoutTrustIsHonouredByBothFrontEnds) {
  ExpectFrontEndsAgree(gen::MakeKeyViolationWorkload(6, 3, 3, /*seed=*/33),
                       {"R"}, "Q(x, y) := R(x, y)", "SELECT c0, c1 FROM R",
                       /*keep_none_probability=*/0.5, /*seed=*/19);
  // On D = {R(a,b), R(a,c)} each value survives with (1 − 0.5)/2.
  gen::Workload w = gen::PaperKeyPairExample();
  ExecutorOptions options;
  options.keep_none_probability = 0.5;
  KeyRepairExecutor executor(w.db, {KeyOnFirst(*w.schema, "R")}, /*seed=*/20,
                             options);
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  ApproxAnswers answers = executor.Run(*q, 2000);
  EXPECT_NEAR(answers.Frequency({Const("b")}), 0.25, 0.05);
  EXPECT_NEAR(answers.Frequency({Const("c")}), 0.25, 0.05);
}

TEST(KeyRepairLoopTest, EvaluationErrorStopsTheLoop) {
  gen::Workload w = gen::PaperKeyPairExample();
  Relation r = Relation::FromDatabase(w.db, w.schema->RelationOrDie("R"));
  KeyRepairLoop loop({KeyedRelation{&r, {0}}}, /*seed=*/21, {});
  size_t calls = 0;
  Result<ApproxAnswers> answers =
      loop.Run(10, [&](const Deletions& deletions) -> Result<Relation> {
        ++calls;
        EXPECT_EQ(deletions.size(), 1u);
        EXPECT_EQ(deletions[0].size(), 1u);  // one of the two rows goes
        return Status::Internal("evaluation failed");
      });
  EXPECT_FALSE(answers.ok());
  EXPECT_EQ(calls, 1u);
}

}  // namespace
}  // namespace engine
}  // namespace opcqa
