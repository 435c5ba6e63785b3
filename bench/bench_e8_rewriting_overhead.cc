// E8 — The Section 5 implementation sketch's measurement: "modified
// queries in which relations R are replaced with R − R_del ... their
// performance is quite similar to that of the original query". Times the
// original CQ against the rewritten one on the algebra engine
// (google-benchmark) across database sizes.

#include <benchmark/benchmark.h>

#include "engine/key_repair_executor.h"
#include "engine/ocqa_session.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "planner/planner.h"
#include "repair/ocqa.h"
#include "repair/repair_cache.h"

namespace {

using namespace opcqa;
using namespace opcqa::engine;

struct JoinFixture {
  gen::Workload w;
  Query query;
  std::map<PredId, Relation> dirty;
  std::map<PredId, Relation> repaired;

  explicit JoinFixture(size_t rows)
      : w(gen::MakeJoinWorkload(rows, rows / 10 + 1, /*seed=*/500)),
        query(*ParseQuery(*w.schema,
                          "Q(x,u) := exists y,z (R(x,y), S(y,z), T(z,u))")) {
    for (PredId p = 0; p < w.schema->size(); ++p) {
      dirty.emplace(p, Relation::FromDatabase(w.db, p));
    }
    KeyRepairExecutor executor(
        w.db,
        {KeySpec{w.schema->RelationOrDie("R"), {0}},
         KeySpec{w.schema->RelationOrDie("S"), {0}},
         KeySpec{w.schema->RelationOrDie("T"), {0}}},
        /*seed=*/501);
    repaired = executor.SampleRepairedRelations();
  }

  std::map<PredId, const Relation*> Pointers(
      const std::map<PredId, Relation>& rels) const {
    std::map<PredId, const Relation*> out;
    for (const auto& [p, rel] : rels) out[p] = &rel;
    return out;
  }
};

void BM_OriginalQuery(benchmark::State& state) {
  JoinFixture fixture(static_cast<size_t>(state.range(0)));
  auto pointers = fixture.Pointers(fixture.dirty);
  for (auto _ : state) {
    Relation result = ExecuteConjunctive(fixture.query, pointers);
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows_per_rel"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_OriginalQuery)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Unit(benchmark::kMillisecond);

// The rewritten query runs over R − R_del (already materialized the way a
// DBMS would pipeline the anti-join); includes the difference cost.
void BM_RewrittenQueryWithDifference(benchmark::State& state) {
  JoinFixture fixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    // Materialize R_del = R − survivors, then run over R − R_del, exactly
    // the plan shape of the paper's loop.
    std::map<PredId, Relation> reduced;
    for (const auto& [p, rel] : fixture.dirty) {
      Relation r_del = Difference(rel, fixture.repaired.at(p));
      reduced.emplace(p, Difference(rel, r_del));
    }
    std::map<PredId, const Relation*> pointers;
    for (const auto& [p, rel] : reduced) pointers[p] = &rel;
    Relation result = ExecuteConjunctive(fixture.query, pointers);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RewrittenQueryWithDifference)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Unit(benchmark::kMillisecond);

// One full round of the Section 5 loop (survivor draws, R − R_del, query,
// tally), the unit the n-round loop repeats.
void BM_FullSamplingRound(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeJoinWorkload(rows, rows / 10 + 1, /*seed=*/502);
  Query query = *ParseQuery(
      *w.schema, "Q(x,u) := exists y,z (R(x,y), S(y,z), T(z,u))");
  KeyRepairExecutor executor(
      w.db,
      {KeySpec{w.schema->RelationOrDie("R"), {0}},
       KeySpec{w.schema->RelationOrDie("S"), {0}},
       KeySpec{w.schema->RelationOrDie("T"), {0}}},
      /*seed=*/503);
  for (auto _ : state) {
    ApproxAnswers answers = executor.Run(query, /*rounds=*/1);
    benchmark::DoNotOptimize(answers);
  }
}
BENCHMARK(BM_FullSamplingRound)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

// --- PR-6 dispatcher overhead -------------------------------------------
//
// The planner's decision must be near-free on the slice it cannot help:
// queries that end up walking anyway. Both arms below run the *identical*
// warm memoized walk (shared RepairSpaceCache, primed outside timing);
// /1 additionally pays a fresh planner decision every iteration
// (Invalidate() defeats the plan cache — the worst case; steady-state
// dispatch is a single hash-map probe). Overhead = time(/1)/time(/0) − 1,
// gated < 5% by the committed note in BENCH_e5_exact_scaling.json.
// /2 times the fresh decision *alone* (no walk): the numerator of the
// overhead ratio, robust to walk-time noise.
void BM_NonRewritableDispatch(benchmark::State& state) {
  bool dispatch = state.range(0) != 0;
  bool decision_only = state.range(0) == 2;
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  // Existential over the conflicted relation: in the FO-rewritable
  // fragment, but outside the proven-coincidence gates — the planner must
  // classify, conflict-check R, and still choose the walk.
  Query query = *ParseQuery(*w.schema, "Q(x) := exists y: R(x,y)");
  UniformChainGenerator generator;
  RepairSpaceCache cache;
  EnumerationOptions options;
  options.memoize = true;
  options.cache = &cache;
  planner::QueryPlanner planner;
  auto walk = [&]() {
    OcaResult oca =
        ComputeOca(w.db, w.constraints, generator, query, options);
    std::vector<Tuple> certain = oca.AnswersAtLeast(Rational(1));
    benchmark::DoNotOptimize(certain);
  };
  walk();  // prime the cross-query cache: timed walks replay the chain
  size_t walk_plans = 0;
  for (auto _ : state) {
    if (dispatch) {
      planner.Invalidate();  // force a full re-classification
      Result<planner::QueryPlan> plan =
          planner.Plan(w.db, w.constraints, generator, query);
      benchmark::DoNotOptimize(plan);
    }
    if (!decision_only) walk();
  }
  walk_plans = planner.stats().walk_plans;
  state.counters["walk_plans"] = static_cast<double>(walk_plans);
}
BENCHMARK(BM_NonRewritableDispatch)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The serving mix: 4 certain-answer queries against one session — two
// rewritable (quantifier-free), two not (existential over the conflicted
// R; a self-join) — dispatched with the planner off (/0, walk forced) vs
// on (/1, kAuto). The planner pays its decisions only once (plan cache),
// rewrites what it can prove, and walks the rest.
void BM_DispatcherMix(benchmark::State& state) {
  bool planner_on = state.range(0) != 0;
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  const char* texts[] = {
      "Q(x,y) := R(x,y)",                  // rewritable (quantifier-free)
      "Q(y) := R(k0, y)",                  // rewritable (quantifier-free)
      "Q(x) := exists y: R(x,y)",          // walks: conflicted + existential
      "Q(x) := exists y: (R(x,y), R(y,x))" // walks: self-join
  };
  std::vector<Query> queries;
  for (const char* text : texts) {
    queries.push_back(*ParseQuery(*w.schema, text));
  }
  UniformChainGenerator generator;
  engine::SessionOptions options;
  options.plan =
      planner_on ? planner::PlanMode::kAuto : planner::PlanMode::kWalk;
  engine::OcqaSession session(w.db, w.constraints, options);
  for (const Query& q : queries) {  // prime: record chains, fill plan cache
    Result<engine::CertainAnswersResult> primed =
        session.CertainAnswers(generator, q);
    OPCQA_CHECK(primed.ok()) << primed.status().message();
  }
  for (auto _ : state) {
    for (const Query& q : queries) {
      Result<engine::CertainAnswersResult> result =
          session.CertainAnswers(generator, q);
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["queries"] = 4;
  state.counters["rewrite_plans"] =
      static_cast<double>(session.PlanStats().rewrite_plans);
  state.counters["walk_plans"] =
      static_cast<double>(session.PlanStats().walk_plans);
}
BENCHMARK(BM_DispatcherMix)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
