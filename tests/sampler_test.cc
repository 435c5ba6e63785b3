// Tests for the Sample algorithm and the additive-error scheme (Section 5,
// Theorem 9, Proposition 10). Statistical assertions use fixed seeds and
// tolerances far looser than the corresponding concentration bounds.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/ocqa.h"
#include "repair/preference_generator.h"
#include "repair/sampler.h"

namespace opcqa {
namespace {

TEST(SamplerTest, NumSamplesMatchesPaperFigure) {
  // "for ε = δ = 0.1, for example, it is 150".
  EXPECT_EQ(Sampler::NumSamples(0.1, 0.1), 150u);
  // Monotonicity: tighter ε/δ need more samples.
  EXPECT_GT(Sampler::NumSamples(0.05, 0.1), Sampler::NumSamples(0.1, 0.1));
  EXPECT_GT(Sampler::NumSamples(0.1, 0.01), Sampler::NumSamples(0.1, 0.1));
}

TEST(SamplerTest, CheckGuaranteeRejectsUnusableEpsilonDelta) {
  EXPECT_TRUE(Sampler::CheckGuarantee(0.1, 0.1).ok());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto [epsilon, delta] : std::vector<std::pair<double, double>>{
           {0.0, 0.1}, {-0.1, 0.1}, {0.1, 0.0}, {0.1, 1.0}, {0.1, 1.5},
           {nan, 0.1}, {0.1, nan}, {inf, 0.1}, {0.1, -inf}}) {
    Status status = Sampler::CheckGuarantee(epsilon, delta);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << epsilon << ", " << delta;
  }
  // n(1e-12, 0.1) ≈ 1.5e24 and n(1e-200, 0.1) = +inf exceed every size_t.
  EXPECT_EQ(Sampler::CheckGuarantee(1e-12, 0.1).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(Sampler::CheckGuarantee(1e-200, 0.1).code(),
            StatusCode::kOutOfRange);
  // n(1e-9, 0.1) ≈ 1.5e18 is huge but still a size_t.
  EXPECT_TRUE(Sampler::CheckGuarantee(1e-9, 0.1).ok());
  EXPECT_GT(Sampler::NumSamples(1e-9, 0.1), size_t{1} << 60);
}

TEST(SamplerTest, WalksTerminateAndSucceedOnNonFailingChains) {
  gen::Workload w = gen::PaperPreferenceExample();
  PreferenceChainGenerator gen(w.schema->RelationOrDie("Pref"));
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/42);
  for (int i = 0; i < 50; ++i) {
    WalkResult walk = sampler.RunWalk();
    EXPECT_TRUE(walk.successful);
    EXPECT_EQ(walk.steps, 2u);  // exactly two conflicts to resolve
    EXPECT_TRUE(Satisfies(walk.final_db, w.constraints));
  }
}

TEST(SamplerTest, WalksAreDeterministicGivenSeed) {
  gen::Workload w = gen::PaperPreferenceExample();
  PreferenceChainGenerator gen(w.schema->RelationOrDie("Pref"));
  Sampler s1(w.db, w.constraints, &gen, 7);
  Sampler s2(w.db, w.constraints, &gen, 7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(s1.RunWalk().final_db, s2.RunWalk().final_db);
  }
}

TEST(SamplerTest, EstimateMatchesExactWithinEpsilon) {
  // The Example 7 value CP(a) = 0.45, approximated at ε = δ = 0.1.
  gen::Workload w = gen::PaperPreferenceExample();
  PreferenceChainGenerator gen(w.schema->RelationOrDie("Pref"));
  Result<Query> q =
      ParseQuery(*w.schema, "Q(x) := forall y (Pref(x,y) | x = y)");
  ASSERT_TRUE(q.ok());
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/123);
  double estimate = sampler.EstimateTuple(*q, {Const("a")}, 0.1, 0.1);
  EXPECT_NEAR(estimate, 0.45, 0.1);
}

TEST(SamplerTest, EstimateOcaCoversAllLikelyTuples) {
  gen::Workload w = gen::PaperKeyPairExample();
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/9);
  ApproxOcaResult result = sampler.EstimateOca(*q, 0.05, 0.05);
  EXPECT_EQ(result.walks, Sampler::NumSamples(0.05, 0.05));
  EXPECT_EQ(result.failing_walks, 0u);
  // Exact CPs are 1/3 each; both estimates must be within ε = 0.05 (the
  // assertion holds with probability ≥ 95%, and the seed is fixed).
  EXPECT_NEAR(result.Estimate({Const("b")}), 1.0 / 3, 0.05);
  EXPECT_NEAR(result.Estimate({Const("c")}), 1.0 / 3, 0.05);
}

TEST(SamplerTest, HoeffdingGuaranteeHoldsAcrossSeeds) {
  // Repeat the (ε,δ) estimate over many seeds; the fraction of runs with
  // error > ε must not wildly exceed δ. With ε=0.15, δ=0.2 and 40 seeds,
  // expected failures ≤ 8; assert ≤ 16 (twice the budget).
  gen::Workload w = gen::PaperKeyPairExample();
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  const double eps = 0.15, delta = 0.2, exact = 1.0 / 3;
  int failures = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Sampler sampler(w.db, w.constraints, &gen, seed);
    double estimate = sampler.EstimateTuple(*q, {Const("b")}, eps, delta);
    if (std::abs(estimate - exact) > eps) ++failures;
  }
  EXPECT_LE(failures, 16);
}

TEST(SamplerTest, FailingWalksAreReportedNotHidden) {
  gen::Workload w = gen::PaperFailingExample();
  UniformChainGenerator gen;  // not non-failing here: +T(a) dead-ends
  Result<Query> q = ParseQuery(*w.schema, "Q() := true");
  ASSERT_TRUE(q.ok());
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/5);
  ApproxOcaResult result = sampler.EstimateOcaWithWalks(*q, 200);
  EXPECT_GT(result.failing_walks, 50u);   // expect ≈100
  EXPECT_GT(result.successful_walks, 50u);
  EXPECT_EQ(result.failing_walks + result.successful_walks, 200u);
}

TEST(SamplerTest, EstimatesEqualExactForDeterministicChain) {
  // A generator with a single positive-probability path: the estimate is
  // exact regardless of n.
  gen::Workload w = gen::PaperKeyPairExample();
  Fact ab = Fact::Make(*w.schema, "R", {"a", "b"});
  LambdaChainGenerator gen(
      "always-drop-ab",
      [&](const RepairingState&, const std::vector<Operation>& ops) {
        std::vector<Rational> probs(ops.size(), Rational(0));
        for (size_t i = 0; i < ops.size(); ++i) {
          if (ops[i] == Operation::Remove({ab})) probs[i] = Rational(1);
        }
        return probs;
      },
      /*deletions_only=*/true);
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/1);
  ApproxOcaResult result = sampler.EstimateOcaWithWalks(*q, 20);
  EXPECT_DOUBLE_EQ(result.Estimate({Const("c")}), 1.0);
  EXPECT_DOUBLE_EQ(result.Estimate({Const("b")}), 0.0);
}

TEST(SamplerTest, WalkStepCountsPolynomialInViolations) {
  // Prop. 10: Sample terminates after polynomially many steps. For a key
  // workload with v violating groups, deletion walks need ≤ v·(group-1)
  // single steps (pair deletions shorten it further).
  gen::Workload w = gen::MakeKeyViolationWorkload(10, 5, 2, /*seed=*/3);
  UniformChainGenerator gen;
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/4);
  for (int i = 0; i < 20; ++i) {
    WalkResult walk = sampler.RunWalk();
    EXPECT_TRUE(walk.successful);
    EXPECT_LE(walk.steps, 5u);
    EXPECT_GE(walk.steps, 1u);
  }
}

// Estimates of a fixed (seed, shape) run, pinned bit for bit: the estimate
// doubles as IEEE-754 bits and the total step count, captured from the
// value-keyed implementation of the walk step. Any drift in extension
// order or in RNG consumption changes them.
struct PinnedEstimate {
  const char* key;
  const char* value;
  uint64_t bits;
};

void ExpectPinnedRun(size_t keys, size_t violating, size_t group_size,
                     uint64_t workload_seed, uint64_t seed,
                     size_t expected_steps,
                     const std::vector<PinnedEstimate>& expected) {
  gen::Workload w =
      gen::MakeKeyViolationWorkload(keys, violating, group_size, workload_seed);
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  Sampler sampler(w.db, w.constraints, &gen, seed);
  ApproxOcaResult result = sampler.EstimateOcaWithWalks(*q, 120);
  EXPECT_EQ(result.total_steps, expected_steps);
  EXPECT_EQ(result.successful_walks, 120u);
  ASSERT_EQ(result.estimates.size(), expected.size());
  size_t i = 0;
  for (const auto& [tuple, estimate] : result.estimates) {
    const PinnedEstimate& pin = expected[i++];
    EXPECT_EQ(tuple, (Tuple{Const(pin.key), Const(pin.value)}));
    EXPECT_EQ(std::bit_cast<uint64_t>(estimate), pin.bits)
        << pin.key << "," << pin.value << " estimate " << estimate;
  }
}

TEST(SamplerTest, EstimatesArePinnedForGroupSizeThree) {
  const std::vector<PinnedEstimate> expected = {
      {"k0", "v0_0", 0x3fcdddddddddddde},
      {"k0", "v0_1", 0x3fd2aaaaaaaaaaab},
      {"k0", "v0_2", 0x3fd2aaaaaaaaaaab},
      {"k1", "v1_0", 0x3fd6666666666666},
      {"k1", "v1_1", 0x3fd199999999999a},
      {"k1", "v1_2", 0x3fd0000000000000},
      {"k2", "v2_0", 0x3fd199999999999a},
      {"k2", "v2_1", 0x3fd4444444444444},
      {"k2", "v2_2", 0x3fd2222222222222},
      {"k3", "v3_0", 0x3fd1111111111111},
      {"k3", "v3_1", 0x3fcdddddddddddde},
      {"k3", "v3_2", 0x3fd6666666666666},
      {"k4", "v4_0", 0x3ff0000000000000},
      {"k5", "v5_0", 0x3ff0000000000000},
  };
  ExpectPinnedRun(6, 4, 3, /*workload_seed=*/3, /*seed=*/11, 714, expected);
}

TEST(SamplerTest, EstimatesArePinnedForGroupSizeFour) {
  const std::vector<PinnedEstimate> expected = {
      {"k0", "v0_0", 0x3fcccccccccccccd},
      {"k0", "v0_1", 0x3fc5555555555555},
      {"k0", "v0_2", 0x3fc4444444444444},
      {"k0", "v0_3", 0x3fc6666666666666},
      {"k1", "v1_0", 0x3fc3333333333333},
      {"k1", "v1_1", 0x3fc8888888888889},
      {"k1", "v1_2", 0x3fc4444444444444},
      {"k1", "v1_3", 0x3fc999999999999a},
      {"k2", "v2_0", 0x3fd0000000000000},
      {"k2", "v2_1", 0x3fc5555555555555},
      {"k2", "v2_2", 0x3fc7777777777777},
      {"k2", "v2_3", 0x3fc6666666666666},
      {"k3", "v3_0", 0x3ff0000000000000},
      {"k4", "v4_0", 0x3ff0000000000000},
  };
  ExpectPinnedRun(5, 3, 4, /*workload_seed=*/8, /*seed=*/29, 791, expected);
}

}  // namespace
}  // namespace opcqa
