// Tests for repairing sequences — Definition 4 — anchored on the paper's
// Examples 2 and 3 and the failing-sequence instance of Section 3.

#include <gtest/gtest.h>

#include "constraints/constraint_parser.h"
#include "gen/workloads.h"
#include "relational/fact_parser.h"
#include "repair/justified.h"
#include "repair/repairing_state.h"
#include "util/hash.h"
#include "util/random.h"

namespace opcqa {
namespace {

Fact MakeR(const Schema& schema, const char* a, const char* b) {
  return Fact::Make(schema, "R", {a, b});
}

TEST(RepairingStateTest, EmptySequenceOverConsistentDatabaseIsSuccessful) {
  gen::Workload w = gen::PaperExample1();
  Database consistent(w.schema.get());
  consistent.Insert(Fact::Make(*w.schema, "T", {"a", "b"}));
  auto context = RepairContext::Make(consistent, w.constraints);
  RepairingState state(context);
  EXPECT_TRUE(state.IsConsistent());
  EXPECT_TRUE(state.ValidExtensions().empty());
  EXPECT_TRUE(state.IsComplete());
  EXPECT_TRUE(state.IsSuccessful());
  EXPECT_FALSE(state.IsFailing());
}

TEST(RepairingStateTest, InitialStateExposesViolations) {
  gen::Workload w = gen::PaperExample1();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  EXPECT_FALSE(state.IsConsistent());
  EXPECT_EQ(state.violations().size(), 4u);
  EXPECT_EQ(state.depth(), 0u);
  EXPECT_FALSE(state.ValidExtensions().empty());
}

TEST(RepairingStateTest, ApplyAdvancesStateAndTracksSequence) {
  gen::Workload w = gen::PaperKeyPairExample();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  std::vector<Operation> exts = state.ValidExtensions();
  ASSERT_EQ(exts.size(), 3u);  // −R(a,b), −R(a,c), −both
  Operation op = Operation::Remove({MakeR(*w.schema, "a", "b")});
  ASSERT_TRUE(state.CanApply(op));
  state.Apply(op);
  EXPECT_EQ(state.depth(), 1u);
  EXPECT_TRUE(state.IsConsistent());
  EXPECT_TRUE(state.IsSuccessful());
  EXPECT_EQ(state.current().size(), 1u);
}

// Example 2: Σ′ = {T(x,y) → R(x,y); key}. The sequence
// −{R(a,b),R(a,c)} ; +R(a,b) satisfies req1/req2 and repairs, but is ruled
// out by No Cancellation.
TEST(RepairingStateTest, Example2NoCancellationForbidsReAddition) {
  gen::Workload w = gen::PaperExample2();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  Operation remove_both = Operation::Remove(
      {MakeR(*w.schema, "a", "b"), MakeR(*w.schema, "a", "c")});
  ASSERT_TRUE(state.CanApply(remove_both))
      << "removing both key-conflicting facts must be a valid start";
  state.Apply(remove_both);
  // Now T(a,b) → R(a,b) is violated; +R(a,b) would fix it but cancels the
  // earlier deletion.
  Operation re_add = Operation::Add({MakeR(*w.schema, "a", "b")});
  EXPECT_FALSE(state.CanApply(re_add));
  std::vector<Operation> exts = state.ValidExtensions();
  for (const Operation& op : exts) {
    EXPECT_FALSE(op == re_add);
  }
}

// Example 3: Σ = {σ: R(x,y) → ∃z S(x,y,z); key}. After +S(a,b,c), the
// deletion −R(a,b) would leave S(a,b,c) unjustified — Global Justification
// of Additions forbids it.
TEST(RepairingStateTest, Example3GlobalJustificationBlocksDeletion) {
  gen::Workload w = gen::PaperExample1();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  Fact witness = Fact::Make(*w.schema, "S", {"a", "b", "c"});
  Operation add_witness = Operation::Add({witness});
  ASSERT_TRUE(state.CanApply(add_witness));
  state.Apply(add_witness);
  // −R(a,b) is justified locally (it fixes key violations) but would
  // retroactively unjustify the addition.
  Operation remove_ab = Operation::Remove({MakeR(*w.schema, "a", "b")});
  EXPECT_FALSE(state.CanApply(remove_ab));
  // −R(a,c) keeps R(a,b), so the addition stays justified.
  Operation remove_ac = Operation::Remove({MakeR(*w.schema, "a", "c")});
  EXPECT_TRUE(state.CanApply(remove_ac));
}

// The failing sequence of Section 3: D = {R(a)}, Σ = {R(x)→T(x), T(x)→⊥}.
// s = +T(a) is complete but fails.
TEST(RepairingStateTest, FailingSequenceExample) {
  gen::Workload w = gen::PaperFailingExample();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  Fact ta = Fact::Make(*w.schema, "T", {"a"});
  Operation add_t = Operation::Add({ta});
  ASSERT_TRUE(state.CanApply(add_t));
  state.Apply(add_t);
  EXPECT_FALSE(state.IsConsistent());
  // −T(a) would cancel the addition; −R(a) is not justified for the DC
  // violation (its body image is {T(a)}).
  EXPECT_TRUE(state.ValidExtensions().empty());
  EXPECT_TRUE(state.IsComplete());
  EXPECT_TRUE(state.IsFailing());
  EXPECT_FALSE(state.IsSuccessful());
}

// The same instance CAN be repaired by deleting R(a) first.
TEST(RepairingStateTest, FailingInstanceHasSuccessfulSibling) {
  gen::Workload w = gen::PaperFailingExample();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  Operation remove_r = Operation::Remove({Fact::Make(*w.schema, "R", {"a"})});
  ASSERT_TRUE(state.CanApply(remove_r));
  state.Apply(remove_r);
  EXPECT_TRUE(state.IsSuccessful());
  EXPECT_TRUE(state.current().empty());
}

TEST(RepairingStateTest, Req2BlocksViolationResurrection) {
  // Σ = {U(x) → V(x)}. After +V(a) the instance is repaired; −V(a) would
  // both cancel the addition and resurrect the eliminated violation, so it
  // must be invalid (here it is also not justified — all three conditions
  // reject it independently).
  Schema schema;
  schema.AddRelation("U", 1);
  schema.AddRelation("V", 1);
  Database db(&schema);
  db.Insert(Fact::Make(schema, "U", {"a"}));
  ConstraintSet sigma = *ParseConstraints(schema, "U(x) -> V(x)");
  auto context = RepairContext::Make(db, sigma);
  RepairingState state(context);
  Operation add_v = Operation::Add({Fact::Make(schema, "V", {"a"})});
  ASSERT_TRUE(state.CanApply(add_v));
  state.Apply(add_v);
  EXPECT_TRUE(state.IsSuccessful());
  // −V(a) would both cancel and resurrect; it must be invalid.
  EXPECT_FALSE(state.CanApply(
      Operation::Remove({Fact::Make(schema, "V", {"a"})})));
}

TEST(RepairingStateTest, OperationsOutsideBaseAreRejected) {
  gen::Workload w = gen::PaperKeyPairExample();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  // A fact with a constant outside dom(B): not a legal operation target.
  Fact foreign = Fact::Make(*w.schema, "R", {"a", "zz_outside"});
  EXPECT_FALSE(state.CanApply(Operation::Add({foreign})));
}

TEST(RepairingStateTest, SequenceLengthIsPolynomiallyBounded) {
  // Proposition 2 consequence: every maximal sequence terminates. Run a
  // greedy walk taking the first valid extension each time and check it
  // completes (and stays within a generous bound).
  gen::Workload w = gen::PaperExample1();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  size_t steps = 0;
  while (true) {
    std::vector<Operation> exts = state.ValidExtensions();
    if (exts.empty()) break;
    state.ApplyTrusted(exts.front());
    ASSERT_LT(++steps, 100u) << "sequence did not terminate";
  }
  EXPECT_TRUE(state.IsComplete());
}

TEST(RepairingStateTest, RevertRestoresStateExactly) {
  gen::Workload w = gen::PaperExample1();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  Database db_before = state.Snapshot();
  ViolationSet violations_before = state.violations();
  size_t hash_before = state.current().Hash();
  std::vector<Operation> exts_before = state.ValidExtensions();
  for (const Operation& op : exts_before) {
    state.ApplyTrusted(op);
    state.Revert();
    EXPECT_TRUE(state.current() == db_before);
    EXPECT_EQ(state.current().Hash(), hash_before);
    EXPECT_EQ(state.violations(), violations_before);
    EXPECT_EQ(state.depth(), 0u);
    // The extension set (and hence the chain) is fully restored too.
    EXPECT_EQ(state.ValidExtensions(), exts_before);
  }
}

TEST(RepairingStateTest, RevertUnwindsMultiStepSequences) {
  // Walk to an absorbing state, recording snapshots, then unwind and check
  // every intermediate state is restored bit-for-bit.
  gen::Workload w = gen::PaperExample1();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  std::vector<Database> snapshots;
  std::vector<ViolationSet> violation_history;
  while (true) {
    std::vector<Operation> exts = state.ValidExtensions();
    if (exts.empty()) break;
    snapshots.push_back(state.Snapshot());
    violation_history.push_back(state.violations());
    state.ApplyTrusted(exts.front());
    ASSERT_LT(state.depth(), 100u);
  }
  while (state.depth() > 0) {
    state.Revert();
    EXPECT_TRUE(state.current() == snapshots[state.depth()]);
    EXPECT_EQ(state.violations(), violation_history[state.depth()]);
  }
  EXPECT_TRUE(state.current() == context->initial);
}

TEST(RepairingStateTest, RestoreRewindsToMark) {
  gen::Workload w = gen::PaperExample1();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  std::vector<Operation> exts = state.ValidExtensions();
  ASSERT_FALSE(exts.empty());
  state.ApplyTrusted(exts.front());
  size_t mark = state.Mark();
  Database at_mark = state.Snapshot();
  while (!state.IsComplete()) {
    state.ApplyTrusted(state.ValidExtensions().front());
  }
  state.Restore(mark);
  EXPECT_EQ(state.depth(), mark);
  EXPECT_TRUE(state.current() == at_mark);
}

TEST(RepairingStateTest, SnapshotIsFrozen) {
  gen::Workload w = gen::PaperKeyPairExample();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  Database snapshot = state.Snapshot();
  state.ApplyTrusted(state.ValidExtensions().front());
  EXPECT_FALSE(snapshot == state.current())
      << "mutating the state must not affect an earlier snapshot";
  EXPECT_TRUE(snapshot == context->initial);
}

TEST(RepairingStateTest, ForkContinuesIndependently) {
  gen::Workload w = gen::PaperKeyPairExample();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  std::vector<Operation> exts = state.ValidExtensions();
  ASSERT_EQ(exts.size(), 3u);
  RepairingState fork = state.Fork();
  fork.ApplyTrusted(exts[0]);
  state.ApplyTrusted(exts[1]);
  EXPECT_FALSE(fork.current() == state.current());
  // The fork can revert its own step, but not past the fork point.
  fork.Revert();
  EXPECT_TRUE(fork.current() == context->initial);
}

TEST(RepairingStateTest, ApplyTrustedMatchesApply) {
  gen::Workload w = gen::PaperKeyPairExample();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState a(context), b(context);
  Operation op = Operation::Remove({MakeR(*w.schema, "a", "b")});
  a.Apply(op);
  b.ApplyTrusted(op);
  EXPECT_EQ(a.current(), b.current());
  EXPECT_EQ(a.violations(), b.violations());
}

// Differential check of the incremental bookkeeping: after every apply and
// every revert of a seeded random walk, the state must agree with
// from-scratch references — violations() with ComputeViolations,
// ValidExtensions() with JustifiedDeletions, and eliminated() /
// eliminated_hash() with a state replayed from ε without reverts and with
// the union of V(D_{i-1}) − V(D_i) over that replay.
using ContextPtr = std::shared_ptr<const RepairContext>;

void ExpectMatchesReference(const ContextPtr& context,
                            const RepairingState& state) {
  const ConstraintSet& sigma = context->constraints;
  ASSERT_EQ(state.violations(), ComputeViolations(state.current(), sigma));
  ASSERT_EQ(state.ValidExtensions(),
            JustifiedDeletions(state.current(), sigma, state.violations()));
  RepairingState replay(context);
  Database db = context->initial;
  ViolationSet before = context->initial_violations, eliminated;
  for (const Operation& op : state.sequence()) {
    replay.ApplyTrusted(op);
    op.ApplyTo(&db);
    ViolationSet after = ComputeViolations(db, sigma);
    for (const Violation& v : before) {
      if (after.count(v) == 0) eliminated.insert(v);
    }
    before = std::move(after);
  }
  size_t eliminated_hash = 0;
  for (const Violation& v : eliminated) eliminated_hash += HashMix64(v.Hash());
  ASSERT_TRUE(replay.current() == state.current());
  ASSERT_EQ(replay.violations(), state.violations());
  ASSERT_EQ(state.eliminated(), eliminated);
  ASSERT_EQ(replay.eliminated(), eliminated);
  ASSERT_EQ(state.eliminated_hash(), eliminated_hash);
  ASSERT_EQ(replay.eliminated_hash(), eliminated_hash);
}

void RandomApplyRevertWalk(const gen::Workload& w, uint64_t seed,
                           size_t moves) {
  auto context = RepairContext::Make(w.db, w.constraints);
  ASSERT_NE(context->deletion_index, nullptr);
  RepairingState state(context);
  Rng rng(seed);
  std::vector<Operation> extensions;
  for (size_t move = 0; move < moves; ++move) {
    state.ValidExtensions(&extensions);  // one reused buffer, as walks do
    bool stuck = extensions.empty();
    if (state.depth() > 0 && (stuck || rng.Bernoulli(0.35))) {
      state.Revert();
    } else if (!stuck) {
      state.ApplyTrusted(extensions[rng.UniformInt(extensions.size())]);
    } else {
      break;  // consistent at ε
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed << " move " << move);
    ExpectMatchesReference(context, state);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(RepairingStateTest, IndexedBookkeepingMatchesReferenceOnKeyGroups) {
  for (size_t group_size = 2; group_size <= 4; ++group_size) {
    gen::Workload w =
        gen::MakeKeyViolationWorkload(5, 3, group_size, /*seed=*/group_size);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RandomApplyRevertWalk(w, seed * 31 + group_size, 120);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(RepairingStateTest, IndexedBookkeepingMatchesReferenceOnThreeAtomDc) {
  // A triangle DC with three-fact body images (and a shared fact between
  // two triangles) beside a key EGD on the same relation.
  Schema schema;
  schema.AddRelation("E", 2);
  gen::Workload w;
  const char* facts = "E(a,b). E(b,c). E(c,a). E(c,d). E(d,a). E(a,c). E(e,f).";
  const char* sigma =
      "E(x,y), E(y,z), E(z,x) -> false ; E(x,y), E(x,z) -> y = z";
  w.db = *ParseDatabase(schema, facts);
  w.constraints = *ParseConstraints(schema, sigma);
  ASSERT_GT(ComputeViolations(w.db, w.constraints).size(), 8u);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomApplyRevertWalk(w, seed, 80);
    if (HasFatalFailure()) return;
  }
}

TEST(RepairingStateTest, ForkDropsUndoHistoryButKeepsState) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 3, /*seed=*/2);
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  state.ApplyTrusted(state.ValidExtensions().front());
  state.ApplyTrusted(state.ValidExtensions().back());
  RepairingState fork = state.Fork();
  EXPECT_TRUE(fork.current() == state.current());
  EXPECT_EQ(fork.sequence(), state.sequence());
  EXPECT_EQ(fork.violations(), state.violations());
  EXPECT_EQ(fork.eliminated(), state.eliminated());
  EXPECT_EQ(fork.eliminated_hash(), state.eliminated_hash());
  EXPECT_EQ(fork.ValidExtensions(), state.ValidExtensions());
  // The fork walks on by itself and unwinds back to its fork point.
  Database at_fork = fork.Snapshot();
  ViolationSet eliminated_at_fork = fork.eliminated();
  fork.ApplyTrusted(fork.ValidExtensions().front());
  ExpectMatchesReference(context, fork);
  fork.Revert();
  EXPECT_TRUE(fork.current() == at_fork);
  EXPECT_EQ(fork.eliminated(), eliminated_at_fork);
  EXPECT_EQ(fork.depth(), 2u);
}

}  // namespace
}  // namespace opcqa
