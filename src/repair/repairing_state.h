// RepairingState: one state of the virtual repairing Markov chain — a
// repairing sequence s together with everything needed to check, in
// amortized polynomial time, whether s · op is still a repairing sequence
// (Definition 4):
//
//   req1 (progress)        — op eliminates at least one violation;
//   req2 (no resurrection) — violations eliminated earlier never reappear;
//   Local Justification    — op is (D^s_i, Σ)-justified (Definition 3);
//   No Cancellation        — added facts are never removed and vice versa;
//   Global Justification   — earlier additions stay justified when later
//                            deletions are taken into account.
//
// The state is delta-based: ApplyTrusted mutates in place and records an
// undo entry, and Revert() pops it, so DFS branching (enumerator, chain
// renderer) and Markov walks (Sample, ABC-via-chain) run apply → recurse →
// revert without ever copying a state. Frozen Database instances — repair
// aggregation keys, RepairInfo::repair — come from Snapshot(). States stay
// copyable for frontier searches (top-k) via Fork(), which drops the undo
// history: a forked state cannot Revert() past its fork point.
//
// On denial-only contexts with a DeletionCandidateIndex the state also
// tracks its violations by the index's dense ids: a deletion removes
// exactly the violations incident to its facts, moving their set nodes
// from violations() to eliminated() in place, and ValidExtensions merges
// the live ids' rank lists. Ids stay inside the state and its context;
// violations(), eliminated() and eliminated_hash() keep their value-level
// contents for the memo, snapshots and generators.

#ifndef OPCQA_REPAIR_REPAIRING_STATE_H_
#define OPCQA_REPAIR_REPAIRING_STATE_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "constraints/violation.h"
#include "relational/base.h"
#include "repair/justified.h"
#include "repair/operation.h"

namespace opcqa {

/// Immutable context shared by all states of one repairing process.
struct RepairContext {
  Database initial;          // D
  ConstraintSet constraints; // Σ
  BaseSpec base;             // B(D,Σ)
  ViolationSet initial_violations;  // V(D,Σ), shared by every root state
  // With EGDs/DCs only, justified operations are deletions, deletions are
  // violation-monotone (req2 holds for free) and there are no additions to
  // re-justify — ValidExtensions takes a fast path.
  bool denial_only = false;
  // Denial-only contexts with initial violations also pre-materialize every
  // candidate deletion once (violation-monotonicity keeps any reachable
  // state's violations inside V(D,Σ)), so each chain step merges rank
  // lists instead of re-enumerating subsets. Its violation ids are
  // positions in initial_violations. Null otherwise.
  std::shared_ptr<const DeletionCandidateIndex> deletion_index;

  /// Builds the context, deriving B(D,Σ) from D and the constants of Σ.
  static std::shared_ptr<const RepairContext> Make(Database db,
                                                   ConstraintSet constraints);
};

class RepairingState {
 public:
  /// The empty sequence ε over D.
  explicit RepairingState(std::shared_ptr<const RepairContext> context);

  const RepairContext& context() const { return *context_; }
  /// D^s_i — the database after applying the whole sequence.
  const Database& current() const { return db_; }
  /// A frozen copy of D^s_i (use as map key / result value; `current()` is
  /// invalidated by the next Apply/Revert).
  Database Snapshot() const { return db_; }
  /// The sequence s itself.
  const OperationSequence& sequence() const { return sequence_; }
  size_t depth() const { return sequence_.size(); }
  /// V(D^s_i, Σ).
  const ViolationSet& violations() const { return violations_; }
  bool IsConsistent() const { return violations_.empty(); }

  /// ∪_i V(D_{i-1}) − V(D_i): every violation eliminated so far (req2
  /// forbids their reappearance). Exposed for transposition-table
  /// collision verification (repair/memo.h).
  const ViolationSet& eliminated() const { return eliminated_; }

  /// Facts of D deleted by the sequence so far. On deletion-only chains
  /// current() = D − removed(), which is what lets the transposition
  /// table verify states by this depth-sized delta instead of a full
  /// database copy (repair/memo.h).
  const std::set<FactId>& removed() const { return removed_; }

  // O(1) state-fingerprint accessors for repair-space memoization. Both
  // are maintained incrementally — the database hash by InsertId/EraseId
  // (O(delta) per operation), the eliminated-set hash by
  // ApplyTrusted/Revert on the newly-eliminated delta — so keying a state
  // never re-walks the database or the eliminated set.
  size_t db_hash() const { return db_.Hash(); }
  size_t eliminated_hash() const { return eliminated_hash_; }

  /// Every operation op such that s · op is a repairing sequence. Sorted
  /// deterministically. Empty iff the sequence is complete.
  std::vector<Operation> ValidExtensions() const;
  /// The same operations, written over the contents of `out`. Walks keep
  /// one buffer per depth (or per walk) so each step copy-assigns into
  /// the storage of the previous step's operations.
  void ValidExtensions(std::vector<Operation>* out) const;

  /// True when s · op is a repairing sequence (op need not come from
  /// ValidExtensions()).
  bool CanApply(const Operation& op) const;

  /// Appends op; CHECK-fails unless CanApply(op).
  void Apply(const Operation& op);

  /// Appends op without re-validating. Only pass operations obtained from
  /// ValidExtensions() of *this* state (hot path of the enumerator and the
  /// Sample algorithm).
  void ApplyTrusted(const Operation& op);

  /// Undoes the most recent Apply/ApplyTrusted, restoring current(),
  /// violations() and all bookkeeping exactly. CHECK-fails with no undo
  /// history (at ε, or past a Fork() point).
  void Revert();

  /// A mark for Restore(): the current depth.
  size_t Mark() const { return sequence_.size(); }
  /// Reverts back to an earlier Mark().
  void Restore(size_t mark);

  /// A copy that shares the context but not the undo history (cheapest
  /// possible copy for frontier searches; cannot Revert past this point).
  RepairingState Fork() const;

  /// Complete = no valid extension (absorbing state of the chain).
  bool IsComplete() const { return ValidExtensions().empty(); }
  /// A complete sequence is successful iff the result satisfies Σ.
  bool IsSuccessful() const { return IsConsistent() && IsComplete(); }
  /// Complete but inconsistent (the chain got stuck).
  bool IsFailing() const { return !IsConsistent() && IsComplete(); }

  std::string ToString() const;

 private:
  // One record per earlier addition, for Global Justification re-checks.
  struct AdditionRecord {
    Operation op;
    Database pre_db;                // D^s_{i-1} (an id-vector copy)
    std::set<FactId> removed_after; // H: facts deleted at steps k > i
  };

  // Everything one Revert() needs besides the operation itself.
  struct UndoRecord {
    std::vector<Violation> appeared;         // in V(D_i) − V(D_{i-1})
    std::vector<Violation> disappeared;      // in V(D_{i-1}) − V(D_i)
    std::vector<Violation> newly_eliminated; // freshly inserted in eliminated_
    // Indexed contexts leave the three lists empty: the step's removed
    // violation ids are killed_log_[killed_begin, killed_log_.size()).
    size_t killed_begin = 0;
  };

  struct ForkTag {};
  // Copies every member of `other` except the undo history and scratch.
  RepairingState(const RepairingState& other, ForkTag);

  // ApplyTrusted/Revert of violations() and eliminated() on indexed
  // contexts.
  void RemoveIncidentViolations(const Operation& op, UndoRecord* undo);
  void RestoreIncidentViolations(const UndoRecord& undo);

  bool CheckNoCancellation(const Operation& op) const;
  // Probes s · op: applies op to db_ in place, computes V, reverts, and
  // checks no eliminated violation reappeared. db_ is unchanged on return.
  bool CheckReq2(const Operation& op, ViolationSet* next_violations) const;
  bool CheckGlobalJustification(const Operation& op) const;

  std::shared_ptr<const RepairContext> context_;
  // mutable: CheckReq2 probes candidate operations by apply + revert
  // instead of copying the database per candidate.
  mutable Database db_;
  OperationSequence sequence_;
  ViolationSet violations_;   // V(current)
  ViolationSet eliminated_;   // ∪_i V(D_{i-1}) − V(D_i)
  size_t eliminated_hash_ = 0;  // sum of mixed Violation hashes of eliminated_
  std::set<FactId> added_;
  std::set<FactId> removed_;
  std::vector<AdditionRecord> additions_;
  // Indexed contexts: ids of violations(), ascending.
  std::vector<uint32_t> live_ids_;
  std::vector<UndoRecord> undo_;
  std::vector<uint32_t> killed_log_;  // see UndoRecord::killed_begin
  // Scratch of DeletionCandidateIndex::WriteFor.
  mutable std::vector<uint64_t> rank_marks_;
};

}  // namespace opcqa

#endif  // OPCQA_REPAIR_REPAIRING_STATE_H_
