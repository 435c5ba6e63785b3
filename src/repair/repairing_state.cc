#include "repair/repairing_state.h"

#include <algorithm>
#include <numeric>

#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace opcqa {

std::shared_ptr<const RepairContext> RepairContext::Make(
    Database db, ConstraintSet constraints) {
  BaseSpec base = BaseSpec::ForDatabase(db, ConstantsOf(constraints));
  ViolationSet initial_violations = ComputeViolations(db, constraints);
  bool denial_only = IsDenialOnly(constraints);
  auto context = std::make_shared<RepairContext>(
      RepairContext{std::move(db), std::move(constraints), std::move(base),
                    std::move(initial_violations), denial_only});
  if (denial_only && !context->initial_violations.empty()) {
    context->deletion_index = DeletionCandidateIndex::Build(
        context->constraints, context->initial_violations);
  }
  return context;
}

RepairingState::RepairingState(std::shared_ptr<const RepairContext> context)
    : context_(std::move(context)),
      db_(context_->initial),
      violations_(context_->initial_violations) {
  if (context_->deletion_index != nullptr) {
    live_ids_.resize(context_->deletion_index->num_violations());
    std::iota(live_ids_.begin(), live_ids_.end(), 0u);
  }
}

RepairingState::RepairingState(const RepairingState& other, ForkTag)
    : context_(other.context_),
      db_(other.db_),
      sequence_(other.sequence_),
      violations_(other.violations_),
      eliminated_(other.eliminated_),
      eliminated_hash_(other.eliminated_hash_),
      added_(other.added_),
      removed_(other.removed_),
      additions_(other.additions_),
      live_ids_(other.live_ids_) {}

bool RepairingState::CheckNoCancellation(const Operation& op) const {
  // "+F then −G with F ∩ G ≠ ∅" is forbidden in either order.
  const std::set<FactId>& conflicting = op.is_add() ? removed_ : added_;
  for (FactId id : op.fact_ids()) {
    if (conflicting.count(id) > 0) return false;
  }
  return true;
}

bool RepairingState::CheckReq2(const Operation& op,
                               ViolationSet* next_violations) const {
  op.ApplyTo(&db_);
  *next_violations = ComputeViolations(db_, context_->constraints);
  op.RevertOn(&db_);
  // No violation eliminated earlier (including by the candidate op itself,
  // which cannot re-introduce what it just removed) may be present again.
  for (const Violation& v : *next_violations) {
    if (eliminated_.count(v) > 0) return false;
  }
  return true;
}

bool RepairingState::CheckGlobalJustification(const Operation& op) const {
  if (!op.is_remove()) return true;  // H only grows through deletions
  for (const AdditionRecord& record : additions_) {
    Database reduced = record.pre_db;
    for (FactId id : record.removed_after) reduced.EraseId(id);
    for (FactId id : op.fact_ids()) reduced.EraseId(id);
    if (!IsJustified(reduced, context_->constraints, context_->base,
                     record.op)) {
      return false;
    }
  }
  return true;
}

bool RepairingState::CanApply(const Operation& op) const {
  // Operations must stay inside the base (Definition 1).
  for (const Fact& fact : op.facts()) {
    if (!context_->base.Contains(fact)) return false;
  }
  // Additions of present facts / removals of absent facts would make the
  // operation a partial no-op; justified operations never do this, and
  // tightness below rejects them, but reject cheaply first.
  for (FactId id : op.fact_ids()) {
    if (op.is_add() && db_.ContainsId(id)) return false;
    if (op.is_remove() && !db_.ContainsId(id)) return false;
  }
  if (!CheckNoCancellation(op)) return false;
  // Local justification (implies req1).
  if (!IsJustified(db_, context_->constraints, context_->base, op)) {
    return false;
  }
  ViolationSet next_violations;
  if (!CheckReq2(op, &next_violations)) return false;
  if (!CheckGlobalJustification(op)) return false;
  return true;
}

void RepairingState::Apply(const Operation& op) {
  OPCQA_CHECK(CanApply(op)) << "operation is not a valid extension: "
                            << op.ToString(context_->initial.schema());
  ApplyTrusted(op);
}

void RepairingState::ApplyTrusted(const Operation& op) {
  // Track fact provenance (no-cancellation) and addition records (global
  // justification). pre_db is captured before the in-place application.
  if (op.is_add()) {
    additions_.push_back(AdditionRecord{op, db_, {}});
    for (FactId id : op.fact_ids()) added_.insert(id);
  } else {
    for (AdditionRecord& record : additions_) {
      for (FactId id : op.fact_ids()) record.removed_after.insert(id);
    }
    for (FactId id : op.fact_ids()) removed_.insert(id);
  }
  // Delta bookkeeping requires an effective operation (every added fact
  // absent, every removed fact present) — a partial no-op would make the
  // later Revert corrupt the shared state. ValidExtensions only produces
  // effective operations; this guards against other callers.
  for (FactId id : op.fact_ids()) {
    bool effective = op.is_add() ? db_.InsertId(id) : db_.EraseId(id);
    OPCQA_CHECK(effective)
        << "ApplyTrusted requires an effective operation: "
        << op.ToString(context_->initial.schema());
  }
  UndoRecord undo;
  if (context_->deletion_index != nullptr) {
    OPCQA_CHECK(op.is_remove())
        << "denial-only contexts admit only deletions: "
        << op.ToString(context_->initial.schema());
    RemoveIncidentViolations(op, &undo);
  } else {
    // Track the violation delta (req2 bookkeeping + undo).
    ViolationSet next_violations = ComputeViolations(db_, context_->constraints);
    for (const Violation& v : violations_) {
      if (next_violations.count(v) == 0) {
        undo.disappeared.push_back(v);
        if (eliminated_.insert(v).second) {
          undo.newly_eliminated.push_back(v);
          eliminated_hash_ += HashMix64(v.Hash());
        }
      }
    }
    for (const Violation& v : next_violations) {
      if (violations_.count(v) == 0) undo.appeared.push_back(v);
    }
    violations_ = std::move(next_violations);
  }
  sequence_.push_back(op);
  undo_.push_back(std::move(undo));
}

void RepairingState::RemoveIncidentViolations(const Operation& op,
                                              UndoRecord* undo) {
  // Deletions under EGDs/DCs are violation-monotone: body matches of
  // D − F are exactly those of D avoiding F, and the conclusions ignore
  // the database. V(D − F) is therefore V(D) minus the live violations
  // incident to F — no homomorphism search and no sweep over V(D). Such a
  // violation never was eliminated before (it could not have come back),
  // so its set node moves from violations_ to eliminated_ as is.
  const DeletionCandidateIndex& index = *context_->deletion_index;
  undo->killed_begin = killed_log_.size();
  for (FactId fact : op.fact_ids()) {
    for (uint32_t id : index.Incident(fact)) {
      if (std::binary_search(live_ids_.begin(), live_ids_.end(), id)) {
        killed_log_.push_back(id);
      }
    }
  }
  const auto begin = static_cast<ptrdiff_t>(undo->killed_begin);
  std::sort(killed_log_.begin() + begin, killed_log_.end());
  auto last = std::unique(killed_log_.begin() + begin, killed_log_.end());
  killed_log_.erase(last, killed_log_.end());
  auto killed = killed_log_.begin() + begin;
  std::erase_if(live_ids_, [&](uint32_t id) {
    return std::binary_search(killed, killed_log_.end(), id);
  });
  for (auto it = killed; it != killed_log_.end(); ++it) {
    auto node = violations_.extract(index.violation(*it));
    OPCQA_CHECK(!node.empty()) << "violation id " << *it << " is not live";
    eliminated_.insert(std::move(node));
    eliminated_hash_ += index.mixed_hash(*it);
  }
}

void RepairingState::RestoreIncidentViolations(const UndoRecord& undo) {
  const DeletionCandidateIndex& index = *context_->deletion_index;
  for (size_t i = undo.killed_begin; i < killed_log_.size(); ++i) {
    uint32_t id = killed_log_[i];
    violations_.insert(eliminated_.extract(index.violation(id)));
    eliminated_hash_ -= index.mixed_hash(id);
    auto pos = std::lower_bound(live_ids_.begin(), live_ids_.end(), id);
    live_ids_.insert(pos, id);
  }
  killed_log_.resize(undo.killed_begin);
}

void RepairingState::Revert() {
  OPCQA_CHECK(!undo_.empty()) << "no step to revert (at ε or a fork point)";
  const Operation op = std::move(sequence_.back());
  sequence_.pop_back();
  UndoRecord undo = std::move(undo_.back());
  undo_.pop_back();
  // Violations: undo the delta.
  if (context_->deletion_index != nullptr) {
    RestoreIncidentViolations(undo);
  } else {
    for (const Violation& v : undo.appeared) violations_.erase(v);
    for (const Violation& v : undo.disappeared) violations_.insert(v);
    for (const Violation& v : undo.newly_eliminated) {
      eliminated_.erase(v);
      eliminated_hash_ -= HashMix64(v.Hash());
    }
  }
  // Database and provenance. Every fact of an operation is fresh to its
  // direction (a fact is added / removed at most once per sequence), so
  // erasing the op's facts restores added_/removed_/removed_after exactly.
  op.RevertOn(&db_);
  if (op.is_add()) {
    for (FactId id : op.fact_ids()) added_.erase(id);
    additions_.pop_back();
  } else {
    for (FactId id : op.fact_ids()) removed_.erase(id);
    for (AdditionRecord& record : additions_) {
      for (FactId id : op.fact_ids()) record.removed_after.erase(id);
    }
  }
}

void RepairingState::Restore(size_t mark) {
  OPCQA_CHECK_LE(mark, sequence_.size());
  while (sequence_.size() > mark) Revert();
}

RepairingState RepairingState::Fork() const {
  return RepairingState(*this, ForkTag{});
}

std::vector<Operation> RepairingState::ValidExtensions() const {
  std::vector<Operation> ops;
  ValidExtensions(&ops);
  return ops;
}

void RepairingState::ValidExtensions(std::vector<Operation>* out) const {
  if (violations_.empty()) {  // consistent ⇒ nothing is justified
    out->clear();
    return;
  }
  if (context_->deletion_index != nullptr) {
    // Denial-only fast path: every justified deletion is a valid extension
    // (no cancellation partners, no resurrections, no additions to
    // re-justify), and the shared candidate index answers from pre-built
    // operations. Denial-only contexts without an index have no
    // violations and returned above.
    context_->deletion_index->WriteFor(live_ids_, &rank_marks_, out);
    return;
  }
  std::vector<Operation> candidates = JustifiedOperations(
      db_, context_->constraints, violations_, context_->base);
  std::vector<Operation> valid;
  valid.reserve(candidates.size());
  for (const Operation& op : candidates) {
    // Candidates are locally justified by construction; check the cheaper
    // conditions first, then req2 / global justification.
    if (!CheckNoCancellation(op)) continue;
    ViolationSet next_violations;
    if (!CheckReq2(op, &next_violations)) continue;
    if (!CheckGlobalJustification(op)) continue;
    valid.push_back(op);
  }
  *out = std::move(valid);
}

std::string RepairingState::ToString() const {
  return StrCat(SequenceToString(sequence_, context_->initial.schema()),
                " ⇒ {", db_.ToString(), "}");
}

}  // namespace opcqa
