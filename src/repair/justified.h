// Justified operations (Definition 3 / Proposition 1).
//
// An operation op is (D′,Σ)-justified when it eliminates some violation
// (κ,h) ∈ V(D′,Σ) and is "tight" for it:
//   * +F: no proper non-empty subset of F already fixes (κ,h) — for TGDs
//     this makes F a ⊊-minimal completion h′(ψ) − D′ over extensions h′ of
//     h into the base domain;
//   * −F: every proper non-empty subset of F also fixes (κ,h) — which holds
//     exactly when ∅ ≠ F ⊆ h(ϕ).
// EGDs and DCs admit no justified additions (adding facts cannot fix them).

#ifndef OPCQA_REPAIR_JUSTIFIED_H_
#define OPCQA_REPAIR_JUSTIFIED_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "constraints/violation.h"
#include "relational/base.h"
#include "repair/operation.h"

namespace opcqa {

/// Enumerates every (D′,Σ)-justified operation, deduplicated and sorted.
/// `violations` must equal V(D′,Σ); `base` is B(D,Σ) of the *original*
/// database (additions draw constants from it).
std::vector<Operation> JustifiedOperations(const Database& db,
                                           const ConstraintSet& constraints,
                                           const ViolationSet& violations,
                                           const BaseSpec& base);

/// Justified deletions only (the support of deletion-only chains).
std::vector<Operation> JustifiedDeletions(const Database& db,
                                          const ConstraintSet& constraints,
                                          const ViolationSet& violations);

/// Per-violation deletion-candidate index — the hot spot of denial-only
/// walks. JustifiedDeletions re-enumerates every violation's body-image
/// subsets and re-sorts them at *every* step of every chain; with
/// EGDs/DCs only, deletions are violation-monotone, so the violations of
/// any reachable state are a subset of V(D,Σ) and all candidate
/// operations can be materialized once per repair space. Each step then
/// reduces to merging rank lists and copying pre-built Operations.
///
/// Violations are named by dense ids: the id of a violation is its
/// position in the sorted set given to Build (normally V(D,Σ)). Ids are
/// local to one index — they never name a violation outside it.
///
/// Built by RepairContext::Make for denial-only constraint sets and
/// shared (immutably) by every state, thread and walk over that context.
class DeletionCandidateIndex {
 public:
  /// Indexes every violation of `violations` (normally V(D,Σ)).
  static std::shared_ptr<const DeletionCandidateIndex> Build(
      const ConstraintSet& constraints, const ViolationSet& violations);

  size_t num_violations() const { return violations_.size(); }
  size_t num_candidates() const { return ops_.size(); }

  /// The violation with id `id`.
  const Violation& violation(uint32_t id) const { return violations_[id]; }
  /// HashMix64(violation(id).Hash()): the violation's term in the
  /// eliminated-set fingerprint of RepairingState.
  size_t mixed_hash(uint32_t id) const { return mixed_hashes_[id]; }

  /// Ids (ascending) of the violations whose body image contains `fact`;
  /// empty for a fact in no body image. Deleting a set of facts removes
  /// exactly the violations incident to one of them.
  std::span<const uint32_t> Incident(FactId fact) const;

  /// Replaces the contents of `ops` by the justified deletions of the
  /// violations `ids` (ascending, each < num_violations()): the same
  /// operations in the same order as JustifiedDeletions(db, constraints,
  /// {violation(id) : id ∈ ids}). Operations are copy-assigned over the
  /// existing elements, so a buffer reused across calls keeps their
  /// storage. `marks` is caller-owned scratch.
  void WriteFor(const std::vector<uint32_t>& ids,
                std::vector<uint64_t>* marks,
                std::vector<Operation>* ops) const;

 private:
  /// Distinct candidate deletions in fact-value lexicographic order (the
  /// order JustifiedDeletions emits).
  std::vector<Operation> ops_;
  /// Indexed violations in sorted order (position = id), with their
  /// mixed hashes.
  std::vector<Violation> violations_;
  std::vector<size_t> mixed_hashes_;
  /// Violation id → ranks into ops_ (its body-image subsets):
  /// rank_data_[rank_begin_[id], rank_begin_[id + 1]).
  std::vector<uint32_t> rank_begin_;
  std::vector<uint32_t> rank_data_;
  /// Fact → incident violation ids: incident_facts_ is sorted, and
  /// the ids of incident_facts_[i] are
  /// incident_data_[incident_begin_[i], incident_begin_[i + 1]).
  std::vector<FactId> incident_facts_;
  std::vector<uint32_t> incident_begin_;
  std::vector<uint32_t> incident_data_;
};

/// Decision version of Definition 3: is `op` (db,Σ)-justified? Used to
/// re-check Global Justification of Additions against D^s_{i-1} − H.
bool IsJustified(const Database& db, const ConstraintSet& constraints,
                 const BaseSpec& base, const Operation& op);

}  // namespace opcqa

#endif  // OPCQA_REPAIR_JUSTIFIED_H_
