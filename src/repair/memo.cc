#include "repair/memo.h"

#include <algorithm>

#include "util/hash.h"

namespace opcqa {

namespace {

/// Approximate heap footprint of a Violation inside a std::set: the
/// red-black node plus the assignment's binding vector.
size_t ViolationSetBytes(const ViolationSet& eliminated) {
  size_t bytes = 0;
  for (const Violation& violation : eliminated) {
    bytes += 48 /* set node overhead */ + sizeof(Violation) +
             violation.h.bindings().capacity() *
                 sizeof(std::pair<VarId, ConstId>);
  }
  return bytes;
}

/// Footprint of a full id-vector Database copy with `facts` facts over a
/// schema with `relations` relations — the PR-3 per-payload cost: the
/// object header (schema pointer, outer vector, size_, hash_), one inner
/// vector header per relation, and the ids themselves.
size_t DatabaseCopyBytes(size_t facts, size_t relations) {
  return 2 * sizeof(void*) + sizeof(std::vector<std::vector<FactId>>) +
         sizeof(std::vector<FactId>) * relations + facts * sizeof(FactId);
}

/// Footprint of a removed-id delta payload: one vector header + the ids.
size_t DeltaPayloadBytes(size_t removed) {
  return sizeof(std::vector<FactId>) + removed * sizeof(FactId);
}

bool RemovedEquals(const std::vector<FactId>& stored,
                   const std::set<FactId>& removed) {
  return stored.size() == removed.size() &&
         std::equal(stored.begin(), stored.end(), removed.begin());
}

bool RemovedEquals(const std::vector<FactId>& stored,
                   const std::vector<FactId>& removed) {
  return stored == removed;
}

}  // namespace

size_t StateKey::Combined() const {
  return HashCombine(db_hash, eliminated_hash);
}

StateKey KeyOf(const RepairingState& state) {
  return StateKey{state.db_hash(), state.eliminated_hash()};
}

bool MemoizationApplicable(const RepairContext& context,
                           const ChainGenerator& generator) {
  if (!generator.history_independent()) return false;
  // Every justified op is a deletion, or the generator gives additions
  // probability zero and the walk never takes a zero-probability edge.
  return context.denial_only || generator.supports_only_deletions();
}

Database ReconstructRepair(const RepairingState& state,
                           const MemoOutcome::RepairShare& share) {
  Database repair = state.current();
  for (FactId id : share.removed) repair.EraseId(id);
  return repair;
}

MemoStats MemoStats::DeltaSince(const MemoStats& earlier) const {
  MemoStats delta = *this;
  delta.hits -= earlier.hits;
  delta.misses -= earlier.misses;
  delta.collisions -= earlier.collisions;
  delta.inserts -= earlier.inserts;
  delta.rejected_full -= earlier.rejected_full;
  delta.evictions -= earlier.evictions;
  // entries and the byte gauges stay point-in-time values.
  return delta;
}

MemoStats& MemoStats::operator+=(const MemoStats& other) {
  hits += other.hits;
  misses += other.misses;
  collisions += other.collisions;
  inserts += other.inserts;
  rejected_full += other.rejected_full;
  evictions += other.evictions;
  entries += other.entries;
  bytes += other.bytes;
  payload_bytes += other.payload_bytes;
  full_payload_bytes += other.full_payload_bytes;
  return *this;
}

TranspositionTable::TranspositionTable(size_t max_entries, size_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

void TranspositionTable::SetRootShape(size_t root_facts,
                                      size_t num_relations) {
  root_facts_.store(root_facts, std::memory_order_relaxed);
  num_relations_.store(num_relations, std::memory_order_relaxed);
}

uint8_t TranspositionTable::CostTier(const MemoOutcome& outcome) {
  if (outcome.states >= 32768) return 3;
  if (outcome.states >= 1024) return 2;
  if (outcome.states >= 32) return 1;
  return 0;
}

size_t TranspositionTable::EntryBytes(const Entry& entry) {
  size_t bytes = sizeof(Entry) + 16 /* multimap node overhead */ +
                 entry.removed.capacity() * sizeof(FactId) +
                 ViolationSetBytes(entry.eliminated);
  const MemoOutcome& outcome = *entry.outcome;
  bytes += sizeof(MemoOutcome) +
           outcome.repairs.capacity() * sizeof(MemoOutcome::RepairShare);
  for (const MemoOutcome::RepairShare& share : outcome.repairs) {
    bytes += share.removed.capacity() * sizeof(FactId);
  }
  return bytes;
}

size_t TranspositionTable::PayloadBytes(const Entry& entry) {
  size_t bytes = DeltaPayloadBytes(entry.removed.size());
  for (const MemoOutcome::RepairShare& share : entry.outcome->repairs) {
    bytes += DeltaPayloadBytes(share.removed.size());
  }
  return bytes;
}

size_t TranspositionTable::FullPayloadBytes(const Entry& entry) const {
  // What the PR-3 representation stored where the deltas now are: a full
  // Database per entry key and per repair share. (Everything else — the
  // hash key, the eliminated set, the Rational masses — is identical in
  // both representations and not part of this comparison.) Entry database
  // size is |root| − |removed|; each repair removes `share.removed` more
  // facts below it.
  size_t root_facts = root_facts_.load(std::memory_order_relaxed);
  size_t relations = num_relations_.load(std::memory_order_relaxed);
  size_t entry_facts = root_facts > entry.removed.size()
                           ? root_facts - entry.removed.size()
                           : 0;
  size_t bytes = DatabaseCopyBytes(entry_facts, relations);
  for (const MemoOutcome::RepairShare& share : entry.outcome->repairs) {
    size_t repair_facts = entry_facts > share.removed.size()
                              ? entry_facts - share.removed.size()
                              : 0;
    bytes += DatabaseCopyBytes(repair_facts, relations);
  }
  return bytes;
}

std::shared_ptr<const MemoOutcome> TranspositionTable::Lookup(
    const StateKey& key, const std::set<FactId>& removed,
    const ViolationSet& eliminated) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto [begin, end] = stripe.map.equal_range(key.Combined());
  bool collided = false;
  for (auto it = begin; it != end; ++it) {
    Entry& entry = it->second;
    if (entry.key == key && RemovedEquals(entry.removed, removed) &&
        entry.eliminated == eliminated) {
      ++stripe.stats.hits;
      entry.chances = CostTier(*entry.outcome);  // second chance refresh
      return entry.outcome;
    }
    collided = true;
  }
  if (collided) ++stripe.stats.collisions;
  ++stripe.stats.misses;
  return nullptr;
}

void TranspositionTable::EvictUntilWithinBudget(Stripe& stripe) {
  size_t stripe_max_entries = std::max<size_t>(1, max_entries_ / kNumStripes);
  size_t stripe_max_bytes =
      max_bytes_ == 0 ? 0 : std::max<size_t>(1, max_bytes_ / kNumStripes);
  auto over_budget = [&]() {
    if (stripe.map.size() > stripe_max_entries) return true;
    return stripe_max_bytes != 0 && stripe.stats.bytes > stripe_max_bytes;
  };
  // CLOCK-style sweep: zero-credit entries go, the rest pay one credit
  // per pass. Terminates because every full pass either evicts or
  // strictly decreases the total credits, and credits cannot rise during
  // the sweep (hits take the stripe lock).
  while (over_budget() && stripe.map.size() > 1) {
    for (auto it = stripe.map.begin();
         it != stripe.map.end() && over_budget();) {
      Entry& entry = it->second;
      if (entry.chances == 0) {
        stripe.stats.bytes -= entry.entry_bytes;
        stripe.stats.payload_bytes -= entry.payload_bytes;
        stripe.stats.full_payload_bytes -= entry.full_bytes;
        it = stripe.map.erase(it);
        --stripe.stats.entries;
        ++stripe.stats.evictions;
      } else {
        if (entry.chances > 0) --entry.chances;
        ++it;
      }
    }
  }
}

void TranspositionTable::EmplaceEntry(Stripe& stripe, Entry entry) {
  auto [begin, end] = stripe.map.equal_range(entry.key.Combined());
  for (auto it = begin; it != end; ++it) {
    const Entry& resident = it->second;
    if (resident.key == entry.key &&
        RemovedEquals(resident.removed, entry.removed) &&
        resident.eliminated == entry.eliminated) {
      return;  // first writer wins; outcomes are equal by soundness
    }
  }
  entry.chances = CostTier(*entry.outcome);
  entry.sequence = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  entry.entry_bytes = EntryBytes(entry);
  entry.payload_bytes = PayloadBytes(entry);
  entry.full_bytes = FullPayloadBytes(entry);
  size_t stripe_max_bytes =
      max_bytes_ == 0 ? 0 : std::max<size_t>(1, max_bytes_ / kNumStripes);
  if (stripe_max_bytes != 0 && entry.entry_bytes > stripe_max_bytes) {
    // The entry alone overflows its stripe's byte share: storing it would
    // just thrash the sweep. Count it as dropped.
    ++stripe.stats.rejected_full;
    return;
  }
  stripe.stats.bytes += entry.entry_bytes;
  stripe.stats.payload_bytes += entry.payload_bytes;
  stripe.stats.full_payload_bytes += entry.full_bytes;
  size_t combined = entry.key.Combined();
  stripe.map.emplace(combined, std::move(entry));
  ++stripe.stats.entries;
  ++stripe.stats.inserts;
  EvictUntilWithinBudget(stripe);
}

void TranspositionTable::Insert(const StateKey& key,
                                const std::set<FactId>& removed,
                                ViolationSet eliminated,
                                std::shared_ptr<const MemoOutcome> outcome) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  Entry entry;
  entry.key = key;
  entry.removed.assign(removed.begin(), removed.end());
  entry.eliminated = std::move(eliminated);
  entry.outcome = std::move(outcome);
  EmplaceEntry(stripe, std::move(entry));
}

void TranspositionTable::RestoreEntry(
    const StateKey& key, std::vector<FactId> removed,
    ViolationSet eliminated, std::shared_ptr<const MemoOutcome> outcome) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  Entry entry;
  entry.key = key;
  entry.removed = std::move(removed);
  entry.eliminated = std::move(eliminated);
  entry.outcome = std::move(outcome);
  EmplaceEntry(stripe, std::move(entry));
}

void TranspositionTable::ForEach(
    const std::function<void(const EntryView&)>& fn, uint64_t since,
    uint64_t upto) const {
  for (const Stripe& stripe : stripes_) {
    // Copy the stripe's payloads out under the lock, run the (possibly
    // slow — snapshot serialization) callback outside it, so concurrent
    // Lookup/Insert wait microseconds, not the whole encode.
    std::vector<EntryView> entries;
    {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      for (const auto& [combined, entry] : stripe.map) {
        if (entry.sequence <= since || entry.sequence > upto) continue;
        entries.push_back({entry.removed, entry.eliminated, entry.outcome});
      }
    }
    for (const EntryView& entry : entries) fn(entry);
  }
}

MemoStats TranspositionTable::stats() const {
  MemoStats stats;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stats += stripe.stats;
  }
  return stats;
}

}  // namespace opcqa
