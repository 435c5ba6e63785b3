#include "obs/stats_export.h"

namespace opcqa {
namespace obs {

void ExportMemoStats(const MemoStats& stats, MetricsSnapshot* out) {
  auto& c = out->counters;
  c["cache.hits"] = stats.hits;
  c["cache.misses"] = stats.misses;
  c["cache.collisions"] = stats.collisions;
  c["cache.inserts"] = stats.inserts;
  c["cache.rejected_full"] = stats.rejected_full;
  c["cache.evictions"] = stats.evictions;
  auto& g = out->gauges;
  g["cache.entries"] = static_cast<int64_t>(stats.entries);
  g["cache.bytes"] = static_cast<int64_t>(stats.bytes);
  g["cache.payload_bytes"] = static_cast<int64_t>(stats.payload_bytes);
  g["cache.full_payload_bytes"] =
      static_cast<int64_t>(stats.full_payload_bytes);
}

void ExportDiskTierStats(const DiskTierStats& stats, MetricsSnapshot* out) {
  auto& c = out->counters;
  c["disk.spills"] = stats.spills;
  c["disk.spill_bytes"] = stats.spill_bytes;
  c["disk.restores"] = stats.restores;
  c["disk.restore_bytes"] = stats.restore_bytes;
  c["disk.rejected_snapshots"] = stats.rejected_snapshots;
  c["disk.failed_spills"] = stats.failed_spills;
  c["disk.quarantined"] = stats.quarantined;
  c["disk.put_retries"] = stats.put_retries;
  c["disk.swept_temps"] = stats.swept_temps;
  c["disk.breaker_trips"] = stats.breaker_trips;
  c["disk.breaker_skips"] = stats.breaker_skips;
  c["disk.delta_appends"] = stats.delta_appends;
  c["disk.compactions"] = stats.compactions;
  c["disk.compressed_bytes"] = stats.compressed_bytes;
  c["disk.promotions"] = stats.promotions;
  c["disk.demotions"] = stats.demotions;
}

void ExportPlannerStats(const planner::PlannerStats& stats,
                        MetricsSnapshot* out) {
  auto& c = out->counters;
  c["planner.rewrite_plans"] = stats.rewrite_plans;
  c["planner.walk_plans"] = stats.walk_plans;
  c["planner.plan_cache_hits"] = stats.plan_cache_hits;
  c["planner.plan_cache_misses"] = stats.plan_cache_misses;
  c["planner.invalidations"] = stats.invalidations;
}

void ExportServerStats(const server::ServerStats& stats, MetricsSnapshot* out) {
  auto& c = out->counters;
  c["server.submitted"] = stats.submitted;
  c["server.completed"] = stats.completed;
  c["server.rejected_admission"] = stats.rejected_admission;
  c["server.errors"] = stats.errors;
  c["server.shed"] = stats.shed;
  c["server.timed_out"] = stats.timed_out;
  c["server.failed"] = stats.failed;
  c["server.panics"] = stats.panics;
  c["server.batches"] = stats.batches;
  c["server.batched_requests"] = stats.batched_requests;
  c["server.walks"] = stats.walks;
  c["server.replays"] = stats.replays;
  c["server.rewriting_fast_path"] = stats.rewriting_fast_path;
  c["server.topk_searches"] = stats.topk_searches;
  c["server.mutations"] = stats.mutations;
  c["server.pressure_bypasses"] = stats.pressure_bypasses;
  c["server.deadline_truncations"] = stats.deadline_truncations;
  out->gauges["server.tenants"] = static_cast<int64_t>(stats.tenants);
  ExportMemoStats(stats.cache, out);
  ExportDiskTierStats(stats.disk, out);
  ExportPlannerStats(stats.planner, out);
}

}  // namespace obs
}  // namespace opcqa
