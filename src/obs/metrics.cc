#include "obs/metrics.h"

#include <bit>
#include <cstdio>

namespace opcqa {
namespace obs {

namespace {

double NanosToMs(uint64_t nanos) {
  return static_cast<double>(nanos) / 1e6;
}

}  // namespace

size_t Histogram::BucketIndex(uint64_t nanos) {
  if (nanos < kExactBuckets) return static_cast<size_t>(nanos);
  size_t octave = static_cast<size_t>(std::bit_width(nanos)) - 1;
  if (octave > kMaxOctave) return kBuckets - 1;
  size_t sub = static_cast<size_t>(nanos >> (octave - 2)) & 3;
  return kExactBuckets + (octave - kMinOctave) * kSubBuckets + sub;
}

uint64_t Histogram::BucketLow(size_t index) {
  if (index < kExactBuckets) return index;
  size_t octave = kMinOctave + (index - kExactBuckets) / kSubBuckets;
  size_t sub = (index - kExactBuckets) % kSubBuckets;
  return (uint64_t{1} << octave) + sub * (uint64_t{1} << (octave - 2));
}

uint64_t Histogram::BucketHigh(size_t index) {
  if (index < kExactBuckets) return index + 1;
  size_t octave = kMinOctave + (index - kExactBuckets) / kSubBuckets;
  return BucketLow(index) + (uint64_t{1} << (octave - 2));
}

void Histogram::RecordNanos(uint64_t nanos) {
  if (!enabled()) return;
  Shard& shard = shards_[internal::ThreadShard()];
  shard.buckets[BucketIndex(nanos)].fetch_add(1, std::memory_order_relaxed);
  shard.sum_ns.fetch_add(nanos, std::memory_order_relaxed);
  uint64_t seen = min_ns_.load(std::memory_order_relaxed);
  while (nanos < seen && !min_ns_.compare_exchange_weak(
                             seen, nanos, std::memory_order_relaxed)) {
  }
  seen = max_ns_.load(std::memory_order_relaxed);
  while (nanos > seen && !max_ns_.compare_exchange_weak(
                             seen, nanos, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  uint64_t buckets[kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  for (size_t s = 0; s < kMetricShards; ++s) {
    const Shard& shard = shards_[s];
    for (size_t b = 0; b < kBuckets; ++b) {
      uint64_t n = shard.buckets[b].load(std::memory_order_relaxed);
      buckets[b] += n;
      count += n;
    }
    sum_ns += shard.sum_ns.load(std::memory_order_relaxed);
  }
  HistogramSnapshot snapshot;
  snapshot.count = count;
  snapshot.sum_ms = NanosToMs(sum_ns);
  if (count == 0) return snapshot;
  uint64_t min_ns = min_ns_.load(std::memory_order_relaxed);
  uint64_t max_ns = max_ns_.load(std::memory_order_relaxed);
  snapshot.min_ms = NanosToMs(min_ns == UINT64_MAX ? 0 : min_ns);
  snapshot.max_ms = NanosToMs(max_ns);
  // Nearest-rank percentile over the merged buckets; the reported value
  // is the midpoint of the rank's bucket, clamped to the observed
  // extremes (exact when the bucket is an exact small-nanos one).
  auto percentile = [&](double q) {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
    if (rank < 1) rank = 1;
    if (rank > count) rank = count;
    uint64_t cumulative = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      cumulative += buckets[b];
      if (cumulative >= rank) {
        uint64_t low = BucketLow(b);
        uint64_t high = BucketHigh(b);
        uint64_t mid = low + (high - low) / 2;
        if (mid < min_ns) mid = min_ns;
        if (mid > max_ns) mid = max_ns;
        return NanosToMs(mid);
      }
    }
    return NanosToMs(max_ns);
  };
  snapshot.p50_ms = percentile(0.50);
  snapshot.p95_ms = percentile(0.95);
  snapshot.p99_ms = percentile(0.99);
  return snapshot;
}

std::string MetricsSnapshot::RenderText() const {
  std::string out = "== metrics snapshot ==\n";
  char line[256];
  for (const auto& [name, value] : counters) {
    std::snprintf(line, sizeof(line), "counter  %-38s %llu\n",
                  name.c_str(), static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, value] : gauges) {
    std::snprintf(line, sizeof(line), "gauge    %-38s %lld\n",
                  name.c_str(), static_cast<long long>(value));
    out += line;
  }
  for (const auto& [name, h] : histograms) {
    std::snprintf(line, sizeof(line),
                  "hist     %-38s count=%llu sum=%.3fms p50=%.3f "
                  "p95=%.3f p99=%.3f max=%.3f\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.sum_ms, h.p50_ms, h.p95_ms, h.p99_ms, h.max_ms);
    out += line;
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton (like FailpointRegistry): metric handles must stay
  // valid through static destruction of late reporters.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(&enabled_)))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  return snapshot;
}

}  // namespace obs
}  // namespace opcqa
