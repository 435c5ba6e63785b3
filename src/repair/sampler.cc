#include "repair/sampler.h"

#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/parallel.h"

namespace opcqa {

double ApproxOcaResult::Estimate(const Tuple& tuple) const {
  auto it = estimates.find(tuple);
  return it == estimates.end() ? 0.0 : it->second;
}

Sampler::Sampler(const Database& db, const ConstraintSet& constraints,
                 const ChainGenerator* generator, uint64_t seed,
                 SamplerOptions options)
    : context_(RepairContext::Make(db, constraints)),
      generator_(generator),
      seed_(seed),
      options_(options),
      rng_(seed) {
  OPCQA_CHECK(generator != nullptr);
}

namespace {

/// ⌈ln(2/δ) / (2ε²)⌉ as a double; may exceed every size_t (or be +inf).
double HoeffdingSamples(double epsilon, double delta) {
  return std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon));
}

}  // namespace

Status Sampler::CheckGuarantee(double epsilon, double delta) {
  // Written so that NaN fails every comparison.
  if (!(std::isfinite(epsilon) && epsilon > 0.0 && delta > 0.0 &&
        delta < 1.0)) {
    return Status::InvalidArgument(
        "need finite epsilon > 0 and 0 < delta < 1");
  }
  // 2^64 is exact as a double; every double below it converts to size_t.
  if (HoeffdingSamples(epsilon, delta) >=
      std::ldexp(1.0, std::numeric_limits<size_t>::digits)) {
    return Status::OutOfRange("n(epsilon, delta) does not fit in size_t");
  }
  return Status::Ok();
}

size_t Sampler::NumSamples(double epsilon, double delta) {
  Status valid = CheckGuarantee(epsilon, delta);
  OPCQA_CHECK(valid.ok()) << valid.ToString();
  return static_cast<size_t>(HoeffdingSamples(epsilon, delta));
}

WalkResult Sampler::WalkWithRng(Rng* rng) const {
  RepairingState state(context_);
  WalkResult result;
  // One buffer per walk: each step copy-assigns into the operations of the
  // previous one instead of allocating them afresh.
  std::vector<Operation> extensions;
  for (;;) {
    state.ValidExtensions(&extensions);
    if (extensions.empty()) break;  // absorbing
    std::vector<Rational> probs =
        CheckedProbabilities(*generator_, state, extensions);
    size_t pick = rng->WeightedIndex(probs);
    state.ApplyTrusted(extensions[pick]);
    ++result.steps;
  }
  result.successful = state.IsConsistent();
  result.final_db = state.Snapshot();
  return result;
}

WalkResult Sampler::RunWalk() { return WalkWithRng(&rng_); }

WalkResult Sampler::RunWalkAt(uint64_t walk_index) const {
  Rng rng = Rng::Stream(seed_, walk_index);
  return WalkWithRng(&rng);
}

namespace {

// Static chunking of [0, walks): chunk boundaries affect only which worker
// tallies which walks, never the walks themselves, so merged integer counts
// are identical for every chunk/thread count.
struct WalkRange {
  size_t begin;
  size_t end;
};

std::vector<WalkRange> ChunkWalks(size_t walks, size_t chunks) {
  chunks = std::max<size_t>(1, std::min(chunks, walks));
  std::vector<WalkRange> ranges;
  ranges.reserve(chunks);
  size_t base = walks / chunks, extra = walks % chunks, begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    size_t size = base + (c < extra ? 1 : 0);
    ranges.push_back(WalkRange{begin, begin + size});
    begin += size;
  }
  return ranges;
}

}  // namespace

double Sampler::EstimateTuple(const Query& query, const Tuple& tuple,
                              double epsilon, double delta) {
  size_t n = NumSamples(epsilon, delta);
  uint64_t base = walk_cursor_;
  walk_cursor_ += n;
  size_t threads = options_.threads == 0 ? DefaultThreads() : options_.threads;
  std::vector<WalkRange> ranges = ChunkWalks(n, threads);
  std::vector<size_t> hits = ParallelMap<size_t>(
      ranges.size(), threads, [&](size_t c) {
        size_t chunk_hits = 0;
        for (size_t i = ranges[c].begin; i < ranges[c].end; ++i) {
          WalkResult walk = RunWalkAt(base + i);
          if (walk.successful && query.Contains(walk.final_db, tuple)) {
            ++chunk_hits;
          }
        }
        return chunk_hits;
      });
  size_t total = 0;
  for (size_t h : hits) total += h;
  return static_cast<double>(total) / static_cast<double>(n);
}

ApproxOcaResult Sampler::EstimateOcaWithWalks(const Query& query,
                                              size_t walks) {
  ApproxOcaResult result;
  result.walks = walks;
  struct Tally {
    std::map<Tuple, size_t> counts;
    size_t successful = 0;
    size_t failing = 0;
    size_t steps = 0;
  };
  uint64_t base = walk_cursor_;
  walk_cursor_ += walks;
  size_t threads = options_.threads == 0 ? DefaultThreads() : options_.threads;
  std::vector<WalkRange> ranges = ChunkWalks(walks, threads);
  std::vector<Tally> tallies = ParallelMap<Tally>(
      ranges.size(), threads, [&](size_t c) {
        Tally tally;
        for (size_t i = ranges[c].begin; i < ranges[c].end; ++i) {
          WalkResult walk = RunWalkAt(base + i);
          tally.steps += walk.steps;
          if (!walk.successful) {
            ++tally.failing;
            continue;
          }
          ++tally.successful;
          for (const Tuple& tuple : query.Evaluate(walk.final_db)) {
            ++tally.counts[tuple];
          }
        }
        return tally;
      });
  std::map<Tuple, size_t> counts;
  for (Tally& tally : tallies) {  // merged in chunk (index) order
    result.total_steps += tally.steps;
    result.successful_walks += tally.successful;
    result.failing_walks += tally.failing;
    for (const auto& [tuple, count] : tally.counts) counts[tuple] += count;
  }
  for (const auto& [tuple, count] : counts) {
    result.estimates[tuple] =
        static_cast<double>(count) / static_cast<double>(walks);
  }
  return result;
}

ApproxOcaResult Sampler::EstimateOca(const Query& query, double epsilon,
                                     double delta) {
  ApproxOcaResult result =
      EstimateOcaWithWalks(query, NumSamples(epsilon, delta));
  result.epsilon = epsilon;
  result.delta = delta;
  return result;
}

}  // namespace opcqa
