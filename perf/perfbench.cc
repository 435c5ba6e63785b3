// The repository benchmark: three workloads driven through the public API
// of the opcqa library, each with an answer check, a set-up phase counted
// apart from the timed window, and an optional traced pass that charges
// the time to the src/ layers a user's milliseconds pass through.
//
//   opcqa_perfbench --workload <serve_mixed|session_8q|approx_sample>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--tiny] [--corrupt] [--out <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (perf/README.md defines each metric per workload and
// records which end-to-end metric each layer metric should move).
//
// --tiny shrinks every input so the self-check (perf/selfcheck.py) runs
// in seconds; --corrupt flips one byte of the first answer before it is
// checked, so the self-check can show a wrong answer is counted as failed.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/ocqa_session.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "obs/metrics.h"
#include "repair/chain_generator.h"
#include "repair/ocqa.h"
#include "repair/sampler.h"
#include "server/ocqa_server.h"
#include "server/trace.h"

namespace {

using namespace opcqa;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// Open-loop offered rate of serve_mixed, below a third of the closed-loop
// throughput with kServeWorkers on a 4-vCPU 2.1 GHz Xeon VM (950-2300
// req/s, depending on the load of the shared host); BENCHMARK.json quotes
// it. A fixed rate, not a fraction of this run's own closed phase, so that
// two commits are offered exactly the same load.
constexpr double kOpenLoopRps = 300.0;

// Thread counts are fixed and below the vCPU count, so that a run measures
// the program and not the scheduler of a shared host. With two busy-loop
// processes beside it on a 4-vCPU VM, session_8q with a chain walk on 4
// threads spread by 6-42% across seeds and on 1 thread by under 1%;
// approx_sample 23-27% against under 1%; serve_mixed with 3 workers 15-32%
// against 4-7% with 2.
constexpr size_t kServeWorkers = 2;
constexpr size_t kWalkThreads = 1;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Starts a window for PeakRssMb: returns the heap memory freed so far
/// to the OS, then resets the kernel's resident high-water mark to the
/// current resident set. Without it the peak would be set-up's, or would
/// depend on how the set-up's freed memory lies across malloc arenas.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last ResetPeakRss (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank percentile (p in [0,100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Conventional median: the mean of the two middle values for even sizes.
double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den <= 0 ? 0 : num / den; }

/// Splits [0, n) into `chunks` consecutive ranges and returns the median of
/// `figure(begin, end)` over them: a run is reported as the median of its
/// sub-runs, so a burst of machine noise moves one sub-run, not the figure.
template <typename Fn>
double MedianOfChunks(size_t n, size_t chunks, Fn figure) {
  std::vector<double> values;
  for (size_t c = 0; c < chunks; ++c) {
    size_t lo = n * c / chunks, hi = n * (c + 1) / chunks;
    if (lo < hi) values.push_back(figure(lo, hi));
  }
  return Median(values);
}

/// Every percentile of a fixed ladder that has at least ten samples
/// beyond it, with the sample count (diagnostic output).
std::string TailLine(const std::string& label, const std::vector<double>& ms) {
  std::ostringstream line;
  line << label << ": n=" << ms.size() << " mean=" << Mean(ms)
       << " p50=" << Percentile(ms, 50);
  for (double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    double beyond = static_cast<double>(ms.size()) * (1.0 - p / 100.0);
    if (beyond + 1e-9 < 10) break;
    line << " p" << p << "=" << Percentile(ms, p) << " (" << beyond
         << " beyond)";
  }
  line << " ms";
  return line.str();
}

// ---------------------------------------------------------------------
// Spans: recorded by the benchmark around every call it makes into the
// library, kept in memory, written as a Chrome trace at exit. Off in the
// untraced run, where only the latency samples the metrics need are kept.
// ---------------------------------------------------------------------

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  uint64_t thread;
};

class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  void Add(const char* name, Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return;
    uint64_t thread = std::hash<std::thread::id>()(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, end, thread});
  }

  /// Share of [begin, end) covered by the union of the recorded call
  /// spans. Spans named "round.*" group calls and are left out, so the
  /// benchmark's own work between calls shows as uncovered.
  double Coverage(Clock::time_point begin, Clock::time_point end) const {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cut;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const Span& span : spans_) {
        if (std::strncmp(span.name, "round.", 6) == 0) continue;
        Clock::time_point s = std::max(span.start, begin);
        Clock::time_point e = std::min(span.end, end);
        if (s < e) cut.emplace_back(s, e);
      }
    }
    std::sort(cut.begin(), cut.end());
    Clock::duration covered{0};
    Clock::time_point reach = begin;
    for (const auto& [s, e] : cut) {
      if (e <= reach) continue;
      covered += e - std::max(s, reach);
      reach = e;
    }
    return Ratio(Ms(covered), Ms(end - begin));
  }

  /// Total duration per span name, in ms (summed across threads).
  std::map<std::string, double> TotalsMs() const {
    std::map<std::string, double> totals;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& span : spans_) totals[span.name] += Ms(span.end - span.start);
    return totals;
  }

  bool WriteChromeTrace(const fs::path& path, Clock::time_point origin) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      double ts = std::chrono::duration<double, std::micro>(span.start - origin).count();
      double dur = std::chrono::duration<double, std::micro>(span.end - span.start).count();
      out << (i == 0 ? "" : ",") << "{\"name\":\"" << span.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (span.thread % 100000)
          << ",\"ts\":" << ts << ",\"dur\":" << dur << "}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

/// Times a scope into the span log (when tracing) and returns its length.
class SpanTimer {
 public:
  explicit SpanTimer(const char* name) : name_(name), start_(Clock::now()) {}
  double StopMs() {
    Clock::time_point end = Clock::now();
    g_spans.Add(name_, start_, end);
    return Ms(end - start_);
  }

 private:
  const char* name_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------
// Registry histogram deltas: count and total ms accrued between two
// snapshots of the process-global metrics registry.
// ---------------------------------------------------------------------

struct HistDelta {
  uint64_t count = 0;
  double sum_ms = 0;
  double MeanMs() const { return count == 0 ? 0 : sum_ms / static_cast<double>(count); }
};

class RegistryDelta {
 public:
  void Begin() { before_ = obs::MetricsRegistry::Global().Snapshot(); }
  void End() {
    obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
    for (const auto& [name, hist] : after.histograms) {
      HistDelta& d = totals_[name];
      auto it = before_.histograms.find(name);
      uint64_t count0 = it == before_.histograms.end() ? 0 : it->second.count;
      double sum0 = it == before_.histograms.end() ? 0 : it->second.sum_ms;
      d.count += hist.count - count0;
      d.sum_ms += hist.sum_ms - sum0;
    }
  }
  HistDelta Get(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? HistDelta() : it->second;
  }

 private:
  obs::MetricsSnapshot before_;
  std::map<std::string, HistDelta> totals_;
};

// ---------------------------------------------------------------------
// Run result.
// ---------------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

struct Outcome {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double timed_s = 0;  // wall clock of the timed window(s)
  double coverage = 0;  // span coverage of the timed window (traced pass)
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::vector<std::string> notes;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string out = ".bench_out";
};

/// Splits a 64-bit seed into independent per-purpose seeds.
uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % 1000000007ULL;
}

void Corrupt(std::string* answer) {
  if (answer->empty()) {
    *answer = "corrupted";
  } else {
    (*answer)[answer->size() / 2] ^= 0x01;
  }
}

/// Runs `setup` five times and returns the median wall time in seconds;
/// the inputs the last call built are the ones the timed window uses.
double MedianSetupSeconds(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < 5; ++rep) {
    Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(Ms(Clock::now() - start) / 1000.0);
  }
  return Median(seconds);
}

// =====================================================================
// serve_mixed — the e18 root-skewed mixed trace through OcqaServer.
//
// Two phases, each on a fresh server over the same trace from its first
// request: a closed loop for throughput, then an open loop at a fixed
// offered rate for latency. Each phase runs for half the time budget, so
// a run covers thousands of requests and the trace's random mix (writes,
// cold-generator reads) averages out across seeds.
// =====================================================================

struct ServeInputs {
  gen::Workload workload;
  std::vector<server::Request> trace;
};

server::ServerOptions ServeOptions() {
  server::ServerOptions options;
  options.workers = kServeWorkers;
  options.cache.max_roots = 32;  // memory-only: no snapshot_dir
  return options;
}

ServeInputs MakeServeInputs(const Args& args, size_t requests) {
  ServeInputs in;
  in.workload = gen::MakeKeyViolationWorkload(5, 4, 2, SubSeed(args.seed, 1));
  server::TraceSpec spec;
  spec.tenants = 4;
  spec.requests = requests;
  spec.write_fraction = 0.05;
  spec.certain_fraction = 0.2;
  spec.topk_fraction = 0.05;
  spec.hot_root_fraction = 0.85;
  spec.seed = SubSeed(args.seed, 2);
  in.trace = server::GenerateTrace(in.workload, spec);
  return in;
}

/// 64-bit FNV-1a digest of a response's rendering.
uint64_t Digest(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

/// What a phase keeps of a response: a few bytes, so that peak RSS does
/// not grow with the number of requests a run happens to serve. The
/// rendering is reduced to a digest on arrival and checked against the
/// serial replay's after the timed window.
struct Served {
  uint64_t id = 0;
  server::Response::Path path = server::Response::Path::kWalk;
  bool status_ok = false;
  uint64_t digest = 0;
  double latency_ms = 0;
  Clock::time_point done;
};

/// --corrupt flips a byte of the first response recorded (`corrupt` is
/// cleared by that call).
Served Record(server::Response response, double latency_ms, Clock::time_point done,
              std::atomic<bool>* corrupt) {
  Served s;
  s.id = response.id;
  s.path = response.path;
  s.status_ok = response.status.ok();
  s.latency_ms = latency_ms;
  s.done = done;
  std::string rendered = server::RenderResponses({std::move(response)});
  if (corrupt->exchange(false)) Corrupt(&rendered);
  s.digest = Digest(rendered);
  return s;
}

/// One phase on a fresh server. The window [begin, end) excludes server
/// construction and destruction.
struct Phase {
  std::vector<Served> served;
  std::vector<double> late_ms;  // open loop only
  server::ServerStats stats;
  Clock::time_point begin, end;
  double WallMs() const { return Ms(end - begin); }
};

/// Closed loop: one client per tenant, each submitting its slice of the
/// trace in bursts of 4 and waiting each burst out, until the deadline.
Phase RunClosedPhase(const ServeInputs& in, double seconds, std::atomic<bool>* corrupt) {
  std::map<std::string, std::vector<const server::Request*>> per_tenant;
  for (const server::Request& request : in.trace) {
    per_tenant[request.tenant].push_back(&request);
  }
  server::OcqaServer srv(in.workload.db, in.workload.constraints, ServeOptions());
  Phase out;
  std::mutex mutex;
  out.begin = Clock::now();
  Clock::time_point deadline =
      out.begin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (auto& [tenant, slice] : per_tenant) {
    const std::vector<const server::Request*>* mine_in = &slice;
    clients.emplace_back([&, mine_in] {
      constexpr size_t kBurst = 4;
      std::vector<Served> mine;
      for (size_t i = 0; i < mine_in->size() && Clock::now() < deadline;
           i += kBurst) {
        size_t end = std::min(mine_in->size(), i + kBurst);
        std::vector<std::future<server::Response>> futures;
        Clock::time_point start = Clock::now();
        for (size_t j = i; j < end; ++j) futures.push_back(srv.Submit(*(*mine_in)[j]));
        for (std::future<server::Response>& future : futures) {
          server::Response response = future.get();
          Clock::time_point done = Clock::now();
          g_spans.Add("server.submit_to_response", start, done);
          mine.push_back(Record(std::move(response), Ms(done - start), done, corrupt));
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      out.served.insert(out.served.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& client : clients) client.join();
  out.end = Clock::now();
  out.stats = srv.Stats();
  return out;
}

/// Open loop: one generator submits request i at begin + i / rate,
/// regardless of completions; one collector stamps completions. A
/// request's latency runs from its due time, so generator lateness and
/// queueing both count.
Phase RunOpenPhase(const ServeInputs& in, size_t requests, double rate,
                   std::atomic<bool>* corrupt) {
  server::OcqaServer srv(in.workload.db, in.workload.constraints, ServeOptions());
  struct Pending {
    std::future<server::Response> future;
    Clock::time_point due;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool generator_done = false;
  Phase out;
  out.begin = Clock::now();
  std::thread collector([&] {
    std::vector<Pending> outstanding;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (outstanding.empty()) {
          cv.wait(lock, [&] { return generator_done || !queue.empty(); });
        }
        while (!queue.empty()) {
          outstanding.push_back(std::move(queue.front()));
          queue.pop_front();
        }
        if (outstanding.empty() && generator_done) break;
      }
      if (outstanding.empty()) continue;
      // Block on the oldest for at most 200 µs, then sweep every
      // outstanding future: completions out of submission order are
      // stamped within one sweep interval.
      outstanding.front().future.wait_for(std::chrono::microseconds(200));
      Clock::time_point now = Clock::now();
      for (size_t i = 0; i < outstanding.size();) {
        if (outstanding[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          g_spans.Add("server.submit_to_response", outstanding[i].due, now);
          out.served.push_back(Record(outstanding[i].future.get(),
                                      Ms(now - outstanding[i].due), now, corrupt));
          outstanding.erase(outstanding.begin() + static_cast<ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
    }
  });
  Clock::time_point previous = out.begin;
  for (size_t i = 0; i < requests; ++i) {
    Clock::time_point due =
        out.begin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) / rate));
    std::this_thread::sleep_until(due);
    Clock::time_point submit = Clock::now();
    g_spans.Add("loadgen.idle", previous, submit);
    out.late_ms.push_back(Ms(submit - due));
    Pending pending{srv.Submit(in.trace[i]), due};
    previous = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(pending));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    generator_done = true;
  }
  cv.notify_one();
  collector.join();
  out.end = Clock::now();
  out.stats = srv.Stats();
  return out;
}

/// The byte-identity reference: each tenant's requests replayed serially
/// on one private-cache session (ReplaySerial kSessionPerTenant), the
/// tenants on parallel threads (their timelines are independent).
std::map<uint64_t, std::string> ServeReference(const ServeInputs& in,
                                               uint64_t max_id) {
  std::map<std::string, std::vector<server::Request>> per_tenant;
  for (const server::Request& request : in.trace) {
    if (request.id <= max_id) per_tenant[request.tenant].push_back(request);
  }
  std::vector<std::vector<server::Response>> results(per_tenant.size());
  std::vector<std::thread> threads;
  size_t index = 0;
  for (auto& [tenant, list] : per_tenant) {
    threads.emplace_back([&, slot = index++, mine = &list] {
      results[slot] = server::ReplaySerial(in.workload, *mine,
                                           server::ReplayMode::kSessionPerTenant);
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::map<uint64_t, std::string> rendered;
  for (std::vector<server::Response>& list : results) {
    for (server::Response& response : list) {
      uint64_t id = response.id;
      rendered[id] = server::RenderResponses({std::move(response)});
    }
  }
  return rendered;
}

Outcome RunServe(const Args& args, double* setup_s) {
  // The closed loop gets the larger share: the bounded metrics come from it.
  const double closed_s = args.seconds * 0.6, open_s = args.seconds - closed_s;
  const double rate = args.tiny ? kOpenLoopRps / 2 : kOpenLoopRps;
  const size_t open_requests = static_cast<size_t>(std::ceil(open_s * rate));
  // Enough requests that the closed loop does not run out before its
  // deadline on a machine about twice as fast as a 4-core 2.1 GHz one
  // (about 1650 req/s there); past the trace's end it stops early.
  const size_t requests =
      std::max(open_requests, static_cast<size_t>(3500 * closed_s) + 1000);
  ServeInputs in;
  *setup_s = MedianSetupSeconds([&] {
    in = MakeServeInputs(args, requests);
    // Warm-up: a short served run covers FactStore interning of this
    // database, the server's pool start-up and the allocator.
    server::OcqaServer srv(in.workload.db, in.workload.constraints, ServeOptions());
    srv.SubmitAll(std::vector<server::Request>(in.trace.begin(), in.trace.begin() + 400));
  });

  std::atomic<bool> corrupt{args.corrupt};
  Outcome out;
  RegistryDelta closed_delta, open_delta;
  ResetPeakRss();
  closed_delta.Begin();
  Phase closed = RunClosedPhase(in, closed_s, &corrupt);
  closed_delta.End();
  malloc_trim(0);  // the closed phase's server is gone
  open_delta.Begin();
  Phase open = RunOpenPhase(in, open_requests, rate, &corrupt);
  open_delta.End();
  out.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  double timed_ms = closed.WallMs() + open.WallMs();
  out.timed_s = timed_ms / 1000;
  if (g_spans.enabled()) {
    out.coverage = (g_spans.Coverage(closed.begin, closed.end) * closed.WallMs() +
                    g_spans.Coverage(open.begin, open.end) * open.WallMs()) /
                   timed_ms;
  }

  // Answer check against the serial replay.
  uint64_t max_id = 0;
  for (const Phase* phase : {&closed, &open}) {
    for (const Served& s : phase->served) max_id = std::max(max_id, s.id);
  }
  std::map<uint64_t, std::string> reference = ServeReference(in, max_id);
  for (const Phase* phase : {&closed, &open}) {
    for (const Served& s : phase->served) {
      ++out.ops;
      auto it = reference.find(s.id);
      if (!s.status_ok || it == reference.end() || Digest(it->second) != s.digest) {
        ++out.failed;
      }
    }
  }

  // End-to-end, all from the closed loop: the median over four equal
  // time windows of the completions per second and of the latencies of
  // the requests completed in each window (thousands per window, so a
  // window's p99 has over ten samples beyond it). Means, not medians: a
  // replay queued behind a walk in its burst waits for it, so latencies
  // have two modes and a median sits at the knee between them. The open
  // loop's latencies are reported below but not bounded: on a 4-vCPU VM
  // whose scheduler stalls show as generator lateness (p99 from 0.1 to
  // 4.8 ms across seeds), they spread 20-56% across seeds.
  std::vector<double> closed_ms, open_ms, walk_ms, replay_ms;
  for (const Served& s : closed.served) closed_ms.push_back(s.latency_ms);
  for (const Served& s : open.served) {
    open_ms.push_back(s.latency_ms);
    if (s.path == server::Response::Path::kWalk) walk_ms.push_back(s.latency_ms);
    if (s.path == server::Response::Path::kReplay) replay_ms.push_back(s.latency_ms);
  }
  std::sort(closed.served.begin(), closed.served.end(),
            [](const Served& a, const Served& b) { return a.done < b.done; });
  const double window_ms = 1000 * closed_s / 4;
  auto in_window = [&](size_t w) {
    Clock::time_point lo = closed.begin + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double, std::milli>(w * window_ms));
    auto first = std::lower_bound(closed.served.begin(), closed.served.end(), lo,
                                  [](const Served& s, Clock::time_point t) { return s.done < t; });
    return static_cast<size_t>(first - closed.served.begin());
  };
  auto closed_figure = [&](auto fn) {
    std::vector<double> values;
    for (size_t w = 0; w < 4; ++w) {
      std::vector<double> all, walk, replay;
      for (size_t i = in_window(w); i < in_window(w + 1); ++i) {
        const Served& s = closed.served[i];
        all.push_back(s.latency_ms);
        if (s.path == server::Response::Path::kWalk) walk.push_back(s.latency_ms);
        if (s.path == server::Response::Path::kReplay) replay.push_back(s.latency_ms);
      }
      values.push_back(fn(all, walk, replay));
    }
    return Median(values);
  };
  using V = const std::vector<double>&;
  out.e2e["throughput_ops_s"] = {
      closed_figure([&](V all, V, V) { return 1000 * static_cast<double>(all.size()) / window_ms; }),
      "1/s"};
  out.e2e["mean_ms"] = {closed_figure([](V all, V, V) { return Mean(all); }), "ms"};
  out.e2e["tail_ms"] = {closed_figure([](V all, V, V) { return Percentile(all, 99); }), "ms"};
  out.e2e["cold_ms"] = {closed_figure([](V, V walk, V) { return Mean(walk); }), "ms"};
  out.e2e["warm_ms"] = {closed_figure([](V, V, V replay) { return Mean(replay); }), "ms"};
  {
    std::ostringstream line;
    line << "closed loop: " << closed.served.size() << " requests in "
         << closed.WallMs() << " ms; open loop: " << open.served.size()
         << " requests offered at " << rate << " req/s over " << open.WallMs() << " ms";
    out.notes.push_back(line.str());
  }
  out.notes.push_back(TailLine("closed-loop latency (burst submit -> response)", closed_ms));
  {
    std::vector<double> walk, replay;
    for (const Served& s : closed.served) {
      if (s.path == server::Response::Path::kWalk) walk.push_back(s.latency_ms);
      if (s.path == server::Response::Path::kReplay) replay.push_back(s.latency_ms);
    }
    out.notes.push_back(TailLine("closed-loop latency, walked a root (path=walk)", walk));
    out.notes.push_back(TailLine("closed-loop latency, cache replay (path=replay)", replay));
  }
  out.notes.push_back(TailLine("open-loop latency from due time", open_ms));
  out.notes.push_back(TailLine("open-loop latency, walked a root (path=walk)", walk_ms));
  out.notes.push_back(TailLine("open-loop latency, cache replay (path=replay)", replay_ms));
  out.notes.push_back(TailLine("open-loop generator lateness", open.late_ms));

  // Per-layer.
  uint64_t batches = 0, batched = 0, walks = 0, replays = 0, fast = 0,
           certain = 0, hits = 0, misses = 0, evictions = 0, plan_hits = 0,
           plan_misses = 0;
  double cache_bytes = 0;
  for (const Phase* phase : {&closed, &open}) {
    for (const Served& s : phase->served) {
      if (in.trace[s.id - in.trace.front().id].kind == server::RequestKind::kCertain) {
        ++certain;
      }
    }
    {
      const server::ServerStats& st = phase->stats;
      batches += st.batches;
      batched += st.batched_requests;
      walks += st.walks;
      replays += st.replays;
      fast += st.rewriting_fast_path;
      hits += st.cache.hits;
      misses += st.cache.misses;
      evictions += st.cache.evictions;
      plan_hits += st.planner.plan_cache_hits;
      plan_misses += st.planner.plan_cache_misses;
      cache_bytes = std::max(cache_bytes, static_cast<double>(st.cache.bytes));
    }
  }
  auto merged = [&](const std::string& name) {
    HistDelta a = closed_delta.Get(name), b = open_delta.Get(name);
    a.count += b.count;
    a.sum_ms += b.sum_ms;
    return a;
  };
  HistDelta enumerate = merged("engine.enumerate_ms");
  double ops = static_cast<double>(out.ops);
  out.layer["server.exec_ms"] = {merged("server.request_ms").MeanMs(), "ms"};
  out.layer["server.wait_ms"] = {
      std::max(0.0, Mean(closed_ms) - closed_delta.Get("server.request_ms").MeanMs()), "ms"};
  out.layer["server.batch_size"] = {Ratio(static_cast<double>(batched), static_cast<double>(batches)), "requests"};
  out.layer["server.replay_ratio"] = {Ratio(static_cast<double>(replays), static_cast<double>(walks + replays)), "ratio"};
  out.layer["server.fast_path_ratio"] = {Ratio(static_cast<double>(fast), static_cast<double>(certain)), "ratio"};
  out.layer["loadgen.late_p99_ms"] = {Percentile(open.late_ms, 99), "ms"};
  out.layer["planner.plan_ms"] = {merged("planner.plan_ms").MeanMs(), "ms"};
  out.layer["planner.plan_cache_hit_ratio"] = {Ratio(static_cast<double>(plan_hits), static_cast<double>(plan_hits + plan_misses)), "ratio"};
  out.layer["walk.calls"] = {Ratio(static_cast<double>(enumerate.count), ops), "count/op"};
  out.layer["walk.ms"] = {enumerate.MeanMs(), "ms"};
  out.layer["walk.states"] = {Ratio(static_cast<double>(misses), ops), "count/op"};
  out.layer["walk.states_per_ms"] = {Ratio(static_cast<double>(misses), enumerate.sum_ms), "1/ms"};
  out.layer["cache.hit_ratio"] = {Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio"};
  out.layer["cache.probe_ms"] = {merged("cache.probe_ms").MeanMs(), "ms"};
  out.layer["cache.evictions"] = {Ratio(static_cast<double>(evictions), ops), "count/op"};
  out.layer["cache.bytes"] = {cache_bytes, "bytes"};

  // Busy time per layer, summed across threads (ms per request).
  double storage = merged("storage.get_ms").sum_ms + merged("storage.put_ms").sum_ms +
                   merged("storage.append_ms").sum_ms;
  double probe = merged("cache.probe_ms").sum_ms;
  double plan = merged("planner.plan_ms").sum_ms;
  double request = merged("server.request_ms").sum_ms;
  double unit = merged("server.unit_ms").sum_ms;
  std::ostringstream busy;
  busy << "busy ms/request by layer: server(unit - request exec)=" << (unit - request) / ops
       << " engine(request exec - walk - planner)=" << (request - enumerate.sum_ms - plan) / ops
       << " planner=" << plan / ops << " repair.walk=" << (enumerate.sum_ms - probe) / ops
       << " repair.cache=" << (probe - storage) / ops << " storage=" << storage / ops
       << " | observed latency ms/request="
       << (Mean(open_ms) * static_cast<double>(open_ms.size()) +
           Mean(closed_ms) * static_cast<double>(closed_ms.size())) / ops;
  out.notes.push_back(busy.str());
  return out;
}

// =====================================================================
// session_8q — the e5 eight-query set through OcqaSession, cold then warm
// over a private snapshot directory.
// =====================================================================

std::vector<Query> PersistQueries(const Schema& schema) {
  const char* texts[] = {
      "Q(x,y) := R(x,y)",
      "Q(x) := exists y: R(x,y)",
      "Q(y) := exists x: R(x,y)",
      "Q(y) := R(k0, y)",
      "Q(y) := R(k1, y)",
      "Q(x,u) := exists y: (R(x,y), R(u,y))",
      "Q(x) := exists y: (R(x,y), R(k0, y))",
      "Q(x) := R(x, x)",
  };
  std::vector<Query> queries;
  for (const char* text : texts) {
    Result<Query> query = ParseQuery(schema, text);
    if (!query.ok()) {
      std::fprintf(stderr, "cannot parse %s\n", text);
      std::exit(1);
    }
    queries.push_back(std::move(query.value()));
  }
  return queries;
}

std::string RenderOca(const OcaResult& oca) {
  std::string out = "success=" + oca.success_mass.ToString() +
                    " failing=" + oca.failing_mass.ToString() + "\n";
  for (const auto& [tuple, probability] : oca.answers) {
    out += TupleToString(tuple) + " " + probability.ToString() + "\n";
  }
  return out;
}

struct SessionHalf {
  Clock::time_point begin, end;
  double total_ms = 0;
  double construct_ms = 0;
  std::vector<double> answer_ms;
  double close_ms = 0;
  std::vector<std::string> answers;
  MemoStats memo;
  DiskTierStats disk;
};

Outcome RunSession(const Args& args, double* setup_s) {
  const size_t instances = 3;
  const size_t keys = args.tiny ? 4 : 7, violating = args.tiny ? 3 : 5;
  UniformChainGenerator generator;
  std::vector<gen::Workload> workloads;
  std::vector<std::vector<Query>> queries;
  fs::path dir = fs::path(args.out) / ("snapshots-" + std::to_string(::getpid()));

  engine::SessionOptions options;
  options.enumeration.threads = kWalkThreads;
  options.cache.snapshot_dir = dir.string();

  // One round on instance i: the cold half from an empty directory
  // (construct, 8 queries, destroy = spill), then the warm half over the
  // populated directory (construct, restore + 8 queries, destroy).
  auto half = [&](size_t i, const char* name) {
    SessionHalf h;
    std::vector<OcaResult> results;
    h.begin = Clock::now();
    {
      SpanTimer construct("engine.construct");
      auto session = std::make_unique<engine::OcqaSession>(
          workloads[i].db, workloads[i].constraints, options);
      h.construct_ms = construct.StopMs();
      for (const Query& query : queries[i]) {
        SpanTimer answer("engine.answer");
        results.push_back(session->Answer(generator, query));
        h.answer_ms.push_back(answer.StopMs());
      }
      h.memo = session->CacheStats();
      h.disk = session->DiskStats();
      SpanTimer close("engine.close");
      session.reset();
      h.close_ms = close.StopMs();
    }
    h.end = Clock::now();
    g_spans.Add(name, h.begin, h.end);
    h.total_ms = Ms(h.end - h.begin);
    for (const OcaResult& result : results) h.answers.push_back(RenderOca(result));
    return h;
  };
  auto empty_dir = [&] {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
  };

  *setup_s = MedianSetupSeconds([&] {
    workloads.clear();
    queries.clear();
    for (size_t i = 0; i < instances; ++i) {
      workloads.push_back(gen::MakeKeyViolationWorkload(
          keys, violating, 2, SubSeed(args.seed, 10 + i)));
      queries.push_back(PersistQueries(*workloads.back().schema));
    }
    // Warm-up: one round per instance covers FactStore interning, the
    // global thread pool and the allocator.
    for (size_t i = 0; i < instances; ++i) {
      empty_dir();
      half(i, "setup.cold");
      half(i, "setup.warm");
    }
  });

  Outcome out;
  RegistryDelta delta;
  std::vector<SessionHalf> cold, warm;
  std::vector<size_t> instance_of;
  std::vector<double> snapshot_bytes, round_bytes;
  auto dir_bytes = [&] {
    uintmax_t bytes = 0;
    std::error_code ec;
    for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
      if (entry.is_regular_file()) bytes += entry.file_size();
    }
    return static_cast<double>(bytes);
  };
  Clock::duration timed{0};
  ResetPeakRss();
  Clock::duration budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args.seconds));
  delta.Begin();
  for (size_t round = 0; timed < budget; ++round) {
    size_t i = round % instances;
    empty_dir();  // hygiene, outside the timed window
    cold.push_back(half(i, "round.cold_half"));
    snapshot_bytes.push_back(dir_bytes());
    warm.push_back(half(i, "round.warm_half"));
    round_bytes.push_back(dir_bytes());
    timed += (cold.back().end - cold.back().begin) + (warm.back().end - warm.back().begin);
    instance_of.push_back(i);
  }
  delta.End();
  out.timed_s = Ms(timed) / 1000.0;
  out.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  if (g_spans.enabled()) {
    double covered = 0;
    for (const auto& halves : {&cold, &warm}) {
      for (const SessionHalf& h : *halves) {
        covered += g_spans.Coverage(h.begin, h.end) * Ms(h.end - h.begin);
      }
    }
    out.coverage = covered / Ms(timed);
  }
  {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  // Reference: memo-off serial walks, one thread per instance.
  std::vector<std::vector<std::string>> reference(instances);
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < instances; ++i) {
      threads.emplace_back([&, i] {
        EnumerationOptions plain;
        plain.memoize = false;
        plain.threads = 1;
        for (const Query& query : queries[i]) {
          reference[i].push_back(RenderOca(ComputeOca(
              workloads[i].db, workloads[i].constraints, generator, query, plain)));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  bool first = true;
  for (size_t r = 0; r < cold.size(); ++r) {
    for (SessionHalf* h : {&cold[r], &warm[r]}) {
      for (size_t q = 0; q < h->answers.size(); ++q) {
        ++out.ops;
        std::string answer = h->answers[q];
        if (args.corrupt && first) Corrupt(&answer);
        first = false;
        if (answer != reference[instance_of[r]][q]) ++out.failed;
      }
    }
  }

  std::vector<double> cold_ms, warm_ms, answer_ms, first_ms, restore_ms, replay_ms, close_ms,
      restore_bytes;
  uint64_t hits = 0, misses = 0, evictions = 0;
  double cache_bytes = 0;
  for (size_t r = 0; r < cold.size(); ++r) {
    cold_ms.push_back(cold[r].total_ms);
    warm_ms.push_back(warm[r].total_ms);
    first_ms.push_back(cold[r].answer_ms.front());
    restore_ms.push_back(warm[r].answer_ms.front());
    close_ms.push_back(cold[r].close_ms);
    restore_bytes.push_back(static_cast<double>(warm[r].disk.restore_bytes));
    for (const SessionHalf* h : {&cold[r], &warm[r]}) {
      answer_ms.insert(answer_ms.end(), h->answer_ms.begin(), h->answer_ms.end());
      replay_ms.insert(replay_ms.end(), h->answer_ms.begin() + 1, h->answer_ms.end());
      hits += h->memo.hits;
      misses += h->memo.misses;
      evictions += h->memo.evictions;
      cache_bytes = std::max(cache_bytes, static_cast<double>(h->memo.bytes));
    }
  }
  double ops = static_cast<double>(out.ops);
  // Throughput and Answer latencies: the median over four consecutive
  // quarters of the rounds.
  auto quarter = [&](auto fn) {
    return MedianOfChunks(cold.size(), 4, [&](size_t lo, size_t hi) {
      std::vector<double> answers;
      double wall_ms = 0;
      for (size_t r = lo; r < hi; ++r) {
        for (const SessionHalf* h : {&cold[r], &warm[r]}) {
          answers.insert(answers.end(), h->answer_ms.begin(), h->answer_ms.end());
          wall_ms += h->total_ms;
        }
      }
      return fn(answers, wall_ms);
    });
  };
  out.e2e["throughput_ops_s"] = {
      quarter([](const std::vector<double>& a, double wall_ms) {
        return 1000 * static_cast<double>(a.size()) / wall_ms;
      }),
      "1/s"};
  out.e2e["mean_ms"] = {
      quarter([](const std::vector<double>& a, double) { return Mean(a); }), "ms"};
  out.e2e["tail_ms"] = {
      quarter([](const std::vector<double>& a, double) { return Percentile(a, 95); }), "ms"};
  out.e2e["cold_ms"] = {Median(cold_ms), "ms"};
  out.e2e["warm_ms"] = {Median(warm_ms), "ms"};
  out.notes.push_back(TailLine("cold half (construct + 8 queries + close)", cold_ms));
  out.notes.push_back(TailLine("warm half (construct + restore + 8 queries + close)", warm_ms));
  out.notes.push_back(TailLine("Answer call, both halves", answer_ms));
  out.notes.push_back(std::to_string(cold.size()) + " rounds over " +
                      std::to_string(instances) + " instances");

  HistDelta enumerate = delta.Get("engine.enumerate_ms");
  HistDelta restore = delta.Get("cache.restore_ms");
  HistDelta spill = delta.Get("cache.spill_ms");
  out.layer["engine.first_query_ms"] = {Median(first_ms), "ms"};
  out.layer["engine.replay_query_ms"] = {Median(replay_ms), "ms"};
  out.layer["engine.restore_query_ms"] = {Median(restore_ms), "ms"};
  out.layer["engine.close_ms"] = {Median(close_ms), "ms"};
  out.layer["planner.plan_ms"] = {delta.Get("planner.plan_ms").MeanMs(), "ms"};
  out.layer["walk.calls"] = {Ratio(static_cast<double>(enumerate.count), ops), "count/op"};
  out.layer["walk.ms"] = {enumerate.MeanMs(), "ms"};
  out.layer["walk.states"] = {Ratio(static_cast<double>(misses), ops), "count/op"};
  out.layer["walk.states_per_ms"] = {Ratio(static_cast<double>(misses), enumerate.sum_ms), "1/ms"};
  out.layer["cache.hit_ratio"] = {Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio"};
  out.layer["cache.probe_ms"] = {delta.Get("cache.probe_ms").MeanMs(), "ms"};
  out.layer["cache.evictions"] = {Ratio(static_cast<double>(evictions), ops), "count/op"};
  out.layer["cache.bytes"] = {cache_bytes, "bytes"};
  out.layer["storage.restore_ms"] = {restore.MeanMs(), "ms"};
  out.layer["storage.spill_ms"] = {spill.MeanMs(), "ms"};
  out.layer["storage.snapshot_bytes"] = {Median(snapshot_bytes), "bytes"};
  out.layer["storage.bytes_written"] = {Median(round_bytes), "bytes"};
  out.layer["storage.restore_bytes"] = {Median(restore_bytes), "bytes"};

  double storage = delta.Get("storage.get_ms").sum_ms + delta.Get("storage.put_ms").sum_ms +
                   delta.Get("storage.append_ms").sum_ms;
  double probe = delta.Get("cache.probe_ms").sum_ms;
  double plan = delta.Get("planner.plan_ms").sum_ms;
  double calls = 0;
  for (const auto& h : {&cold, &warm}) {
    for (const SessionHalf& x : *h) {
      calls += x.construct_ms + x.close_ms;
      for (double a : x.answer_ms) calls += a;
    }
  }
  std::ostringstream busy;
  busy << "busy ms/op by layer: engine(calls - walk - planner)=" << (calls - enumerate.sum_ms - plan) / ops
       << " planner=" << plan / ops << " repair.walk=" << (enumerate.sum_ms - probe) / ops
       << " repair.cache(probe+spill - storage)=" << (probe + spill.sum_ms - storage) / ops
       << " storage=" << storage / ops << " | wall ms/op=" << Ms(timed) / ops;
  out.notes.push_back(busy.str());
  return out;
}

// =====================================================================
// approx_sample — the Section 5 estimator on an instance exact
// enumeration cannot finish.
// =====================================================================

std::string RenderApprox(const ApproxOcaResult& result) {
  std::ostringstream out;
  out << "walks=" << result.walks << " ok=" << result.successful_walks
      << " failing=" << result.failing_walks << " steps=" << result.total_steps << "\n";
  for (const auto& [tuple, estimate] : result.estimates) {
    uint64_t bits = 0;
    std::memcpy(&bits, &estimate, sizeof(bits));
    out << TupleToString(tuple) << " " << std::hex << bits << std::dec << "\n";
  }
  return out.str();
}

Outcome RunApprox(const Args& args, double* setup_s) {
  const size_t configs = 3;
  const size_t keys = args.tiny ? 16 : 64, violating = args.tiny ? 8 : 32;
  const double epsilon = args.tiny ? 0.2 : 0.05, delta_p = epsilon;
  UniformChainGenerator generator;
  std::vector<gen::Workload> workloads;
  std::vector<Query> queries;
  std::vector<uint64_t> sampler_seeds;
  SamplerOptions options;
  options.threads = kWalkThreads;

  *setup_s = MedianSetupSeconds([&] {
    workloads.clear();
    queries.clear();
    sampler_seeds.clear();
    for (size_t i = 0; i < configs; ++i) {
      workloads.push_back(gen::MakeKeyViolationWorkload(
          keys, violating, 2, SubSeed(args.seed, 20 + i)));
      Result<Query> query = ParseQuery(*workloads.back().schema, "Q(x,y) := R(x,y)");
      queries.push_back(std::move(query.value()));
      sampler_seeds.push_back(SubSeed(args.seed, 30 + i));
    }
    // Warm-up: a short estimate per instance covers FactStore interning,
    // the global thread pool and the allocator.
    for (size_t i = 0; i < configs; ++i) {
      Sampler sampler(workloads[i].db, workloads[i].constraints, &generator,
                      sampler_seeds[i], options);
      sampler.EstimateOcaWithWalks(queries[i], 64);
    }
  });

  struct Run {
    size_t config;
    double setup_ms, estimate_ms, total_ms;
    ApproxOcaResult result;
  };
  std::vector<Run> runs;
  RegistryDelta delta;
  ResetPeakRss();
  delta.Begin();
  Clock::time_point begin = Clock::now();
  Clock::time_point deadline = begin + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(args.seconds));
  for (size_t n = 0; n == 0 || Clock::now() < deadline; ++n) {
    Run run{n % configs, 0, 0, 0, {}};
    Clock::time_point start = Clock::now();
    {
      SpanTimer construct("sampler.construct");
      Sampler sampler(workloads[run.config].db, workloads[run.config].constraints,
                      &generator, sampler_seeds[run.config], options);
      run.setup_ms = construct.StopMs();
      SpanTimer estimate("sampler.estimate_oca");
      run.result = sampler.EstimateOca(queries[run.config], epsilon, delta_p);
      run.estimate_ms = estimate.StopMs();
    }
    Clock::time_point stop = Clock::now();
    g_spans.Add("round.query", start, stop);
    run.total_ms = Ms(stop - start);
    runs.push_back(std::move(run));
  }
  Clock::time_point end = Clock::now();
  delta.End();

  Outcome out;
  out.timed_s = Ms(end - begin) / 1000.0;
  out.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  if (g_spans.enabled()) out.coverage = g_spans.Coverage(begin, end);

  // Reference: the same seeds on one thread, one instance per thread.
  std::vector<std::string> reference(configs);
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < configs; ++i) {
      threads.emplace_back([&, i] {
        SamplerOptions serial;
        serial.threads = 1;
        Sampler sampler(workloads[i].db, workloads[i].constraints, &generator,
                        sampler_seeds[i], serial);
        reference[i] = RenderApprox(sampler.EstimateOca(queries[i], epsilon, delta_p));
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  std::vector<double> total_ms, setup_ms, estimate_ms;
  double walks = 0, steps = 0, estimate_sum = 0;
  for (size_t n = 0; n < runs.size(); ++n) {
    ++out.ops;
    std::string rendered = RenderApprox(runs[n].result);
    if (args.corrupt && n == 0) Corrupt(&rendered);
    if (rendered != reference[runs[n].config]) ++out.failed;
    total_ms.push_back(runs[n].total_ms);
    setup_ms.push_back(runs[n].setup_ms);
    estimate_ms.push_back(runs[n].estimate_ms);
    walks += static_cast<double>(runs[n].result.walks);
    steps += static_cast<double>(runs[n].result.total_steps);
    estimate_sum += runs[n].estimate_ms;
  }
  double ops = static_cast<double>(out.ops);
  // Throughput and mean: the median over four consecutive quarters of the
  // queries; the tail is over all of them (p75 of 8-16 queries in 10 s).
  out.e2e["throughput_ops_s"] = {
      MedianOfChunks(runs.size(), 4, [&](size_t lo, size_t hi) {
        double wall_ms = 0;
        for (size_t n = lo; n < hi; ++n) wall_ms += runs[n].total_ms;
        return 1000 * static_cast<double>(hi - lo) / wall_ms;
      }),
      "1/s"};
  out.e2e["mean_ms"] = {
      MedianOfChunks(runs.size(), 4, [&](size_t lo, size_t hi) {
        return Mean(std::vector<double>(total_ms.begin() + static_cast<ptrdiff_t>(lo),
                                        total_ms.begin() + static_cast<ptrdiff_t>(hi)));
      }),
      "ms"};
  out.e2e["tail_ms"] = {Percentile(total_ms, 75), "ms"};
  // A query on a fresh Sampler (cold) against its estimate alone (warm).
  // Construction by itself, well under a millisecond, is the per-layer
  // sampler.setup_ms: as an end-to-end figure it spread by a third.
  out.e2e["cold_ms"] = {Median(total_ms), "ms"};
  out.e2e["warm_ms"] = {Median(estimate_ms), "ms"};
  out.notes.push_back(TailLine("query (Sampler construct + EstimateOca)", total_ms));
  out.notes.push_back(TailLine("Sampler construct", setup_ms));
  out.notes.push_back(TailLine("EstimateOca", estimate_ms));

  HistDelta enumerate = delta.Get("engine.enumerate_ms");
  out.layer["sampler.setup_ms"] = {Median(setup_ms), "ms"};
  out.layer["sampler.walks"] = {walks / ops, "count/op"};
  out.layer["sampler.steps"] = {steps / ops, "count/op"};
  out.layer["sampler.step_ns"] = {Ratio(estimate_sum * 1e6, steps), "ns"};
  out.layer["walk.calls"] = {Ratio(static_cast<double>(enumerate.count), ops), "count/op"};
  std::ostringstream busy;
  busy << "busy ms/op by layer: repair.sampler(construct + estimate)="
       << Mean(total_ms) << " | wall ms/op=" << Ms(end - begin) / ops;
  out.notes.push_back(busy.str());
  return out;
}

// =====================================================================
// main: run a workload, print the report and the JSON result.
// =====================================================================

/// Every per-layer metric, so a traced run of any workload reports the
/// full set (a layer a workload bypasses reads 0: its predicted
/// no-change row).
const char* const kLayerMetrics[][2] = {
    {"server.exec_ms", "ms"},          {"server.wait_ms", "ms"},
    {"server.batch_size", "requests"}, {"server.replay_ratio", "ratio"},
    {"server.fast_path_ratio", "ratio"}, {"loadgen.late_p99_ms", "ms"},
    {"planner.plan_ms", "ms"},         {"planner.plan_cache_hit_ratio", "ratio"},
    {"engine.first_query_ms", "ms"},   {"engine.replay_query_ms", "ms"},
    {"engine.restore_query_ms", "ms"}, {"engine.close_ms", "ms"},
    {"walk.calls", "count/op"},        {"walk.ms", "ms"},
    {"walk.states", "count/op"},       {"walk.states_per_ms", "1/ms"},
    {"cache.hit_ratio", "ratio"},      {"cache.probe_ms", "ms"},
    {"cache.evictions", "count/op"},   {"cache.bytes", "bytes"},
    {"storage.restore_ms", "ms"},      {"storage.restore_bytes", "bytes"},
    {"storage.spill_ms", "ms"},        {"storage.bytes_written", "bytes"},
    {"storage.snapshot_bytes", "bytes"}, {"sampler.setup_ms", "ms"},
    {"sampler.walks", "count/op"},     {"sampler.steps", "count/op"},
    {"sampler.step_ns", "ns"},         {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
};

Outcome RunWorkload(const Args& args, double* setup_s) {
  if (args.workload == "serve_mixed") return RunServe(args, setup_s);
  if (args.workload == "session_8q") return RunSession(args, setup_s);
  return RunApprox(args, setup_s);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--corrupt") {
      args->corrupt = true;
    } else if (flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
               flag == "--trace" || flag == "--out") {
      std::optional<std::string> v = value();
      if (!v) return false;
      try {
        if (flag == "--workload") args->workload = *v;
        if (flag == "--seed") args->seed = std::stoull(*v);
        if (flag == "--seconds") args->seconds = std::stod(*v);
        if (flag == "--trace") args->trace = std::stoi(*v) != 0;
        if (flag == "--out") args->out = *v;
      } catch (const std::exception&) {
        return false;
      }
    } else {
      return false;
    }
  }
  return (args->workload == "serve_mixed" || args->workload == "session_8q" ||
          args->workload == "approx_sample") &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: opcqa_perfbench --workload serve_mixed|session_8q|"
                 "approx_sample --seed N --seconds S --trace 0|1 [--tiny] "
                 "[--corrupt] [--out DIR]\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.out, ec);
  Clock::time_point origin = Clock::now();

  double setup_s = 0;
  Outcome result;
  if (!args.trace) {
    result = RunWorkload(args, &setup_s);
  } else {
    // Untraced pass first, then the traced pass on the same inputs.
    double ignored = 0;
    Outcome untraced = RunWorkload(args, &ignored);
    g_spans.set_enabled(true);
    result = RunWorkload(args, &setup_s);
    result.ops += untraced.ops;
    result.failed += untraced.failed;
    result.layer["trace.coverage_pct"] = {100.0 * result.coverage, "%"};
    // The passes differ only in the span bookkeeping, so its cost,
    // calibrated here, is the tracing overhead. The passes' throughputs
    // are printed too, but between two passes run-to-run noise (10% and
    // more on a shared VM) swamps a cost this small.
    SpanLog probe;
    probe.set_enabled(true);
    const int kProbes = 100000;
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kProbes; ++i) probe.Add("probe", start, start);
    double per_span_ns = Ms(Clock::now() - start) * 1e6 / kProbes;
    double overhead_pct =
        100.0 * static_cast<double>(g_spans.size()) * per_span_ns / (result.timed_s * 1e9);
    result.layer["trace.overhead_pct"] = {overhead_pct, "%"};
    std::ostringstream line;
    line << "tracing overhead: " << g_spans.size() << " spans x " << per_span_ns
         << " ns = " << overhead_pct << "% of the traced pass's timed wall clock; "
         << "throughput untraced " << untraced.e2e["throughput_ops_s"].value << " vs traced "
         << result.e2e["throughput_ops_s"].value << " ops/s";
    result.notes.push_back(line.str());
    fs::path trace_path = fs::path(args.out) /
                          ("trace-" + args.workload + "-" + std::to_string(args.seed) + ".json");
    if (g_spans.WriteChromeTrace(trace_path, origin)) {
      result.notes.push_back("spans written to " + trace_path.string());
    }
    for (const auto& [name, ms] : g_spans.TotalsMs()) {
      std::ostringstream line;
      line << "span " << name << " total=" << ms << " ms";
      result.notes.push_back(line.str());
    }
  }
  result.e2e["setup_s"] = {setup_s, "s"};

  std::printf("workload %s seed %llu seconds %g trace %d nproc %zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, Nproc());
  for (const std::string& note : result.notes) std::printf("  %s\n", note.c_str());
  std::printf("  ops %llu ops_failed %llu timed %.3f s\n",
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.failed), result.timed_s);

  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    metrics = result.e2e;
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = result.layer.find(name);
      metrics[name] = it == result.layer.end() ? Metric{0.0, unit} : it->second;
    }
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-30s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.ops);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += (first ? "" : ", ");
    json += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
