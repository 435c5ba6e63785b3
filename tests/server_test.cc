// Tests for the serving front end (server/ocqa_server.h): byte-identity
// of concurrent multi-tenant serving against serial replay at several
// worker widths, root-level batching counters (N same-root requests →
// one walk), mutation-during-read isolation, deadline truncation under
// both exec modes, per-tenant admission rejection, the cache-pressure
// bypass, the planner fast lane, graceful shutdown (drain + shed with
// Unavailable), per-unit panic isolation, failure-bucket accounting,
// tenant options rewritten while the tenant's units run, coherent
// Stats() snapshots taken mid-run, and trace format round-trips.
// TSan-gated in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "server/ocqa_server.h"
#include "server/trace.h"

namespace opcqa {
namespace server {
namespace {

Query MustParseQuery(const Schema& schema, const std::string& text) {
  Result<Query> query = ParseQuery(schema, text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return *query;
}

Request ReadRequest(uint64_t id, const std::string& tenant,
                    const gen::Workload& w, const std::string& query_text,
                    const std::string& generator = "uniform-deletions") {
  Request request;
  request.id = id;
  request.tenant = tenant;
  request.kind = RequestKind::kAnswer;
  request.generator = generator;
  request.query = MustParseQuery(*w.schema, query_text);
  request.query_text = query_text;
  return request;
}

/// A generator that stalls every Probabilities() call until Release() —
/// pins the (sole) worker so later submissions demonstrably queue.
/// WaitEntered() returns once a call is inside the gate, i.e. once a worker
/// has picked up the gated request and started executing it.
class GateGenerator {
 public:
  std::shared_ptr<const ChainGenerator> Make() {
    auto state = state_;
    return std::make_shared<LambdaChainGenerator>(
        "gate", [state](const RepairingState& repairing,
                        const std::vector<Operation>& extensions) {
          {
            std::unique_lock<std::mutex> lock(state->mutex);
            state->entered = true;
            state->cv.notify_all();
            state->cv.wait(lock, [&] { return state->released; });
          }
          return state->inner.Probabilities(repairing, extensions);
        });
  }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->entered; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->released = true;
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
    UniformChainGenerator inner;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

// ---------------------------------------------------------------------
// Byte-identity: batched concurrent serving vs serial replay
// ---------------------------------------------------------------------

TEST(OcqaServerTest, ConcurrentServingMatchesSerialReplayByteForByte) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  TraceSpec spec;
  spec.tenants = 4;
  spec.requests = 48;
  spec.write_fraction = 0.15;
  spec.certain_fraction = 0.2;
  spec.topk_fraction = 0.1;
  spec.seed = 3;
  std::vector<Request> trace = GenerateTrace(w, spec);

  // The two serial baselines agree with each other (caches change speed,
  // never answers)...
  std::string reference = RenderResponses(
      ReplaySerial(w, trace, ReplayMode::kSessionPerTenant));
  EXPECT_EQ(reference, RenderResponses(ReplaySerial(
                           w, trace, ReplayMode::kSessionPerRequest)));
  EXPECT_NE(reference.find("success_mass"), std::string::npos);

  // ...and the batched server reproduces them at every worker width.
  for (size_t workers : {1u, 2u, 8u}) {
    ServerOptions options;
    options.workers = workers;
    OcqaServer server(w.db, w.constraints, options);
    std::vector<Response> responses = server.SubmitAll(trace);
    EXPECT_EQ(reference, RenderResponses(std::move(responses)))
        << "workers=" << workers;

    ServerStats stats = server.Stats();
    EXPECT_EQ(stats.submitted, trace.size());
    EXPECT_EQ(stats.completed, trace.size());
    EXPECT_EQ(stats.rejected_admission, 0u);
    EXPECT_GT(stats.mutations, 0u);
    // One coherent aggregate across every tenant session: the shared
    // cache served replays, and the planner decided for each certain.
    EXPECT_GT(stats.replays, 0u);
    EXPECT_GT(stats.cache.hits, 0u);
    EXPECT_GT(stats.planner.rewrite_plans + stats.planner.walk_plans, 0u);
    EXPECT_GT(stats.tenants, 0u);
  }
}

// ---------------------------------------------------------------------
// Root-level batching
// ---------------------------------------------------------------------

TEST(OcqaServerTest, SameRootRequestsBatchBehindOneWalk) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  ServerOptions options;
  options.workers = 1;  // deterministic unit schedule
  OcqaServer server(w.db, w.constraints, options);
  GateGenerator gate;
  server.RegisterGenerator("gate", gate.Make());

  // The gate request pins the sole worker; everything submitted after it
  // queues. Its tenant differs, so it touches a different chain root.
  Request blocker = ReadRequest(0, "blocker", w, "QB() := exists x R(x,x)",
                                "gate");
  std::vector<std::future<Response>> futures;
  futures.push_back(server.Submit(blocker));
  gate.WaitEntered();

  constexpr size_t kSameRoot = 6;
  for (size_t i = 0; i < kSameRoot; ++i) {
    futures.push_back(
        server.Submit(ReadRequest(1 + i, "t0", w, "Q(x,y) := R(x,y)")));
  }
  gate.Release();
  std::vector<Response> responses;
  for (std::future<Response>& future : futures) {
    responses.push_back(future.get());
  }
  for (const Response& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  // All same-root responses are identical bytes.
  for (size_t i = 2; i < responses.size(); ++i) {
    EXPECT_EQ(responses[1].payload, responses[i].payload);
  }

  // t0's first request formed its own unit (the tenant was idle); the
  // remaining kSameRoot-1 queued behind it and formed ONE batch. The
  // first walk admits the whole chain, so every batch member is a pure
  // root-entry replay: 2 walks total (gate root + t0 root), never one
  // per request.
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.walks, 2u);
  EXPECT_EQ(stats.replays, kSameRoot - 1);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, kSameRoot - 1);
}

TEST(OcqaServerTest, SessionAndServerRecordTheSameMemoDeltas) {
  // Sessions and the server run one cache policy: a read sequence served
  // one request at a time by a one-worker server probes, records and
  // replays exactly what a session does, call for call.
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/13);
  const std::vector<std::string> queries = {
      "Q(x,y) := R(x,y)", "Q(x) := exists y: R(x,y)",
      "Q(y) := exists x: R(x,y)", "Q(x,y) := R(x,y)"};

  engine::OcqaSession session(w.db, w.constraints);
  DeletionOnlyUniformGenerator generator;
  std::vector<MemoStats> session_deltas;
  for (const std::string& text : queries) {
    OcaResult result =
        session.Answer(generator, MustParseQuery(*w.schema, text));
    session_deltas.push_back(result.enumeration.memo_stats);
  }

  ServerOptions options;
  options.workers = 1;
  OcqaServer server(w.db, w.constraints, options);
  std::vector<MemoStats> server_deltas;
  MemoStats before = server.Stats().cache;
  for (size_t i = 0; i < queries.size(); ++i) {
    Response response =
        server.Submit(ReadRequest(i + 1, "t", w, queries[i])).get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    MemoStats after = server.Stats().cache;
    server_deltas.push_back(after.DeltaSince(before));
    before = after;
  }

  ASSERT_EQ(session_deltas.size(), server_deltas.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(session_deltas[i].hits, server_deltas[i].hits) << i;
    EXPECT_EQ(session_deltas[i].misses, server_deltas[i].misses) << i;
    EXPECT_EQ(session_deltas[i].collisions, server_deltas[i].collisions)
        << i;
    EXPECT_EQ(session_deltas[i].inserts, server_deltas[i].inserts) << i;
    EXPECT_EQ(session_deltas[i].evictions, server_deltas[i].evictions)
        << i;
    EXPECT_EQ(session_deltas[i].entries, server_deltas[i].entries) << i;
  }
  // The first call walked and recorded; every later one replayed the
  // chain from the root entry.
  EXPECT_GT(server_deltas[0].inserts, 0u);
  for (size_t i = 1; i < queries.size(); ++i) {
    EXPECT_EQ(server_deltas[i].hits, 1u) << i;
    EXPECT_EQ(server_deltas[i].misses, 0u) << i;
  }
}

// ---------------------------------------------------------------------
// Mutation-during-read isolation
// ---------------------------------------------------------------------

TEST(OcqaServerTest, MutationsFenceReadsWithinATenant) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  const std::string query = "Q(x,y) := R(x,y)";
  Fact extra = Fact::Make(*w.schema, "R", {"k0", "vnew"});

  std::vector<Request> trace;
  for (size_t t = 0; t < 2; ++t) {
    std::string tenant = t == 0 ? "a" : "b";
    uint64_t base = t * 10;
    trace.push_back(ReadRequest(base + 0, tenant, w, query));
    Request insert;
    insert.id = base + 1;
    insert.tenant = tenant;
    insert.kind = RequestKind::kInsert;
    insert.fact = extra;
    insert.fact_text = "R(k0,vnew)";
    trace.push_back(insert);
    trace.push_back(ReadRequest(base + 2, tenant, w, query));
    Request erase = insert;
    erase.id = base + 3;
    erase.kind = RequestKind::kErase;
    trace.push_back(erase);
    trace.push_back(ReadRequest(base + 4, tenant, w, query));
  }

  std::string reference = RenderResponses(
      ReplaySerial(w, trace, ReplayMode::kSessionPerTenant));
  ServerOptions options;
  options.workers = 8;
  OcqaServer server(w.db, w.constraints, options);
  std::vector<Response> responses = server.SubmitAll(trace);
  EXPECT_EQ(reference, RenderResponses(responses));

  // The mutation was visible: the post-insert read differs from the
  // pre-insert read, and the erase restored it.
  EXPECT_NE(responses[0].payload, responses[2].payload);
  EXPECT_EQ(responses[0].payload, responses[4].payload);
  EXPECT_EQ(server.Stats().mutations, 4u);
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

TEST(OcqaServerTest, DeadlineTruncationHonorsExecMode) {
  // Small enough to finish under the engine's default budget, big enough
  // that its chain blows through deadline_states = 8.
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  ServerOptions options;
  options.workers = 2;
  OcqaServer server(w.db, w.constraints, options);

  Request exact = ReadRequest(0, "t", w, "Q(x,y) := R(x,y)");
  exact.deadline_states = 8;
  exact.mode = ExecMode::kExact;
  Request anytime = exact;
  anytime.id = 1;
  anytime.mode = ExecMode::kAnytime;

  Response exact_response = server.Submit(exact).get();
  EXPECT_EQ(exact_response.status.code(), StatusCode::kResourceExhausted);

  Response anytime_response = server.Submit(anytime).get();
  EXPECT_TRUE(anytime_response.status.ok());
  EXPECT_TRUE(anytime_response.truncated);

  // Without a deadline the same request completes exactly.
  Request full = ReadRequest(2, "t", w, "Q(x,y) := R(x,y)");
  Response full_response = server.Submit(full).get();
  EXPECT_TRUE(full_response.status.ok());
  EXPECT_FALSE(full_response.truncated);

  EXPECT_GE(server.Stats().deadline_truncations, 2u);
}

// ---------------------------------------------------------------------
// Admission / QoS
// ---------------------------------------------------------------------

TEST(OcqaServerTest, PerTenantAdmissionRejectsOverBudget) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  ServerOptions options;
  options.workers = 1;
  OcqaServer server(w.db, w.constraints, options);
  GateGenerator gate;
  server.RegisterGenerator("gate", gate.Make());
  TenantOptions qos;
  qos.max_in_flight = 2;
  server.AddTenant("t", qos);

  // Request 1 runs (stalled on the gate), request 2 queues — budget full.
  auto f1 = server.Submit(ReadRequest(0, "t", w, "Q() := exists x R(x,x)",
                                      "gate"));
  gate.WaitEntered();
  auto f2 = server.Submit(ReadRequest(1, "t", w, "Q(x,y) := R(x,y)"));
  auto f3 = server.Submit(ReadRequest(2, "t", w, "Q(x,y) := R(x,y)"));
  Response rejected = f3.get();  // resolves immediately
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);

  // Another tenant is not affected by t's budget.
  auto other = server.Submit(ReadRequest(3, "u", w, "Q(x,y) := R(x,y)"));

  gate.Release();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_TRUE(other.get().status.ok());

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected_admission, 1u);
  // The budget frees as units complete: t can submit again.
  EXPECT_TRUE(
      server.Submit(ReadRequest(4, "t", w, "Q(x,y) := R(x,y)")).get()
          .status.ok());
}

// ---------------------------------------------------------------------
// Cache pressure
// ---------------------------------------------------------------------

TEST(OcqaServerTest, ColdRootsUnderPressureBypassTheSharedCache) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  ServerOptions options;
  options.workers = 1;
  options.cache.max_roots = 1;
  OcqaServer server(w.db, w.constraints, options);

  // Root 1 (uniform-deletions) computes into the shared cache.
  Response hot =
      server.Submit(ReadRequest(0, "t", w, "Q(x,y) := R(x,y)")).get();
  ASSERT_TRUE(hot.status.ok());
  EXPECT_EQ(server.cache().roots(), 1u);

  // Root 2 (uniform) is cold while the cache is at max_roots: it must
  // compute on a unit-private cache instead of evicting the live root.
  Response cold = server
                      .Submit(ReadRequest(1, "t", w, "Q(x,y) := R(x,y)",
                                          "uniform"))
                      .get();
  ASSERT_TRUE(cold.status.ok());
  ServerStats stats = server.Stats();
  EXPECT_GE(stats.pressure_bypasses, 1u);
  EXPECT_EQ(server.cache().roots(), 1u);  // the hot root survived

  // The hot root still replays.
  Response again =
      server.Submit(ReadRequest(2, "t", w, "Q(x,y) := R(x,y)")).get();
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.payload, hot.payload);
  EXPECT_GT(server.Stats().replays, 0u);
}

// ---------------------------------------------------------------------
// Planner fast lane
// ---------------------------------------------------------------------

TEST(OcqaServerTest, RewritableCertainTakesTheFastLane) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  ServerOptions options;
  options.workers = 1;
  OcqaServer server(w.db, w.constraints, options);

  // Quantifier-free over a key-constrained relation: inside the proven
  // fragment, so it plans kRewriting and never walks.
  Request certain = ReadRequest(0, "t", w, "Q(x,y) := R(x,y)");
  certain.kind = RequestKind::kCertain;
  Response response = server.Submit(certain).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.path, Response::Path::kRewriting);
  EXPECT_NE(response.payload.find("plan=rewriting"), std::string::npos);

  ServerStats stats = server.Stats();
  EXPECT_GE(stats.rewriting_fast_path, 1u);
  EXPECT_EQ(stats.walks, 0u);  // no chain walk happened at all

  // Byte-identical to the serial core.
  std::string reference = RenderResponses(
      ReplaySerial(w, {certain}, ReplayMode::kSessionPerRequest));
  EXPECT_EQ(reference, RenderResponses({response}));
}

// ---------------------------------------------------------------------
// Robustness: graceful shutdown, panic isolation, failure accounting
// ---------------------------------------------------------------------

TEST(OcqaServerTest, ShutdownDrainsAndShedsWithUnavailable) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  ServerOptions options;
  options.workers = 1;
  OcqaServer server(w.db, w.constraints, options);
  GateGenerator gate;
  server.RegisterGenerator("gate", gate.Make());

  // A pins the sole worker; B and C queue behind it. A must be running
  // before the shutdown: a unit still waiting for the worker is unstarted
  // and would be shed with B and C.
  auto a = server.Submit(ReadRequest(0, "t", w, "Q() := exists x R(x,x)",
                                     "gate"));
  gate.WaitEntered();
  auto b = server.Submit(ReadRequest(1, "t", w, "Q(x,y) := R(x,y)"));
  auto c = server.Submit(ReadRequest(2, "u", w, "Q(x,y) := R(x,y)"));

  // Shutdown with an immediate deadline: the queued requests are shed
  // with Unavailable, while the in-flight gated unit is still awaited —
  // run it on a side thread so the test can release the gate.
  std::thread shutdown(
      [&server] { server.Shutdown(std::chrono::milliseconds(0)); });
  EXPECT_EQ(b.get().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(c.get().status.code(), StatusCode::kUnavailable);

  gate.Release();
  shutdown.join();
  // The in-flight unit was drained, not abandoned: its answer is intact.
  EXPECT_TRUE(a.get().status.ok());

  // Post-shutdown submissions are refused up front.
  Response late = server.Submit(ReadRequest(3, "t", w, "Q(x,y) := R(x,y)"))
                      .get();
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.shed, 3u);  // B, C at the deadline + the late submit
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.errors, 0u);  // shed requests never executed
}

TEST(OcqaServerTest, PanicInOneUnitIsIsolatedAndCounted) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  ServerOptions options;
  options.workers = 2;
  OcqaServer server(w.db, w.constraints, options);
  server.RegisterGenerator(
      "boom", std::make_shared<LambdaChainGenerator>(
                  "boom", [](const RepairingState&,
                             const std::vector<Operation>&)
                              -> std::vector<Rational> {
                    throw std::runtime_error("boom");
                  }));

  Response panicked =
      server.Submit(ReadRequest(0, "t", w, "Q(x,y) := R(x,y)", "boom"))
          .get();
  EXPECT_EQ(panicked.status.code(), StatusCode::kInternal);
  EXPECT_NE(panicked.status.message().find("worker panic"),
            std::string::npos);
  EXPECT_NE(panicked.status.message().find("boom"), std::string::npos);

  // The worker survived: the same server keeps answering correctly.
  Response after =
      server.Submit(ReadRequest(1, "t", w, "Q(x,y) := R(x,y)")).get();
  EXPECT_TRUE(after.status.ok());

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.panics, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_EQ(stats.errors, stats.timed_out + stats.failed);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(OcqaServerTest, FailureBucketsSeparateDeadlinesFromHardErrors) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  ServerOptions options;
  options.workers = 1;
  OcqaServer server(w.db, w.constraints, options);

  // An exact request with a tiny state deadline fails ResourceExhausted
  // during execution: that lands in timed_out, not failed.
  Request exact = ReadRequest(0, "t", w, "Q(x,y) := R(x,y)");
  exact.deadline_states = 8;
  exact.mode = ExecMode::kExact;
  EXPECT_EQ(server.Submit(exact).get().status.code(),
            StatusCode::kResourceExhausted);

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(OcqaServerTest, AddTenantWhileItsRequestsExecute) {
  // AddTenant rewrites a tenant's options under the server mutex while
  // that tenant's units run; units read them under the same mutex. The
  // alternating deadline never binds, so every answer stays exact.
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  ServerOptions options;
  options.workers = 2;
  OcqaServer server(w.db, w.constraints, options);
  std::atomic<bool> stop{false};
  std::thread updater([&] {
    TenantOptions qos;
    for (size_t i = 0; !stop.load(); ++i) {
      qos.deadline_states = i % 2 == 0 ? 0 : 1000000;
      server.AddTenant("t", qos);
    }
  });
  constexpr uint64_t kRequests = 24;
  for (uint64_t i = 0; i < kRequests; i += 2) {
    auto first = server.Submit(ReadRequest(i, "t", w, "Q(x,y) := R(x,y)"));
    auto second =
        server.Submit(ReadRequest(i + 1, "t", w, "Q(x) := exists y: R(x,y)"));
    EXPECT_TRUE(first.get().status.ok());
    EXPECT_TRUE(second.get().status.ok());
  }
  stop.store(true);
  updater.join();
  EXPECT_EQ(server.Stats().completed, kRequests);
}

TEST(OcqaServerTest, StatsSnapshotsAreCoherentWhileServing) {
  // Stats() copies the books in one critical section, so no snapshot
  // taken mid-run can see an error without its bucket, or a completion
  // without its submission.
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  TraceSpec spec;
  spec.tenants = 4;
  spec.requests = 64;
  spec.write_fraction = 0.15;
  spec.certain_fraction = 0.2;
  spec.topk_fraction = 0.1;
  spec.seed = 5;
  std::vector<Request> trace = GenerateTrace(w, spec);
  // Make both error buckets move: some reads time out, some fail.
  for (size_t i = 0; i < trace.size(); ++i) {
    Request& request = trace[i];
    if (request.kind == RequestKind::kInsert ||
        request.kind == RequestKind::kErase) {
      continue;
    }
    if (i % 5 == 1) {
      request.mode = ExecMode::kExact;
      request.deadline_states = 8;
    } else if (i % 7 == 3) {
      request.generator = "missing";
    }
  }

  ServerOptions options;
  options.workers = 4;
  OcqaServer server(w.db, w.constraints, options);
  std::atomic<bool> done{false};
  std::atomic<size_t> snapshots{0};
  std::atomic<size_t> incoherent{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        ServerStats stats = server.Stats();
        if (stats.errors != stats.timed_out + stats.failed ||
            stats.completed > stats.submitted) {
          incoherent.fetch_add(1);
        }
        snapshots.fetch_add(1);
      }
    });
  }
  std::vector<Response> responses = server.SubmitAll(trace);
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(incoherent.load(), 0u) << "of " << snapshots.load();
  EXPECT_GT(snapshots.load(), 0u);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, trace.size());
  EXPECT_GT(stats.timed_out, 0u);
  EXPECT_GT(stats.failed, 0u);
  EXPECT_EQ(stats.errors, stats.timed_out + stats.failed);
}

// ---------------------------------------------------------------------
// Trace format
// ---------------------------------------------------------------------

TEST(ServeTraceTest, FormatParseRoundTripsAndReplaysIdentically) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  TraceSpec spec;
  spec.tenants = 3;
  spec.requests = 32;
  spec.write_fraction = 0.1;
  spec.topk_fraction = 0.1;
  spec.seed = 9;
  std::vector<Request> trace = GenerateTrace(w, spec);

  std::string text = FormatTrace(trace);
  Result<std::vector<Request>> parsed = ParseTrace(*w.schema, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), trace.size());
  EXPECT_EQ(FormatTrace(*parsed), text);

  EXPECT_EQ(
      RenderResponses(ReplaySerial(w, trace, ReplayMode::kSessionPerTenant)),
      RenderResponses(
          ReplaySerial(w, *parsed, ReplayMode::kSessionPerTenant)));
}

TEST(ServeTraceTest, ParseRejectsMalformedLines) {
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 2, 2, /*seed=*/1);
  EXPECT_FALSE(ParseTrace(*w.schema, "t0 answer exact\n").ok());
  EXPECT_FALSE(
      ParseTrace(*w.schema, "t0 frobnicate exact uniform 0 Q() := R(x,x)\n")
          .ok());
  EXPECT_FALSE(
      ParseTrace(*w.schema, "t0 topk exact uniform 0 0\n").ok());
  EXPECT_TRUE(ParseTrace(*w.schema, "# only a comment\n\n").ok());
}

}  // namespace
}  // namespace server
}  // namespace opcqa
