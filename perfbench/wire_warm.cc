// wire_warm: an open loop of Poisson arrivals at a fixed 10k q/s over one
// loopback NetClient connection (one sender thread, one receiver thread)
// into SocketServer (2 event loops) fronting QueryServer (2 workers).
//
// About 128 distinct (OD pair, departure bucket) queries on a 6x6 grid,
// split over two tenants of different priority, fit the route LRU (512)
// and the sub-path cache (4096): route math costs almost nothing, so the
// time goes to framing, admission, the dispatcher and pool hops and the
// completion inbox. Each request is timed from its due time, not from when
// it was actually sent, so a stall also charges the requests it delayed.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "perfbench/world.h"
#include "src/common/rng.h"
#include "src/net/net_client.h"
#include "src/net/socket_server.h"
#include "src/obs/metrics_export.h"

namespace perfbench {

namespace {

constexpr double kRatePerS = 10000.0;
constexpr int kGrid = 6;
constexpr int kOdPairs = 64;
constexpr int kBuckets = 2;
constexpr int kWindows = 10;
constexpr uint64_t kMarkerId = ~0ull;  ///< ping that closes a phase
/// Retries one phase may send: far above the ~30 spurious sheds a 30 s
/// phase sees, and a bound on the id table.
constexpr size_t kRetrySlots = 4096;
constexpr char kLoopback[] = "127.0.0.1";

struct Tenant {
  std::string name;
  int priority;
  double share;
};
const Tenant kTenants[] = {{"gold", 2, 0.3}, {"bronze", 0, 0.7}};

/// The seeded traffic: distinct queries plus one arrival schedule.
struct Traffic {
  std::vector<tsdm::RouteQuery> distinct;
  std::vector<uint64_t> offset_ns;  ///< due time of request i after start
  std::vector<uint16_t> query;      ///< index into distinct
  std::vector<uint8_t> tenant;      ///< index into kTenants
};

Traffic MakeTraffic(uint64_t seed, double seconds) {
  Traffic t;
  tsdm::Rng rng(seed);
  const int nodes = kGrid * kGrid;
  for (int od = 0; od < kOdPairs; ++od) {
    tsdm::RouteQuery q;
    q.source = rng.Index(nodes);
    do {
      q.target = rng.Index(nodes);
    } while (q.target == q.source);
    q.k = 4;
    for (int b = 0; b < kBuckets; ++b) {
      q.depart_seconds = 8 * 3600.0 + 900.0 * b + rng.Uniform(0.0, 900.0);
      q.arrival_deadline_seconds = q.depart_seconds + 1800.0;
      t.distinct.push_back(q);
    }
  }
  double at = 0.0;
  while (at < seconds) {
    at += rng.Exponential(kRatePerS);
    t.offset_ns.push_back(static_cast<uint64_t>(at * 1e9));
    t.query.push_back(static_cast<uint16_t>(rng.Index(
        static_cast<int>(t.distinct.size()))));
    t.tenant.push_back(rng.Bernoulli(kTenants[0].share) ? 0 : 1);
  }
  return t;
}

/// The serving stack of one set-up, torn down in reverse order.
struct WireSystem {
  std::unique_ptr<ServeWorld> world;
  std::unique_ptr<tsdm::QueryServer> serve;
  std::unique_ptr<tsdm::SocketServer> net;
  std::vector<Answer> reference;  ///< in-process answer per distinct query

  ~WireSystem() {
    if (net) net->Stop();
    if (serve) serve->Stop();
  }

  tsdm::Status StartNet() {
    net = std::make_unique<tsdm::SocketServer>(serve.get());
    return net->Start();
  }
};

/// Builds, starts and warms the stack: the set-up the setup_s metric times.
std::unique_ptr<WireSystem> SetUp(const Traffic& traffic, RunResult* result) {
  auto sys = std::make_unique<WireSystem>();
  sys->world = BuildServeWorld(kGrid, kGrid);
  sys->serve = std::make_unique<tsdm::QueryServer>(
      &sys->world->net, sys->world->BaseModel(), ServerOptions(2));
  if (!sys->serve->Start().ok() || !sys->StartNet().ok()) {
    result->Fail("wire_warm: server start failed");
    return sys;
  }
  // Warm the caches in-process; these answers are the reference every wire
  // answer must equal.
  sys->reference = AnswerAll(sys->serve.get(), traffic.distinct);
  for (size_t i = 0; i < sys->reference.size(); ++i) {
    if (sys->reference[i].code != tsdm::StatusCode::kOk) {
      result->Fail("wire_warm: reference query " + std::to_string(i) +
                   " failed in-process");
    }
  }
  // Warm the socket path with one synchronous round trip per query.
  tsdm::NetClient client;
  if (!client.Connect(kLoopback, sys->net->port()).ok()) {
    result->Fail("wire_warm: warm-up connect failed");
    return sys;
  }
  for (const tsdm::RouteQuery& q : traffic.distinct) {
    tsdm::WireRouteAnswer a;
    if (!client.Query(q, &a).ok()) {
      result->Fail("wire_warm: warm-up query failed");
      break;
    }
  }
  return sys;
}

struct OpenLoopRun {
  PhaseOutput out;
  std::vector<OpRecord> ops;
  uint64_t sent = 0;
  /// The socket server was restarted to release a stuck receiver, so its
  /// counters start over.
  bool net_restarted = false;
};

/// One measured open-loop phase over a fresh connection. Its per-request
/// buffers are sized by the schedule before the phase starts, so they do
/// not grow with the program's speed.
///
/// A Retryable answer is sent again, up to kMaxTries tries, by the sender
/// at its next due time; the request stays timed from its first due time.
/// Wire ids then no longer follow the schedule, so the sender records which
/// request each id carries before it sends it.
OpenLoopRun RunOpenLoop(WireSystem* sys, const Traffic& traffic,
                        const Phase& phase, RunResult* result) {
  OpenLoopRun run;
  const double seconds = phase.seconds;
  SpanLog* spans = phase.spans;
  const size_t n = traffic.offset_ns.size();
  const size_t ids = n + kRetrySlots;
  std::vector<uint64_t> send_ns(n, 0), recv_ns(n, 0);
  std::vector<tsdm::StatusCode> code(n, tsdm::StatusCode::kOk);
  std::vector<uint8_t> refused(n, 0), tries(n, 0), id_answered(ids, 0);
  std::vector<std::atomic<uint32_t>> request_of_id(ids);
  std::mutex retry_mu;
  std::vector<uint32_t> retry_queue;
  retry_queue.reserve(kRetrySlots);
  std::atomic<bool> retry_pending{false};
  tsdm::NetClient client;
  if (!client.Connect(kLoopback, sys->net->port()).ok()) {
    result->Fail("wire_warm: connect failed");
    return run;
  }
  std::vector<tsdm::NetClient::QueryOptions> opts;
  for (const Tenant& t : kTenants) {
    tsdm::NetClient::QueryOptions o;
    o.priority = t.priority;
    o.tenant_id = t.name;
    opts.push_back(o);
  }
  SpanLog::Buffer* send_spans = spans ? spans->NewBuffer() : nullptr;
  SpanLog::Buffer* recv_spans = spans ? spans->NewBuffer() : nullptr;
  const uint32_t send_name = spans ? spans->Name("client/send") : 0;
  const uint32_t request_name = spans ? spans->Name("client/request") : 0;

  std::atomic<uint64_t> sent_total{0};
  std::atomic<uint64_t> ok_total{0};
  std::atomic<bool> receiver_done{false};
  std::atomic<bool> stop{false};
  uint64_t mismatches = 0;
  std::string first_mismatch;
  OutcomeCounts retried;  ///< owned by the receiver until it is joined
  // Threads start 5 ms ahead of the first due time. Answers still owed at
  // the end get 5 s.
  const uint64_t start_ns = NowNs() + 5'000'000;
  const uint64_t end_ns = start_ns + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t drain_deadline = end_ns + 5'000'000'000ull;

  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // sleep to the microsecond
    uint64_t frames = 0;  // query frames sent: the last wire id
    auto send = [&](uint64_t i) {
      request_of_id[frames].store(static_cast<uint32_t>(i),
                                  std::memory_order_release);
      uint64_t id = 0;
      const tsdm::Status st = client.SendQuery(
          traffic.distinct[traffic.query[i]], opts[traffic.tenant[i]], &id);
      return st.ok() && id == ++frames;
    };
    // Sends the retries the receiver asked for; false if the connection
    // broke, and the request that could not be sent counts as refused.
    auto send_retries = [&] {
      if (!retry_pending.load(std::memory_order_acquire)) return true;
      std::vector<uint32_t> batch;
      {
        std::lock_guard<std::mutex> lock(retry_mu);
        batch.swap(retry_queue);
        retry_pending.store(false, std::memory_order_relaxed);
      }
      for (uint32_t i : batch) {
        if (!send(i)) {
          refused[i] = 1;
          return false;
        }
      }
      return true;
    };
    bool broken = false;
    uint64_t i = 0;
    for (; i < n; ++i) {
      const uint64_t due = start_ns + traffic.offset_ns[i];
      if (due >= end_ns) break;
      if (NowNs() < due) SleepUntilNs(due);
      if (!send_retries()) {
        broken = true;
        break;
      }
      const uint64_t t0 = NowNs();
      const bool sent = send(i);
      const uint64_t t1 = NowNs();
      send_ns[i] = t0;
      if (!sent) {
        refused[i] = 1;
        broken = true;
        ++i;
        break;  // the connection is unusable: the phase ends here
      }
      if (send_spans) send_spans->Add(send_name, i + 1, 0, t0, t1);
    }
    sent_total.store(i, std::memory_order_release);
    std::vector<uint8_t> ping;
    tsdm::EncodeNetFrame(kMarkerId, tsdm::NetOpcode::kPing, nullptr, 0, &ping);
    (void)client.SendRaw(ping.data(), ping.size());
    while (!broken && !receiver_done.load(std::memory_order_acquire) &&
           NowNs() < drain_deadline) {
      broken = !send_retries();
      SleepUntilNs(NowNs() + 200'000);
    }
  });

  std::thread receiver([&] {
    uint64_t settled = 0;  // requests with their final answer
    uint64_t retries = 0;
    bool marker = false;
    auto mismatch = [&](const std::string& what) {
      if (mismatches++ == 0) first_mismatch = what;
    };
    while (true) {
      if (marker && settled >= sent_total.load(std::memory_order_acquire)) {
        break;
      }
      uint64_t id = 0;
      tsdm::WireRouteAnswer wa;
      const tsdm::Status st = client.ReceiveAnswer(&id, &wa);
      const uint64_t now = NowNs();
      if (!st.ok()) {
        if (id == kMarkerId) {
          marker = true;
          continue;
        }
        break;  // connection closed
      }
      if (id == 0 || id > ids || id_answered[id - 1] != 0) {
        mismatch("unexpected answer id " + std::to_string(id));
        continue;
      }
      id_answered[id - 1] = 1;
      const size_t i = request_of_id[id - 1].load(std::memory_order_acquire);
      if (recv_ns[i] != 0) {
        mismatch("second final answer to request " + std::to_string(i));
        continue;
      }
      if (++tries[i] < kMaxTries && Retryable(wa.status_code) &&
          retries < kRetrySlots) {
        ++retries;
        retried.AddRetried(OutcomeOf(wa.status_code));
        std::lock_guard<std::mutex> lock(retry_mu);
        retry_queue.push_back(static_cast<uint32_t>(i));
        retry_pending.store(true, std::memory_order_release);
        continue;
      }
      recv_ns[i] = now;
      code[i] = wa.status_code;
      ++settled;
      if (wa.status_code == tsdm::StatusCode::kOk) {
        ok_total.fetch_add(1, std::memory_order_relaxed);
        const Answer got = FromWire(wa);
        const Answer& want = sys->reference[traffic.query[i]];
        if (!SameAnswer(got, want)) {
          mismatch(DescribeMismatch(traffic.distinct[traffic.query[i]], got,
                                    want));
        }
      }
      if (recv_spans) {
        recv_spans->Add(request_name, i + 1, 0,
                        start_ns + traffic.offset_ns[i], now);
      }
    }
    receiver_done.store(true, std::memory_order_release);
  });

  std::vector<Window> windows = RunWindowClock(
      start_ns, seconds, kWindows,
      [&] { return ok_total.load(std::memory_order_relaxed); }, &stop);
  sender.join();
  // Past the drain deadline the socket server is stopped, which closes the
  // connection and releases the receiver.
  while (!receiver_done.load(std::memory_order_acquire) &&
         NowNs() < drain_deadline) {
    SleepUntilNs(NowNs() + 1'000'000);
  }
  if (!receiver_done.load(std::memory_order_acquire)) {
    sys->net->Stop();
    sys->net.reset();
    run.net_restarted = true;
  }
  receiver.join();
  run.out.peak_rss_mb = PeakRssMb();
  client.Close();
  if (!sys->net && !sys->StartNet().ok()) {
    result->Fail("wire_warm: socket server restart failed");
  }
  run.out.outcomes = retried;

  run.sent = sent_total.load();
  for (uint64_t i = 0; i < run.sent; ++i) {
    const uint64_t due = start_ns + traffic.offset_ns[i];
    OpRecord op;
    if (refused[i]) {
      op = {send_ns[i], 0, Outcome::kRefused};
    } else if (recv_ns[i] == 0) {
      op = {end_ns, 0, Outcome::kUnanswered};
    } else {
      op = {recv_ns[i], recv_ns[i] - due, OutcomeOf(code[i])};
    }
    if (!refused[i] && phase.keep_samples) {
      run.out.send_lag_ns.push_back(static_cast<double>(send_ns[i] - due));
    }
    run.ops.push_back(op);
    run.out.outcomes.Add(op.outcome);
  }
  run.out.summary = Summarize(run.ops, windows, kLatencySliceNs);
  if (mismatches > 0) {
    result->Fail("wire_warm: " + std::to_string(mismatches) +
                 " wire answers differ from in-process answers; first: " +
                 first_mismatch);
  }
  return run;
}

/// Checks every try against the server-side counters. Requests the socket
/// layer shed never reached the query server, and a request the client
/// could not send is not the server's to count.
void CrossCheck(const OpenLoopRun& run, const tsdm::NetStatsSnapshot& n0,
                const tsdm::NetStatsSnapshot& n1,
                const tsdm::ServeStatsSnapshot& s0,
                const tsdm::ServeStatsSnapshot& s1, RunResult* result) {
  const OutcomeCounts o = run.out.outcomes.PerTry();
  const uint64_t unanswered = o.Of(Outcome::kUnanswered);
  auto expect = [&](const char* what, uint64_t got, uint64_t least) {
    if (got < least || got > least + unanswered) {
      result->Fail(std::string("wire_warm accounting: ") + what + " " +
                   std::to_string(got) + " outside [" + std::to_string(least) +
                   ", " + std::to_string(least + unanswered) + "]");
    }
  };
  OutcomeCounts served = o;
  served.counts[static_cast<int>(Outcome::kRefused)] = 0;
  if (!run.net_restarted) {
    const uint64_t net_shed = n1.ShedTotal() - n0.ShedTotal();
    expect("net answered vs ok", n1.queries_answered - n0.queries_answered,
           o.Of(Outcome::kOk));
    expect("net failed vs non-ok answers",
           n1.queries_failed - n0.queries_failed,
           o.Of(Outcome::kShed) + o.Of(Outcome::kTypedError));
    if (net_shed > o.Of(Outcome::kShed)) {
      result->Fail("wire_warm accounting: socket layer shed " +
                   std::to_string(net_shed) + ", client saw " +
                   std::to_string(o.Of(Outcome::kShed)) + " sheds");
      return;
    }
    served.counts[static_cast<int>(Outcome::kShed)] -= net_shed;
  }
  CrossCheckServe("wire_warm", served, s0, s1, result);
}

/// Per-frame cost of parsing, decoding and encoding the phase's own
/// traffic, and of draining a pipelined burst at the client.
void ProbeNet(WireSystem* sys, const Traffic& traffic, uint64_t sent,
              SpanLog* spans, RunResult* result) {
  SpanLog::Buffer* buf = spans->NewBuffer();
  constexpr int kPasses = 5;
  // The request byte stream this phase put on the wire.
  std::vector<uint8_t> stream;
  for (uint64_t i = 0; i < sent; ++i) {
    const Tenant& t = kTenants[traffic.tenant[i]];
    std::vector<uint8_t> payload;
    tsdm::EncodeRouteQueryPayloadEx(traffic.distinct[traffic.query[i]],
                                    t.priority, t.name, &payload);
    tsdm::EncodeNetFrame(i + 1, tsdm::NetOpcode::kRouteQuery, payload.data(),
                         payload.size(), &stream);
  }
  std::vector<double> parse, decode, encode;
  std::vector<tsdm::NetFrame> frames;
  for (int pass = 0; pass < kPasses; ++pass) {
    frames.clear();
    frames.reserve(sent);
    tsdm::FrameParser parser;
    const uint64_t t0 = NowNs();
    for (size_t pos = 0; pos < stream.size(); pos += 4096) {
      parser.Consume(stream.data() + pos,
                     std::min<size_t>(4096, stream.size() - pos), &frames);
    }
    const uint64_t t1 = NowNs();
    buf->Add(spans->Name("probe/frame_parse"), 0, 0, t0, t1);
    if (frames.size() != sent) {
      result->Fail("wire_warm: frame parser returned " +
                   std::to_string(frames.size()) + " of " +
                   std::to_string(sent) + " frames");
      return;
    }
    parse.push_back(static_cast<double>(t1 - t0) / sent);

    int failures = 0;
    const uint64_t t2 = NowNs();
    for (const tsdm::NetFrame& f : frames) {
      tsdm::RouteQuery q;
      int priority = 0;
      std::string tenant;
      if (!tsdm::DecodeRouteQueryPayload(f.payload.data(), f.payload.size(),
                                         &q, &priority, &tenant)
               .ok()) {
        ++failures;
      }
    }
    const uint64_t t3 = NowNs();
    buf->Add(spans->Name("probe/query_decode"), 0, 0, t2, t3);
    if (failures > 0) result->Fail("wire_warm: query payload decode failed");
    decode.push_back(static_cast<double>(t3 - t2) / sent);

    std::vector<tsdm::RouteAnswer> answers(sys->reference.size());
    for (size_t i = 0; i < answers.size(); ++i) {
      const Answer& a = sys->reference[i];
      answers[i].route.edges = a.edges;
      answers[i].cost_mean_seconds = a.cost_mean;
      answers[i].on_time_probability = a.on_time;
      answers[i].num_candidates = a.num_candidates;
    }
    const uint64_t t4 = NowNs();
    for (uint64_t i = 0; i < sent; ++i) {
      std::vector<uint8_t> payload;
      tsdm::EncodeRouteAnswerPayload(answers[traffic.query[i]], &payload);
      std::vector<uint8_t> frame;
      tsdm::EncodeNetFrame(i + 1, tsdm::NetOpcode::kRouteAnswer,
                           payload.data(), payload.size(), &frame);
    }
    const uint64_t t5 = NowNs();
    buf->Add(spans->Name("probe/answer_encode"), 0, 0, t4, t5);
    encode.push_back(static_cast<double>(t5 - t4) / sent);
  }
  result->Layer("net.frame_parse_ns", Median(parse), "ns");
  result->Layer("net.query_decode_ns", Median(decode), "ns");
  result->Layer("net.answer_encode_ns", Median(encode), "ns");

  // Pipelined burst: send it all, wait until the server has answered
  // every request, then time the client draining the answers.
  constexpr uint64_t kBurst = 1024;
  std::vector<double> recv;
  for (int pass = 0; pass < kPasses; ++pass) {
    tsdm::NetClient client;
    if (!client.Connect(kLoopback, sys->net->port()).ok()) {
      result->Fail("wire_warm: burst connect failed");
      return;
    }
    const tsdm::NetStatsSnapshot before = sys->net->Stats();
    for (uint64_t i = 0; i < kBurst; ++i) {
      if (!client.SendQuery(traffic.distinct[traffic.query[i]], nullptr)
               .ok()) {
        result->Fail("wire_warm: burst send failed");
        return;
      }
    }
    const uint64_t deadline = NowNs() + 5'000'000'000ull;
    while (NowNs() < deadline) {
      const tsdm::NetStatsSnapshot now = sys->net->Stats();
      if (now.queries_answered + now.queries_failed -
              before.queries_answered - before.queries_failed >=
          kBurst) {
        break;
      }
      SleepUntilNs(NowNs() + 200'000);
    }
    SleepUntilNs(NowNs() + 5'000'000);  // let the last bytes land
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < kBurst; ++i) {
      uint64_t id = 0;
      tsdm::WireRouteAnswer a;
      if (!client.ReceiveAnswer(&id, &a).ok()) {
        result->Fail("wire_warm: burst receive failed");
        return;
      }
    }
    const uint64_t t1 = NowNs();
    buf->Add(spans->Name("probe/client_recv"), 0, 0, t0, t1);
    recv.push_back(static_cast<double>(t1 - t0) / kBurst);
  }
  result->Layer("net.client_recv_ns", Median(recv), "ns");
}

/// RequestQueue::Push plus PopBatch per request on the phase's tenant mix.
void ProbeQueue(const Traffic& traffic, SpanLog* spans, RunResult* result) {
  SpanLog::Buffer* buf = spans->NewBuffer();
  constexpr size_t kRequests = 8192;
  constexpr size_t kRound = 512;  // below the queue's 1024 capacity
  constexpr int kPasses = 5;
  std::vector<double> per_request;
  for (int pass = 0; pass < kPasses; ++pass) {
    tsdm::RequestQueue queue;
    std::vector<tsdm::ServeRequest> out;
    out.reserve(kRound);
    uint64_t elapsed = 0;
    size_t popped = 0;
    for (size_t base = 0; base < kRequests; base += kRound) {
      std::vector<tsdm::ServeRequest> reqs(kRound);
      const uint64_t enqueue = NowNs();
      for (size_t j = 0; j < kRound; ++j) {
        const size_t i = (base + j) % traffic.query.size();
        tsdm::ServeRequest& r = reqs[j];
        r.id = base + j;
        r.query = traffic.distinct[traffic.query[i]];
        r.enqueue_ns = enqueue;
        r.priority = kTenants[traffic.tenant[i]].priority;
        r.tenant = kTenants[traffic.tenant[i]].name;
      }
      const uint64_t t0 = NowNs();
      for (auto& r : reqs) (void)queue.Push(std::move(r));
      while (true) {
        out.clear();
        if (queue.PopBatch(NowNs(), 64, &out) == 0) break;
        popped += out.size();
      }
      const uint64_t t1 = NowNs();
      buf->Add(spans->Name("probe/queue"), 0, 0, t0, t1);
      elapsed += t1 - t0;
    }
    if (popped != kRequests) {
      result->Fail("wire_warm: queue probe popped " + std::to_string(popped) +
                   " of " + std::to_string(kRequests));
    }
    per_request.push_back(static_cast<double>(elapsed) / kRequests);
  }
  result->Layer("serve.queue_ns", Median(per_request), "ns");
}

void ProbeMetrics(SpanLog* spans, RunResult* result) {
  SpanLog::Buffer* buf = spans->NewBuffer();
  std::vector<double> us;
  size_t bytes = 0;
  for (int i = 0; i < 21; ++i) {
    const uint64_t t0 = NowNs();
    const std::string doc = tsdm::MetricsExporter::ExportPrometheus();
    const uint64_t t1 = NowNs();
    buf->Add(spans->Name("probe/metrics_render"), 0, 0, t0, t1);
    us.push_back(1e-3 * static_cast<double>(t1 - t0));
    bytes = doc.size();
  }
  result->Layer("obs.metrics_render_us", Median(us), "us");
  result->Layer("obs.metrics_bytes", static_cast<double>(bytes), "bytes");
}

}  // namespace

RunResult RunWireWarm(const RunConfig& cfg, SpanLog* spans) {
  RunResult result;
  const Traffic traffic = MakeTraffic(cfg.seed, cfg.seconds);
  std::vector<double> setup_s;
  std::unique_ptr<WireSystem> sys = SetUpRepeated<WireSystem>(
      [&] { return SetUp(traffic, &result); }, &result, &setup_s);
  if (!result.check_failures.empty()) return result;

  std::vector<tsdm::RouteQuery> sequence;
  sequence.reserve(traffic.query.size());
  for (uint16_t q : traffic.query) sequence.push_back(traffic.distinct[q]);
  result.Layer("serve.route_repeat_share", RouteRepeatShare(sequence, 512),
               "share");

  uint64_t traced_sent = 0;
  RunPhases(cfg, spans, setup_s, [&](const Phase& phase) {
    const tsdm::NetStatsSnapshot n0 = sys->net->Stats();
    const tsdm::ServeStatsSnapshot s0 = sys->serve->Stats();
    OpenLoopRun run = RunOpenLoop(sys.get(), traffic, phase, &result);
    sys->serve->WaitIdle();
    const tsdm::NetStatsSnapshot n1 = sys->net->Stats();
    const tsdm::ServeStatsSnapshot s1 = sys->serve->Stats();
    CrossCheck(run, n0, n1, s0, s1, &result);
    if (phase.spans != nullptr) traced_sent = run.sent;
    if (!phase.report) return run.out;
    AddServeDelta(s0, s1, &result);
    if (phase.keep_samples) {
      result.Layer("slo_miss_share", run.out.summary.slo_miss_share, "share");
    }
    if (run.net_restarted) return run.out;
    result.Layer("net.server_wire_us",
                 DeltaMeanUs(n0.wire_latency, n1.wire_latency), "us");
    result.Layer("net.shed",
                 static_cast<double>(n1.ShedTotal() - n0.ShedTotal()),
                 "count");
    const uint64_t queries = (n1.queries_answered + n1.queries_failed) -
                             (n0.queries_answered + n0.queries_failed);
    const uint64_t bytes = (n1.bytes_read + n1.bytes_written) -
                           (n0.bytes_read + n0.bytes_written);
    result.Layer("net.bytes_per_query",
                 queries > 0 ? static_cast<double>(bytes) /
                                   static_cast<double>(queries)
                             : 0.0,
                 "bytes");
    return run.out;
  }, &result);
  if (!cfg.trace) return result;
  ProbeNet(sys.get(), traffic, traced_sent, spans, &result);
  ProbeQueue(traffic, spans, &result);
  ProbeMetrics(spans, &result);
  return result;
}

}  // namespace perfbench
