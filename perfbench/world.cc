#include "perfbench/world.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/sim/traffic_sim.h"

namespace perfbench {

namespace {

constexpr uint64_t kConstructionSeed = 20250417;
/// Departure hours the model is trained at; other hours borrow the
/// all-day distribution.
constexpr double kTrainingHours[] = {2.0, 8.0, 13.0, 18.0};
constexpr int kTripsPerHour = 4;

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

tsdm::PathCostModel ServeWorld::BaseModel() const {
  const tsdm::EdgeCentricModel* m = &model;
  return [m](const std::vector<int>& edges, double depart) {
    return m->PathCostDistribution(edges, depart, 32);
  };
}

std::unique_ptr<ServeWorld> BuildServeWorld(int rows, int cols) {
  auto w = std::make_unique<ServeWorld>();
  w->spec.rows = rows;
  w->spec.cols = cols;
  tsdm::Rng rng(kConstructionSeed);
  w->net = tsdm::GenerateGridNetwork(w->spec, &rng);
  const int edges = static_cast<int>(w->net.NumEdges());
  w->model = tsdm::EdgeCentricModel(edges);
  tsdm::TrafficSimulator sim(&w->net, tsdm::TrafficSpec{});
  for (int e = 0; e < edges; ++e) {
    for (double hour : kTrainingHours) {
      for (int rep = 0; rep < kTripsPerHour; ++rep) {
        tsdm::TripObservation trip;
        trip.edge_path = {e};
        trip.depart_seconds = hour * 3600.0;
        trip.edge_times = {sim.SampleEdgeTime(e, trip.depart_seconds, &rng)};
        w->model.AddTrip(trip);
      }
    }
  }
  const tsdm::Status built = w->model.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "model build failed: %s\n", built.ToString().c_str());
    std::exit(2);
  }
  return w;
}

tsdm::QueryServer::Options ServerOptions(int workers) {
  tsdm::QueryServer::Options o;
  o.initial_workers = workers;
  o.autoscale_enabled = false;
  o.batch.max_wait_seconds = 0.0;
  return o;
}

Answer FromRoute(const tsdm::RouteAnswer& a) {
  Answer out;
  out.code = a.status.code();
  out.edges = a.route.edges;
  out.cost_mean = a.cost_mean_seconds;
  out.on_time = a.on_time_probability;
  out.num_candidates = a.num_candidates;
  return out;
}

Answer FromWire(const tsdm::WireRouteAnswer& a) {
  Answer out;
  out.code = a.status_code;
  out.edges.assign(a.edges.begin(), a.edges.end());
  out.cost_mean = a.cost_mean_seconds;
  out.on_time = a.on_time_probability;
  out.num_candidates = a.num_candidates;
  return out;
}

bool SameAnswer(const Answer& a, const Answer& b) {
  return a.code == b.code && a.edges == b.edges &&
         a.num_candidates == b.num_candidates &&
         BitsOf(a.cost_mean) == BitsOf(b.cost_mean) &&
         BitsOf(a.on_time) == BitsOf(b.on_time);
}

std::string DescribeMismatch(const tsdm::RouteQuery& q, const Answer& got,
                             const Answer& want) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "query %d->%d k=%d depart=%.0f: got status %d, %zu edges, "
                "mean %.17g, p %.17g; want status %d, %zu edges, mean %.17g, "
                "p %.17g",
                q.source, q.target, q.k, q.depart_seconds,
                static_cast<int>(got.code), got.edges.size(), got.cost_mean,
                got.on_time, static_cast<int>(want.code), want.edges.size(),
                want.cost_mean, want.on_time);
  return buf;
}

Outcome OutcomeOf(tsdm::StatusCode code) {
  switch (code) {
    case tsdm::StatusCode::kOk:
      return Outcome::kOk;
    case tsdm::StatusCode::kResourceExhausted:
    case tsdm::StatusCode::kFailedPrecondition:
      return Outcome::kShed;
    default:
      return Outcome::kTypedError;
  }
}

bool Retryable(tsdm::StatusCode code) {
  return code == tsdm::StatusCode::kResourceExhausted ||
         code == tsdm::StatusCode::kUnavailable;
}

namespace {

constexpr int kClosedLoopWindows = 5;

/// One client thread's rendezvous with its outstanding request's callback.
/// Shared with the callback so a late answer never touches freed memory.
struct Slot {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Answer answer;
  uint64_t end_ns = 0;
};

/// Requests a client thread has seen completed OK, read by the window
/// clock; one cache line each.
struct alignas(64) OkCounter {
  std::atomic<uint64_t> n{0};
};

}  // namespace

ClosedLoopRun RunClosedLoop(tsdm::QueryService* service,
                            const ClosedLoop& loop) {
  const Phase& phase = loop.phase;
  struct PerThread {
    std::vector<OpRecord> ops;
    std::vector<double> submit_ns;
    std::vector<double> turnaround_ns;
    std::vector<std::pair<uint64_t, uint64_t>> issued;
    OutcomeCounts outcomes;
    SpanLog::Buffer* spans = nullptr;
  };
  std::vector<PerThread> per(kClientThreads);
  OkCounter ok[kClientThreads];
  uint32_t request_span = 0, submit_span = 0;
  if (phase.spans != nullptr) {
    request_span = phase.spans->Name("client/request");
    submit_span = phase.spans->Name("client/submit");
    for (auto& p : per) p.spans = phase.spans->NewBuffer();
  }
  std::atomic<bool> stop{false};
  const uint64_t start_ns = NowNs();
  const uint64_t drain_deadline_ns =
      start_ns + static_cast<uint64_t>((phase.seconds + 5.0) * 1e9);

  auto client = [&](int t) {
    PerThread& me = per[static_cast<size_t>(t)];
    auto shared_slot = std::make_shared<Slot>();
    Slot& slot = *shared_slot;
    const bool keep = phase.keep_samples;
    uint64_t last_seen_ns = 0;
    for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      const tsdm::RouteQuery q = loop.query(t, i);
      const uint64_t t0 = NowNs();
      if (keep) {
        if (last_seen_ns != 0) me.turnaround_ns.push_back(t0 - last_seen_ns);
        me.issued.emplace_back(t0, (static_cast<uint64_t>(t) << 48) | i);
      }
      Answer answer;
      uint64_t t1 = 0, first_submitted = 0, end_ns = 0;
      bool refused = false;
      for (int tries = 1;; ++tries) {
        {
          std::lock_guard<std::mutex> lock(slot.mu);
          slot.done = false;
        }
        const uint64_t s0 = NowNs();
        const tsdm::Status st = service->Submit(
            q, [shared_slot](const tsdm::RouteAnswer& a) {
              Answer ans = FromRoute(a);
              const uint64_t now = NowNs();
              Slot& s = *shared_slot;
              std::lock_guard<std::mutex> lock(s.mu);
              s.answer = std::move(ans);
              s.end_ns = now;
              s.done = true;
              s.cv.notify_one();
            });
        t1 = NowNs();
        if (tries == 1) first_submitted = t1;
        if (keep) me.submit_ns.push_back(static_cast<double>(t1 - s0));
        if (!st.ok()) {
          refused = true;
          break;
        }
        std::unique_lock<std::mutex> lock(slot.mu);
        const bool answered = slot.cv.wait_until(
            lock,
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(drain_deadline_ns)),
            [&] { return slot.done; });
        if (!answered) {
          if (keep) me.ops.push_back({NowNs(), 0, Outcome::kUnanswered});
          me.outcomes.Add(Outcome::kUnanswered);
          return;  // the slot stays owned by the outstanding callback
        }
        answer = std::move(slot.answer);
        end_ns = slot.end_ns;
        if (tries == kMaxTries || !Retryable(answer.code)) break;
        me.outcomes.AddRetried(OutcomeOf(answer.code));
      }
      if (refused) {
        if (keep) me.ops.push_back({t1, t1 - t0, Outcome::kRefused});
        me.outcomes.Add(Outcome::kRefused);
        last_seen_ns = t1;
        continue;
      }
      last_seen_ns = NowNs();
      const Outcome outcome = OutcomeOf(answer.code);
      me.outcomes.Add(outcome);
      if (outcome == Outcome::kOk) {
        ok[t].n.fetch_add(1, std::memory_order_relaxed);
      }
      if (keep) me.ops.push_back({end_ns, end_ns - t0, outcome});
      if (me.spans != nullptr) {
        const uint64_t req = (static_cast<uint64_t>(t) << 48) | i;
        const uint64_t root = me.spans->Add(request_span, req, 0, t0, end_ns);
        me.spans->Add(submit_span, req, root, t0, first_submitted);
      }
      if (loop.on_answer) loop.on_answer(t, i, q, answer, end_ns - t0);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; ++t) threads.emplace_back(client, t);
  ClosedLoopRun run;
  run.windows = RunWindowClock(
      start_ns, phase.seconds, kClosedLoopWindows,
      [&] {
        uint64_t total = 0;
        for (const OkCounter& c : ok) {
          total += c.n.load(std::memory_order_relaxed);
        }
        return total;
      },
      &stop);
  for (auto& th : threads) th.join();
  run.peak_rss_mb = PeakRssMb();
  for (auto& p : per) {
    run.ops.insert(run.ops.end(), p.ops.begin(), p.ops.end());
    run.submit_ns.insert(run.submit_ns.end(), p.submit_ns.begin(),
                         p.submit_ns.end());
    run.turnaround_ns.insert(run.turnaround_ns.end(), p.turnaround_ns.begin(),
                             p.turnaround_ns.end());
    run.issued.insert(run.issued.end(), p.issued.begin(), p.issued.end());
    run.outcomes += p.outcomes;
  }
  std::sort(run.issued.begin(), run.issued.end());
  return run;
}

PhaseOutput ClosedLoopOutput(const ClosedLoopRun& run,
                             uint64_t quantile_window_ns) {
  PhaseOutput out;
  out.summary = Summarize(run.ops, run.windows, quantile_window_ns);
  out.outcomes = run.outcomes;
  out.send_lag_ns = run.turnaround_ns;
  out.peak_rss_mb = run.peak_rss_mb;
  return out;
}

std::vector<tsdm::RouteQuery> IssuedQueries(const ClosedLoopRun& run,
                                            const ClosedLoop& loop) {
  std::vector<tsdm::RouteQuery> out;
  out.reserve(run.issued.size());
  for (const auto& [start, key] : run.issued) {
    out.push_back(loop.query(static_cast<int>(key >> 48),
                             key & ((1ull << 48) - 1)));
  }
  return out;
}

void CrossCheckServe(const std::string& workload,
                     const OutcomeCounts& outcomes,
                     const tsdm::ServeStatsSnapshot& before,
                     const tsdm::ServeStatsSnapshot& after, RunResult* result) {
  const OutcomeCounts o = outcomes.PerTry();
  const uint64_t unanswered = o.Of(Outcome::kUnanswered);
  auto expect = [&](const char* what, uint64_t got, uint64_t least) {
    if (got < least || got > least + unanswered) {
      result->Fail(workload + " accounting: " + what + " " +
                   std::to_string(got) + " outside [" + std::to_string(least) +
                   ", " + std::to_string(least + unanswered) + "]");
    }
  };
  expect("submitted vs attempted", after.submitted - before.submitted,
         o.Attempted() - unanswered);
  expect("completed vs ok", after.completed - before.completed,
         o.Of(Outcome::kOk));
  expect("failed vs typed errors", after.failed - before.failed,
         o.Of(Outcome::kTypedError));
  expect("shed vs shed + refused", after.TotalShed() - before.TotalShed(),
         o.Of(Outcome::kShed) + o.Of(Outcome::kRefused));
}

std::vector<Answer> AnswerAll(tsdm::QueryService* service,
                              const std::vector<tsdm::RouteQuery>& queries) {
  // Bounded in flight and a long budget: these passes are set-up and
  // reference work, not measured load. A failed answer (a spurious shed,
  // or a scatter poisoned by one) is retried so the reference holds a real
  // answer for every query; a query that keeps failing stays failed.
  constexpr size_t kInFlight = 64;
  constexpr int kAttempts = 5;
  std::vector<Answer> answers(queries.size());
  std::vector<size_t> todo(queries.size());
  for (size_t i = 0; i < todo.size(); ++i) todo[i] = i;
  tsdm::SubmitOptions opts;
  opts.queue_budget_seconds = 60.0;
  for (int attempt = 0; attempt < kAttempts && !todo.empty(); ++attempt) {
    std::mutex mu;
    std::condition_variable cv;
    size_t in_flight = 0;
    for (size_t idx : todo) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return in_flight < kInFlight; });
        ++in_flight;
      }
      tsdm::Status st = service->Submit(
          queries[idx],
          [&, idx](const tsdm::RouteAnswer& a) {
            Answer ans = FromRoute(a);
            std::lock_guard<std::mutex> lock(mu);
            answers[idx] = std::move(ans);
            --in_flight;
            cv.notify_all();
          },
          opts);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        answers[idx].code = st.code();
        --in_flight;
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight == 0; });
    }
    std::vector<size_t> retry;
    for (size_t idx : todo) {
      if (answers[idx].code != tsdm::StatusCode::kOk) retry.push_back(idx);
    }
    todo.swap(retry);
  }
  return answers;
}

double DeltaMeanUs(const tsdm::LatencyHistogram& before,
                   const tsdm::LatencyHistogram& after) {
  const uint64_t n = after.count() - before.count();
  if (n == 0) return 0.0;
  return 1e6 * (after.total_seconds() - before.total_seconds()) /
         static_cast<double>(n);
}

void AddServeDelta(const tsdm::ServeStatsSnapshot& before,
                   const tsdm::ServeStatsSnapshot& after, RunResult* result) {
  result->Layer("serve.queue_wait_us",
                DeltaMeanUs(before.stage_queue, after.stage_queue), "us");
  result->Layer("serve.dispatch_wait_us",
                DeltaMeanUs(before.stage_batch, after.stage_batch), "us");
  result->Layer("serve.cost_us",
                DeltaMeanUs(before.stage_cache, after.stage_cache), "us");
  result->Layer("serve.exec_us",
                DeltaMeanUs(before.stage_exec, after.stage_exec), "us");
  const double batches = static_cast<double>(after.batches - before.batches);
  result->Layer("serve.batch_size",
                batches > 0.0 ? static_cast<double>(after.batched_requests -
                                                    before.batched_requests) /
                                    batches
                              : 0.0,
                "count");
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  result->Layer("serve.subpath_hit_rate",
                hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "share");
  result->Layer("serve.shed_expired",
                static_cast<double>(after.shed_expired - before.shed_expired),
                "count");
  result->Layer("serve.shed_capacity",
                static_cast<double>(after.shed_capacity - before.shed_capacity),
                "count");
}

double RouteRepeatShare(const std::vector<tsdm::RouteQuery>& queries,
                        size_t entries) {
  if (queries.empty()) return 0.0;
  // Exact LRU simulation over (source, target, k).
  using Key = uint64_t;
  std::list<Key> lru;
  std::unordered_map<Key, std::list<Key>::iterator> index;
  uint64_t repeats = 0;
  for (const tsdm::RouteQuery& q : queries) {
    const Key key = (static_cast<uint64_t>(static_cast<uint32_t>(q.source))
                     << 40) ^
                    (static_cast<uint64_t>(static_cast<uint32_t>(q.target))
                     << 8) ^
                    static_cast<uint64_t>(q.k & 0xff);
    auto it = index.find(key);
    if (it != index.end()) {
      ++repeats;
      lru.splice(lru.begin(), lru, it->second);
      continue;
    }
    lru.push_front(key);
    index[key] = lru.begin();
    if (lru.size() > entries) {
      index.erase(lru.back());
      lru.pop_back();
    }
  }
  return static_cast<double>(repeats) / static_cast<double>(queries.size());
}

}  // namespace perfbench
