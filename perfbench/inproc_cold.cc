// inproc_cold: a closed loop of 2 client threads, each calling
// QueryServer::Submit and waiting for the callback, on a 24x24 grid.
//
// Uniform OD pairs with k=4 and departures spread over 24 h make the
// working set far larger than the route LRU and the sub-path cache, so Yen
// enumeration and convolution do the work and no socket is involved: a net
// or dispatch change should show no gain here, a route-math change should.

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "perfbench/world.h"
#include "src/serve/path_cost_cache.h"
#include "src/serve/route_cache.h"

namespace perfbench {

namespace {

constexpr int kGrid = 24;
constexpr uint64_t kCheckEvery = 16;      ///< every 16th answer is checked
constexpr size_t kCheckPerThread = 64;
constexpr int kWarmupQueries = 16;
constexpr uint64_t kWarmupSeed = 0x5eed;

/// The i-th query of client thread t: a pure function of (seed, t, i).
tsdm::RouteQuery ColdQuery(uint64_t seed, int t, uint64_t i) {
  const uint64_t nodes = kGrid * kGrid;
  const uint64_t h = RequestHash(seed, t, i);
  tsdm::RouteQuery q;
  q.source = static_cast<int>(h % nodes);
  q.target = static_cast<int>((q.source + 1 + Mix64(h) % (nodes - 1)) % nodes);
  q.k = 4;
  q.depart_seconds =
      static_cast<double>(Mix64(h ^ 0x5bd1e995) % 86400000) / 1e3;
  q.arrival_deadline_seconds = q.depart_seconds + 2400.0;
  return q;
}

struct ColdSystem {
  std::unique_ptr<ServeWorld> world;
  std::unique_ptr<tsdm::QueryServer> serve;

  ~ColdSystem() {
    if (serve) serve->Stop();
  }
};

std::unique_ptr<ColdSystem> SetUp(RunResult* result) {
  auto sys = std::make_unique<ColdSystem>();
  sys->world = BuildServeWorld(kGrid, kGrid);
  sys->serve = std::make_unique<tsdm::QueryServer>(
      &sys->world->net, sys->world->BaseModel(), ServerOptions(2));
  if (!sys->serve->Start().ok()) {
    result->Fail("inproc_cold: server start failed");
    return sys;
  }
  // Warm-up: start the pool and fault in the code path. The queries are
  // part of the system, not the traffic, so they do not vary with the seed.
  std::vector<tsdm::RouteQuery> warm;
  for (int i = 0; i < kWarmupQueries; ++i) {
    warm.push_back(ColdQuery(kWarmupSeed, 0, static_cast<uint64_t>(i)));
  }
  for (const Answer& a : AnswerAll(sys->serve.get(), warm)) {
    if (a.code != tsdm::StatusCode::kOk) {
      result->Fail("inproc_cold: warm-up query failed");
      break;
    }
  }
  return sys;
}

struct Sampled {
  tsdm::RouteQuery query;
  Answer answer;
};

/// Recomputes each sampled answer single-threaded on fresh caches through
/// the same public calls a worker makes, compares them bitwise, and times
/// each call: the cold-path split between enumeration and convolution.
void Recompute(const ServeWorld& world, const std::vector<Sampled>& samples,
               SpanLog* spans, RunResult* result) {
  SpanLog::Buffer* buf = spans ? spans->NewBuffer() : nullptr;
  const uint32_t n_enum = spans ? spans->Name("probe/enumerate") : 0;
  const uint32_t n_miss = spans ? spans->Name("probe/cost_miss") : 0;
  const uint32_t n_hit = spans ? spans->Name("probe/cost_hit") : 0;
  const uint32_t n_score = spans ? spans->Name("probe/score") : 0;
  std::vector<double> enumerate_us, miss_us, hit_us, score_ns;
  uint64_t mismatches = 0;
  std::string first;
  for (size_t s = 0; s < samples.size(); ++s) {
    const tsdm::RouteQuery& q = samples[s].query;
    tsdm::RouteCache routes(&world.net, 1);
    tsdm::PathCostCache cache;
    tsdm::CachedPathCostModel model(world.BaseModel(), &cache);
    const uint64_t t0 = NowNs();
    auto candidates = routes.Get(q.source, q.target, q.k, tsdm::TraceContext{});
    const uint64_t t1 = NowNs();
    tsdm::RouteAnswer answer;
    if (!candidates.ok()) {
      answer.status = candidates.status();
    } else {
      std::vector<tsdm::Result<tsdm::Histogram>> costs;
      for (const tsdm::Path& p : *candidates) {
        costs.push_back(model.Query(p.edges, q.depart_seconds));
      }
      const uint64_t t2 = NowNs();
      std::vector<tsdm::Result<tsdm::Histogram>> warm;
      for (const tsdm::Path& p : *candidates) {
        warm.push_back(model.Query(p.edges, q.depart_seconds));
      }
      const uint64_t t3 = NowNs();
      tsdm::ScoreCandidates(q, *candidates, costs, &answer);
      const uint64_t t4 = NowNs();
      enumerate_us.push_back(1e-3 * static_cast<double>(t1 - t0));
      miss_us.push_back(1e-3 * static_cast<double>(t2 - t1));
      hit_us.push_back(1e-3 * static_cast<double>(t3 - t2));
      score_ns.push_back(static_cast<double>(t4 - t3));
      if (buf) {
        buf->Add(n_enum, s, 0, t0, t1);
        buf->Add(n_miss, s, 0, t1, t2);
        buf->Add(n_hit, s, 0, t2, t3);
        buf->Add(n_score, s, 0, t3, t4);
      }
    }
    const Answer want = FromRoute(answer);
    if (!SameAnswer(samples[s].answer, want) && mismatches++ == 0) {
      first = DescribeMismatch(q, samples[s].answer, want);
    }
  }
  if (samples.empty()) result->Fail("inproc_cold: no answers to check");
  if (mismatches > 0) {
    result->Fail("inproc_cold: " + std::to_string(mismatches) + " of " +
                 std::to_string(samples.size()) +
                 " served answers differ from the single-threaded "
                 "recomputation; first: " + first);
  }
  if (spans == nullptr) return;
  const double e = Mean(enumerate_us), m = Mean(miss_us);
  result->Layer("serve.enumerate_us", e, "us");
  result->Layer("serve.cost_miss_us", m, "us");
  result->Layer("serve.cost_hit_us", Mean(hit_us), "us");
  result->Layer("serve.score_ns", Mean(score_ns), "ns");
  char line[200];
  std::snprintf(line, sizeof(line),
                "cold-path split over %zu queries: enumerate %.1f us vs "
                "cost (convolution, empty cache) %.1f us per query; "
                "enumeration is %.0f%% of the two",
                samples.size(), e, m, e + m > 0 ? 100.0 * e / (e + m) : 0.0);
  result->notes.push_back(line);
}

}  // namespace

RunResult RunInprocCold(const RunConfig& cfg, SpanLog* spans) {
  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<ColdSystem> sys = SetUpRepeated<ColdSystem>(
      [&] { return SetUp(&result); }, &result, &setup_s);
  if (!result.check_failures.empty()) return result;

  RunPhases(cfg, spans, setup_s, [&](const Phase& phase) {
    std::mutex mu;
    std::vector<Sampled> samples;
    std::vector<size_t> per_thread(kClientThreads, 0);
    ClosedLoop loop;
    loop.phase = phase;
    loop.query = [&](int t, uint64_t i) { return ColdQuery(cfg.seed, t, i); };
    loop.on_answer = [&](int t, uint64_t i, const tsdm::RouteQuery& q,
                         const Answer& a, uint64_t) {
      if (i % kCheckEvery != 0 || a.code != tsdm::StatusCode::kOk) return;
      std::lock_guard<std::mutex> lock(mu);
      if (per_thread[t] >= kCheckPerThread) return;
      ++per_thread[t];
      samples.push_back({q, a});
    };
    const tsdm::ServeStatsSnapshot s0 = sys->serve->Stats();
    ClosedLoopRun run = RunClosedLoop(sys->serve.get(), loop);
    sys->serve->WaitIdle();
    const tsdm::ServeStatsSnapshot s1 = sys->serve->Stats();
    CrossCheckServe("inproc_cold", run.outcomes, s0, s1, &result);
    Recompute(*sys->world, samples, phase.report ? phase.spans : nullptr,
              &result);
    if (phase.report) {
      AddServeDelta(s0, s1, &result);
      if (phase.keep_samples) {
        result.Layer("serve.submit_ns", Median(run.submit_ns), "ns");
        result.Layer("serve.route_repeat_share",
                     RouteRepeatShare(IssuedQueries(run, loop), 512),
                     "share");
      }
    }
    return ClosedLoopOutput(run, 0);
  }, &result);
  if (cfg.trace && result.check_failures.empty()) {
    ProbeShardFleet(cfg.seed, spans, &result);
  }
  return result;
}

}  // namespace perfbench
