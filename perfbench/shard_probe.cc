// The shard probe of inproc_cold's traced run: a closed loop of 2 client
// threads sending into a 4-shard in-process ShardRouter, 1 worker per
// shard, on a 12x12 grid, for a few seconds.
//
// A pool of short OD pairs puts about a third of the queries across
// shard-owned regions, so they scatter sub-path probes and merge. The pool
// is larger than one shard's route LRU (512) but fits in the fleet's
// combined LRUs.
//
// This is a probe, not a gated workload, because its throughput follows the
// host more than the code: with four QueryServer thread sets switching on
// one CPU, the interquartile range of its throughput over ten seeds reached
// 31% of the median on a shared 4-vCPU host, past the 25% a bound may
// allow, and one seed read 26.6k and 34.4k q/s minutes apart.

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "perfbench/world.h"
#include "src/common/rng.h"
#include "src/shard/shard_router.h"

namespace perfbench {

namespace {

constexpr int kGrid = 12;
constexpr int kShards = 4;
constexpr int kPool = 1200;
constexpr int kReach = 2;  ///< target within +-2 rows and columns
constexpr double kProbeSeconds = 5.0;

/// The pool of distinct queries the clients draw from.
std::vector<tsdm::RouteQuery> MakePool(uint64_t seed) {
  tsdm::Rng rng(seed);
  std::vector<tsdm::RouteQuery> pool;
  while (static_cast<int>(pool.size()) < kPool) {
    const int r = rng.Index(kGrid), c = rng.Index(kGrid);
    const int tr = r + rng.Int(-kReach, kReach);
    const int tc = c + rng.Int(-kReach, kReach);
    if (tr < 0 || tr >= kGrid || tc < 0 || tc >= kGrid) continue;
    if (tr == r && tc == c) continue;
    tsdm::RouteQuery q;
    q.source = r * kGrid + c;
    q.target = tr * kGrid + tc;
    q.k = 4;
    q.depart_seconds = 8 * 3600.0 + rng.Uniform(0.0, 900.0);
    q.arrival_deadline_seconds = q.depart_seconds + 900.0;
    pool.push_back(q);
  }
  return pool;
}

size_t PoolIndex(uint64_t seed, int t, uint64_t i) {
  return RequestHash(seed, t, i) % kPool;
}

struct FleetSystem {
  std::unique_ptr<ServeWorld> world;
  std::unique_ptr<tsdm::ShardRouter> router;

  ~FleetSystem() {
    if (router) router->Stop();
  }
};

std::unique_ptr<FleetSystem> SetUp(const std::vector<tsdm::RouteQuery>& pool,
                                   RunResult* result) {
  auto sys = std::make_unique<FleetSystem>();
  sys->world = BuildServeWorld(kGrid, kGrid);
  tsdm::ShardRouter::Options o;
  o.map.num_shards = kShards;
  o.server = ServerOptions(1);
  sys->router = std::make_unique<tsdm::ShardRouter>(
      &sys->world->net, sys->world->BaseModel(), o);
  if (!sys->router->Start().ok()) {
    result->Fail("shard probe: router start failed");
    return sys;
  }
  // Warm-up: one pass over the pool fills every shard's caches.
  const std::vector<Answer> warm = AnswerAll(sys->router.get(), pool);
  for (size_t i = 0; i < warm.size(); ++i) {
    if (warm[i].code != tsdm::StatusCode::kOk) {
      result->Fail("shard probe: warm-up query failed: " +
                   DescribeMismatch(pool[i], warm[i], warm[i]));
      break;
    }
  }
  return sys;
}

/// Answers from one single-node QueryServer: what the fleet must match.
std::vector<Answer> SingleNodeAnswers(const ServeWorld& world,
                                      const std::vector<tsdm::RouteQuery>& pool,
                                      RunResult* result) {
  tsdm::QueryServer single(&world.net, world.BaseModel(), ServerOptions(2));
  if (!single.Start().ok()) {
    result->Fail("shard probe: reference server start failed");
    return {};
  }
  std::vector<Answer> answers = AnswerAll(&single, pool);
  single.Stop();
  return answers;
}

}  // namespace

void ProbeShardFleet(uint64_t seed, SpanLog* spans, RunResult* result) {
  const std::vector<tsdm::RouteQuery> pool = MakePool(seed);
  std::unique_ptr<FleetSystem> sys = SetUp(pool, result);
  if (!result->check_failures.empty()) return;
  const std::vector<Answer> reference =
      SingleNodeAnswers(*sys->world, pool, result);
  for (size_t i = 0; i < reference.size(); ++i) {
    if (reference[i].code != tsdm::StatusCode::kOk) {
      result->Fail("shard probe: single-node reference failed: " +
                   DescribeMismatch(pool[i], reference[i], reference[i]));
      break;
    }
  }
  if (!result->check_failures.empty()) return;
  tsdm::ShardRouter* router = sys->router.get();

  std::mutex mu;
  std::vector<double> forwarded_us, scattered_us;
  uint64_t mismatches = 0;
  std::string first;
  ClosedLoop loop;
  loop.phase = Phase{kProbeSeconds, spans, true, true};
  loop.query = [&](int t, uint64_t i) { return pool[PoolIndex(seed, t, i)]; };
  loop.on_answer = [&](int t, uint64_t i, const tsdm::RouteQuery& q,
                       const Answer& a, uint64_t latency_ns) {
    if (a.code != tsdm::StatusCode::kOk) return;
    const Answer& want = reference[PoolIndex(seed, t, i)];
    const bool forwarded =
        router->OwnerOfNode(q.source) == router->OwnerOfNode(q.target);
    std::lock_guard<std::mutex> lock(mu);
    (forwarded ? forwarded_us : scattered_us)
        .push_back(1e-3 * static_cast<double>(latency_ns));
    if (!SameAnswer(a, want) && mismatches++ == 0) {
      first = DescribeMismatch(q, a, want);
    }
  };
  const tsdm::ShardStatsSnapshot s0 = router->ShardStats();
  ClosedLoopRun run = RunClosedLoop(router, loop);
  router->WaitIdle();
  const tsdm::ShardStatsSnapshot s1 = router->ShardStats();
  if (mismatches > 0) {
    result->Fail("shard probe: " + std::to_string(mismatches) +
                 " fleet answers differ from the single-node answers; "
                 "first: " + first);
  }
  const tsdm::ShardRouterStats& r0 = s0.router;
  const tsdm::ShardRouterStats& r1 = s1.router;
  const uint64_t routed =
      (r1.forwarded + r1.scattered) - (r0.forwarded + r0.scattered);
  const OutcomeCounts o = run.outcomes.PerTry();
  if (routed != o.Attempted() - o.Of(Outcome::kRefused)) {
    result->Fail("shard probe accounting: routed " + std::to_string(routed) +
                 " != accepted " +
                 std::to_string(o.Attempted() - o.Of(Outcome::kRefused)));
  }
  const uint64_t partial = r1.partial_errors - r0.partial_errors;
  if (partial > o.Of(Outcome::kTypedError) + o.Of(Outcome::kUnanswered)) {
    result->Fail("shard probe accounting: " + std::to_string(partial) +
                 " partial errors but " +
                 std::to_string(o.Of(Outcome::kTypedError)) +
                 " typed errors seen");
  }
  result->notes.push_back(
      "shard probe: " + std::to_string(run.outcomes.Attempted()) +
      " requests, " + std::to_string(run.outcomes.Failed()) + " failed, " +
      std::to_string(run.outcomes.Retries()) + " retried");
  const uint64_t scattered = r1.scattered - r0.scattered;
  result->Layer("shard.scattered_share",
                routed > 0 ? static_cast<double>(scattered) /
                                 static_cast<double>(routed)
                           : 0.0,
                "share");
  result->Layer("shard.probes_per_scatter",
                scattered > 0 ? static_cast<double>(r1.probes_sent -
                                                    r0.probes_sent) /
                                    static_cast<double>(scattered)
                              : 0.0,
                "count");
  result->Layer("shard.replicated",
                static_cast<double>(r1.replicated - r0.replicated), "count");
  result->Layer("shard.partial_errors", static_cast<double>(partial),
                "count");
  result->Layer("shard.forwarded_p50_us", Quantile(forwarded_us, 0.5), "us");
  result->Layer("shard.scattered_p50_us", Quantile(scattered_us, 0.5), "us");
  result->Layer("shard.scattered_p99_us", Quantile(scattered_us, 0.99), "us");
}

}  // namespace perfbench
