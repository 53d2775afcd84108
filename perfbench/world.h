// The serving system the route workloads run against, and the client
// pieces they share: a grid road network with its travel-cost model, the
// server configuration, answer comparison, and the closed-loop client.

#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/net/wire.h"
#include "src/serve/query_server.h"
#include "src/serve/query_service.h"
#include "src/sim/road_gen.h"

namespace perfbench {

/// A grid road network and the edge-centric cost model every server of a
/// workload shares. The network and the model's training trips come from
/// a fixed construction seed: they are the deployed system, and the same
/// on every run. Only the workload's traffic comes from --seed.
struct ServeWorld {
  tsdm::GridNetworkSpec spec;
  tsdm::RoadNetwork net;
  tsdm::EdgeCentricModel model{0};

  tsdm::PathCostModel BaseModel() const;
};

/// Builds the network and trains the model. Exits the process on failure.
std::unique_ptr<ServeWorld> BuildServeWorld(int rows, int cols);

/// Shipped QueryServer defaults with the two settings every workload
/// changes: autoscale off at a fixed worker count, so resize timing is not
/// noise, and batch linger 0, so a fixed arrival rate does not set the
/// median by the linger alone.
tsdm::QueryServer::Options ServerOptions(int workers);

/// The decision fields of one answer, compared bitwise.
struct Answer {
  tsdm::StatusCode code = tsdm::StatusCode::kOk;
  std::vector<int> edges;
  double cost_mean = 0.0;
  double on_time = 0.0;
  int num_candidates = 0;
};
Answer FromRoute(const tsdm::RouteAnswer& a);
Answer FromWire(const tsdm::WireRouteAnswer& a);
/// True when status, route edges, candidate count and the bit patterns of
/// the cost mean and on-time probability all match.
bool SameAnswer(const Answer& a, const Answer& b);
std::string DescribeMismatch(const tsdm::RouteQuery& q, const Answer& got,
                             const Answer& want);

/// SplitMix64 finalizer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A hash of (seed, client thread, request index): lets a closed-loop
/// client derive its i-th request from the seed without shared state.
inline uint64_t RequestHash(uint64_t seed, int t, uint64_t i) {
  return Mix64(Mix64(seed) ^ Mix64((static_cast<uint64_t>(t) << 40) + i));
}

/// Outcome of an answered request with this status.
Outcome OutcomeOf(tsdm::StatusCode code);

/// Answers a client tries again, as a client of a real service would: a
/// shed (ResourceExhausted) and a typed Unavailable, which a scatter gets
/// when one of its probes is shed. At HEAD the serve tier sheds about one
/// request in 10^4 as expired long before its budget is spent (ROADMAP
/// item 0), at random, so without a retry the failure count of a run
/// would not repeat. The first try still counts in error_share.
bool Retryable(tsdm::StatusCode code);

/// Tries per request, the first one included.
inline constexpr int kMaxTries = 3;

/// Client threads of a closed loop.
inline constexpr int kClientThreads = 2;

/// A closed loop of kClientThreads client threads, each calling Submit
/// with default options and waiting for the callback before the next
/// request. A Retryable answer is submitted again, up to kMaxTries tries;
/// the request's latency runs from its first Submit to its last answer.
struct ClosedLoop {
  Phase phase;
  /// The i-th request of thread t, generated from the seed.
  std::function<tsdm::RouteQuery(int t, uint64_t i)> query;
  /// Called on the client thread with every answer.
  std::function<void(int t, uint64_t i, const tsdm::RouteQuery& q,
                     const Answer& a, uint64_t latency_ns)>
      on_answer;
};

struct ClosedLoopRun {
  std::vector<Window> windows;
  OutcomeCounts outcomes;
  double peak_rss_mb = 0.0;  ///< VmHWM when the client threads have ended
  // Kept with phase.keep_samples only:
  std::vector<OpRecord> ops;
  std::vector<double> submit_ns;      ///< wall time of each Submit call
  std::vector<double> turnaround_ns;  ///< callback seen -> next Submit
  /// (submit time, thread << 48 | request index) of every request, for
  /// rebuilding the order the server saw them in.
  std::vector<std::pair<uint64_t, uint64_t>> issued;
};

/// Runs the loop against `service` for `loop.phase.seconds`. A request
/// whose callback has not fired 5 s after the phase ends counts as
/// unanswered.
ClosedLoopRun RunClosedLoop(tsdm::QueryService* service,
                            const ClosedLoop& loop);

/// The run's figures for RunPhases; latency quantiles over slices of
/// `quantile_window_ns` (0 = the whole phase).
PhaseOutput ClosedLoopOutput(const ClosedLoopRun& run,
                             uint64_t quantile_window_ns);

/// Submits every query in-process (at most 64 in flight, a 60 s queue
/// budget), waits for all answers, and returns them in query order,
/// retrying failed ones a few times. Used for warm-up passes and reference
/// answers.
std::vector<Answer> AnswerAll(tsdm::QueryService* service,
                              const std::vector<tsdm::RouteQuery>& queries);

/// The queries of `run` in submission order.
std::vector<tsdm::RouteQuery> IssuedQueries(const ClosedLoopRun& run,
                                            const ClosedLoop& loop);

/// Checks the client's outcome counts, per try, against a single server's
/// counter deltas: every Submit is counted as submitted, and each answer as
/// completed, failed or shed (a refused Submit as shed). An unanswered
/// request may not have reached the server, or may have been answered
/// after the client stopped waiting, so each count may exceed the client's
/// by up to the unanswered requests.
void CrossCheckServe(const std::string& workload,
                     const OutcomeCounts& outcomes,
                     const tsdm::ServeStatsSnapshot& before,
                     const tsdm::ServeStatsSnapshot& after, RunResult* result);

/// Mean of a latency histogram's delta between two snapshots, in us.
double DeltaMeanUs(const tsdm::LatencyHistogram& before,
                   const tsdm::LatencyHistogram& after);

/// Records the serve-layer stage means, batch size, sub-path hit rate and
/// shed counts between two snapshots as per-layer metrics.
void AddServeDelta(const tsdm::ServeStatsSnapshot& before,
                   const tsdm::ServeStatsSnapshot& after, RunResult* result);

/// Share of queries whose (source, target, k) is among the previous
/// `entries` distinct keys: the best hit rate a route LRU of that size
/// could reach on this sequence.
double RouteRepeatShare(const std::vector<tsdm::RouteQuery>& queries,
                        size_t entries);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
