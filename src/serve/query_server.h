#ifndef TSDM_SERVE_QUERY_SERVER_H_
#define TSDM_SERVE_QUERY_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/decision/routing/stochastic_router.h"
#include "src/serve/autoscale_controller.h"
#include "src/serve/path_cost_cache.h"
#include "src/serve/query_service.h"
#include "src/serve/request_queue.h"
#include "src/serve/route_cache.h"
#include "src/serve/serve_stats.h"
#include "src/spatial/road_network.h"

namespace tsdm {

/// The serving front door for routing queries — the piece that turns the
/// decision layer from a library into a system:
///
///   clients --Submit--> RequestQueue <--PopBatch-- workers
///        --> answer callbacks
///
/// Each worker pops a size-or-age batch straight from the weighted-fair
/// queue, serves it, and runs the autoscale review when one is due. No
/// second queue sits behind the fair one, so under overload the backlog
/// stays where deadlines expire, quotas bind and higher-priority arrivals
/// overtake it.
///
/// Workers answer each query from two layers of memoization: a bounded
/// LRU of candidate route enumerations per (source, target, k) — the
/// K-shortest computation is departure-time independent — and the shared
/// PathCostCache of sub-path cost distributions (PACE-style reuse, [4]).
/// A warm query therefore costs two lookups plus a few convolutions where
/// a cold one pays Yen's algorithm plus full cost recomposition.
///
/// Every review interval one worker feeds the observed arrival count into
/// the AutoscaleController, which forecasts demand and picks a worker
/// count within [min_workers, max_workers]. A shrink only lowers the
/// target: workers whose id is at or above it park until a grow or Stop.
/// A grow raises the target and spawns only slots that have never run.
/// Stop joins every worker, so no resize ever waits on a join.
///
/// Thread-safety: Submit is safe from any number of producer threads.
/// Start/Stop/WaitIdle are for the owning (control) thread. Callbacks run
/// on the popping worker (served, or expired in queue), on the Stop caller
/// (drained at shutdown), or on a displacing producer (evicted) — exactly
/// once per admitted request.
class QueryServer : public QueryService {
 public:
  /// Which AutoscalePolicy the autoscale review runs. Options
  /// must stay copyable, so the server owns policy construction from this
  /// tag instead of holding a unique_ptr in Options.
  enum class AutoscalePolicyKind {
    kReactive,  ///< provision the recent peak + headroom (chases surges)
    kForecast,  ///< StreamForecastPolicy: Holt trend projection (pre-scales)
  };

  /// Size-or-age batching: a worker pops once `max_batch` requests are
  /// queued or the oldest has waited `max_wait_seconds` — full batches
  /// under load, bounded added latency when idle.
  struct BatchOptions {
    size_t max_batch = 16;
    double max_wait_seconds = 0.002;
  };

  struct Options {
    RequestQueue::Options queue;
    BatchOptions batch;
    PathCostCache::Options cache;
    CachedPathCostModel::Options cost;
    AutoscaleController::Options autoscale;
    AutoscalePolicyKind autoscale_policy = AutoscalePolicyKind::kReactive;
    /// Knobs for autoscale_policy == kForecast; ignored otherwise.
    StreamForecastPolicy::Options forecast;
    int initial_workers = 2;
    bool autoscale_enabled = true;
    double autoscale_interval_seconds = 0.05;
    /// Candidate-route LRU entries ((source, target, k) keys).
    size_t route_cache_entries = 512;
    /// Called synchronously inside Submit for every route query, before
    /// admission control — the tap the workload LoadTraceRecorder hangs
    /// off to capture live traffic (sheds included, so a replay reproduces
    /// the offered load, not just the served part). Must be thread-safe;
    /// keep it cheap, it runs on the submitter's thread.
    std::function<void(const RouteQuery&, const SubmitOptions&,
                       uint64_t enqueue_ns)>
        submit_observer;
  };

  /// The shared submit surface lives at namespace scope (query_service.h)
  /// so routers and servers construct the same struct; this alias keeps
  /// the established `QueryServer::SubmitOptions` spelling valid.
  using SubmitOptions = tsdm::SubmitOptions;

  /// The network must outlive the server. `base_model` computes sub-path
  /// cost distributions (EdgeCentricModel / PathCentricModel adapter) and
  /// must be deterministic and thread-safe for reads.
  QueryServer(const RoadNetwork* network, PathCostModel base_model)
      : QueryServer(network, std::move(base_model), Options()) {}
  QueryServer(const RoadNetwork* network, PathCostModel base_model,
              Options options);
  ~QueryServer() override;

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Spawns `initial_workers` workers. FailedPrecondition if already
  /// started, or once Stop has run: a stopped server does not restart.
  Status Start();

  /// Closes the queue (draining queued requests as shed), lets each worker
  /// finish the batch it holds, and joins every worker. Idempotent; must
  /// not be called from an answer callback.
  void Stop();

  /// Admission control: OK means `on_done` will be called exactly once;
  /// a shed returns ResourceExhausted (queue full) or FailedPrecondition
  /// (stopped) immediately and `on_done` is NOT retained.
  using QueryService::Submit;
  Status Submit(RouteQuery query,
                std::function<void(const RouteAnswer&)> on_done,
                const SubmitOptions& options) override;

  /// Submits a scatter probe: answer the cost distribution of exactly
  /// `segment` at departure-time bucket `bucket` (RouteAnswer::probe_cost /
  /// probe_from_cache), through the same cache + base-model path a local
  /// query would take. Probes ride the ordinary queue/batch/worker
  /// pipeline, so admission control and the exactly-once callback contract
  /// apply unchanged. This is the shard router's remote-segment primitive.
  Status SubmitProbe(std::vector<int> segment, int bucket,
                     std::function<void(const RouteAnswer&)> on_done,
                     const SubmitOptions& options);

  /// True when the admission queue is at capacity — the cheap socket-layer
  /// probe for shedding a wire request before its payload is even decoded.
  bool QueueFull() const override;

  /// Blocks until every admitted request has reached a terminal state
  /// (answered or shed) and no batch is being served.
  void WaitIdle() const override;

  ServeStatsSnapshot Stats() const override;
  /// Active (unparked) worker count: the autoscaler's current target.
  int workers() const {
    return target_workers_.load(std::memory_order_acquire);
  }
  PathCostCache& cache() { return cache_; }
  const PathCostCache& cache() const { return cache_; }
  const Options& options() const { return options_; }

 private:
  /// One worker's life: park while its id is at or above the target, pop a
  /// size-or-age batch, serve it, review autoscale when due; exits once the
  /// queue is closed and empty.
  void WorkerLoop(int id);
  /// Sets the active worker count, spawning never-run slots on a grow.
  /// No-op once Stop has begun.
  void SetWorkerTarget(int n);
  void ServeBatch(std::vector<ServeRequest>* batch);
  void ServeOne(const ServeRequest& req);
  void MaybeAutoscale();

  /// Builds the queued request shared by Submit and SubmitProbe: assigns
  /// the id, roots (or adopts) the trace tree, and stamps admission state.
  ServeRequest MakeRequest(RouteQuery query,
                           std::function<void(const RouteAnswer&)> on_done,
                           const SubmitOptions& options);

  const RoadNetwork* network_;
  Options options_;

  PathCostCache cache_;
  CachedPathCostModel cost_model_;
  RouteCache routes_;
  RequestQueue queue_;

  // Autoscale review state; whichever worker finds a review due runs it
  // under control_mu_.
  mutable std::mutex control_mu_;
  AutoscaleController controller_;
  uint64_t last_submitted_ = 0;
  std::atomic<uint64_t> next_review_ns_{0};

  // Worker-side accounting.
  struct TenantWorkerStats {
    uint64_t completed = 0;
    uint64_t failed = 0;
    LatencyHistogram e2e_latency;
  };
  mutable std::mutex metrics_mu_;
  LatencyHistogram queue_latency_;
  LatencyHistogram e2e_latency_;
  LatencyHistogram stage_queue_;
  LatencyHistogram stage_batch_;
  LatencyHistogram stage_cache_;
  LatencyHistogram stage_exec_;
  std::map<std::string, TenantWorkerStats> tenant_metrics_;
  uint64_t batches_ = 0;  ///< also the last batch id stamped
  uint64_t batched_requests_ = 0;
  size_t max_batch_seen_ = 0;
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<int> in_flight_batches_{0};

  // Worker slots only grow while running; threads_[i] runs WorkerLoop(i).
  // target_workers_ is written under workers_mu_ so parked workers never
  // miss a grow.
  std::mutex workers_mu_;
  std::condition_variable workers_cv_;
  std::vector<std::thread> threads_;
  std::atomic<int> target_workers_{0};
  bool stopping_ = false;

  // Start/Stop lifecycle. The mutex serializes concurrent Stops (owner +
  // destructor + monitoring hooks) so the workers are joined exactly once;
  // `started_` is only touched under it.
  mutable std::mutex lifecycle_mu_;
  bool started_ = false;
};

}  // namespace tsdm

#endif  // TSDM_SERVE_QUERY_SERVER_H_
