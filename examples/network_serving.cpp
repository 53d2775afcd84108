// Network serving example: the routing service behind a real socket.
// Where traffic_serving.cpp drives the QueryServer in-process, this
// example puts the network front door (src/net/) in front of it and
// talks to the service the way a remote client would:
//
//  * binary wire protocol: pipelined route queries over one TCP
//    connection — length-prefixed CRC-checked frames, request ids echoed
//    back so answers match up out of order
//  * HTTP/1.1 on the same port: GET /metrics (the aggregate Prometheus
//    document from the MetricsExporter source registry), GET /health
//    (HealthSnapshot JSON), POST /query (flat JSON)
//  * typed admission control at the socket layer: overload is shed
//    BEFORE the query payload is deserialized, and each shed is counted
//    by reason (tsdm_net_sheds_total)
//
// Prints the wire answers next to the in-process answers (they are the
// same numbers — the wire adds transport, not semantics), an excerpt of
// what a Prometheus scraper collects, and the server's own view of the
// session: frames, bytes, latency percentiles.

#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/net/net_client.h"
#include "src/net/socket_server.h"
#include "src/obs/health.h"
#include "src/serve/query_server.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"

int main() {
  using namespace tsdm;
  Rng rng(17);

  // --- City and learned travel-time model -------------------------------
  GridNetworkSpec gspec;
  gspec.rows = 6;
  gspec.cols = 6;
  RoadNetwork net = GenerateGridNetwork(gspec, &rng);
  TrafficSimulator traffic(&net, TrafficSpec{});
  std::printf("city: %zu intersections, %zu road segments\n", net.NumNodes(),
              net.NumEdges());

  EdgeCentricModel model(static_cast<int>(net.NumEdges()), 24);
  for (int e = 0; e < static_cast<int>(net.NumEdges()); ++e) {
    for (int rep = 0; rep < 10; ++rep) {
      TripObservation trip;
      trip.edge_path = {e};
      trip.depart_seconds = 8 * 3600.0;
      trip.edge_times = {traffic.SampleEdgeTime(e, trip.depart_seconds, &rng)};
      model.AddTrip(trip);
    }
  }
  if (!model.Build().ok()) {
    std::printf("model build failed\n");
    return 1;
  }

  // --- Serving stack ----------------------------------------------------
  QueryServer::Options sopts;
  sopts.queue.capacity = 1024;
  sopts.initial_workers = 2;
  QueryServer serve(&net, [&model](const std::vector<int>& edges,
                                   double depart) {
    return model.PathCostDistribution(edges, depart, 32);
  }, sopts);
  if (!serve.Start().ok()) {
    std::printf("serve start failed\n");
    return 1;
  }

  // Self-monitoring feeds GET /health: the same HealthMonitor the
  // observability example uses, wired in as the server's health source.
  HealthMonitor::Options hm_opts;
  hm_opts.sample_interval_seconds = 0.005;
  HealthMonitor monitor([&serve] { return serve.Stats(); }, hm_opts);
  if (!monitor.Start().ok()) {
    std::printf("health monitor start failed\n");
    return 1;
  }

  // --- Network front door -----------------------------------------------
  SocketServer::Options nopts;
  nopts.port = 0;  // ephemeral: the bound port comes back from port()
  nopts.event_loops = 2;
  nopts.health_source = [&monitor] { return monitor.Snapshot(); };
  SocketServer server(&serve, nopts);
  if (!server.Start().ok()) {
    std::printf("socket server start failed\n");
    return 1;
  }
  const uint16_t port = server.port();
  std::printf("listening on 127.0.0.1:%u (binary + HTTP/1.1 on one port)\n\n",
              static_cast<unsigned>(port));

  // --- A remote client's session ----------------------------------------
  NetClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    std::printf("connect failed\n");
    return 1;
  }
  if (client.Ping().ok()) std::printf("ping: pong\n");

  // Synchronous queries: one frame out, block for its answer. The same
  // query submitted in-process gives the identical numbers — the wire
  // carries the decision, it does not change it.
  std::printf("\nsynchronous wire queries (vs. in-process):\n");
  for (int i = 0; i < 3; ++i) {
    RouteQuery q;
    q.source = GridNodeId(gspec, i % gspec.rows, 0);
    q.target = GridNodeId(gspec, (i + 2) % gspec.rows, gspec.cols - 1);
    q.k = 3;
    q.depart_seconds = 8 * 3600.0 + i * 300.0;
    q.arrival_deadline_seconds = q.depart_seconds + 1500.0;

    WireRouteAnswer wire;
    if (!client.Query(q, &wire).ok() || wire.status_code != StatusCode::kOk) {
      std::printf("  query %d failed\n", i);
      continue;
    }
    // The same query in-process, for the side-by-side.
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    RouteAnswer local;
    (void)serve.Submit(q, [&](const RouteAnswer& answer) {
      std::lock_guard<std::mutex> lock(mu);
      local = answer;
      done = true;
      cv.notify_one();
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
    }
    std::printf("  %d->%d: wire cost %.1fs on-time %.3f (%zu edges)%s\n",
                q.source, q.target, wire.cost_mean_seconds,
                wire.on_time_probability, wire.edges.size(),
                local.status.ok() &&
                        local.cost_mean_seconds == wire.cost_mean_seconds
                    ? "  == in-process"
                    : "");
  }

  // Pipelining: a burst of queries down the socket without waiting, then
  // drain the answers — each carries the request id it answers.
  const int kBurst = 32;
  std::vector<uint64_t> sent_ids;
  for (int i = 0; i < kBurst; ++i) {
    RouteQuery q;
    q.source = GridNodeId(gspec, i % gspec.rows, 0);
    q.target = GridNodeId(gspec, (i / 3) % gspec.rows, gspec.cols - 1);
    q.k = 3;
    q.depart_seconds = 8 * 3600.0;
    q.arrival_deadline_seconds = q.depart_seconds + 1500.0;
    uint64_t id = 0;
    if (client.SendQuery(q, &id).ok()) sent_ids.push_back(id);
  }
  int answered = 0;
  for (size_t i = 0; i < sent_ids.size(); ++i) {
    uint64_t id = 0;
    WireRouteAnswer ans;
    if (client.ReceiveAnswer(&id, &ans).ok() &&
        ans.status_code == StatusCode::kOk) {
      ++answered;
    }
  }
  std::printf("\npipelined burst: %zu sent, %d answered on one connection\n",
              sent_ids.size(), answered);
  client.Close();

  // --- The HTTP side of the same port -----------------------------------
  NetClient::HttpResponse resp;
  if (NetClient::HttpPost("127.0.0.1", port, "/query", "application/json",
                          "{\"source\": 0, \"target\": 35, \"k\": 3, "
                          "\"depart_seconds\": 28800, "
                          "\"arrival_deadline_seconds\": 30300}",
                          &resp).ok()) {
    std::printf("\nPOST /query -> %d\n  %s\n", resp.status_code,
                resp.body.c_str());
  }
  if (NetClient::HttpGet("127.0.0.1", port, "/health", &resp).ok()) {
    std::printf("GET /health -> %d\n  %s\n", resp.status_code,
                resp.body.c_str());
  }
  if (NetClient::HttpGet("127.0.0.1", port, "/metrics", &resp).ok()) {
    std::printf("GET /metrics -> %d (%zu bytes; excerpt)\n", resp.status_code,
                resp.body.size());
    std::istringstream lines(resp.body);
    std::string line;
    int printed = 0;
    while (std::getline(lines, line) && printed < 12) {
      if (line.rfind("# SOURCE", 0) == 0 ||
          line.rfind("tsdm_net_queries", 0) == 0 ||
          line.rfind("tsdm_net_sheds", 0) == 0 ||
          line.rfind("tsdm_serve_admitted", 0) == 0 ||
          line.rfind("tsdm_serve_completed", 0) == 0) {
        std::printf("  %s\n", line.c_str());
        ++printed;
      }
    }
  }

  // --- The server's view of the session ---------------------------------
  NetStatsSnapshot stats = server.Stats();
  server.Stop();
  monitor.Stop();
  serve.Stop();

  std::printf("\nserver session: %llu connections, %llu frames accepted, "
              "%llu queries answered, %llu pings\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.frames.frames_accepted),
              static_cast<unsigned long long>(stats.queries_answered),
              static_cast<unsigned long long>(stats.pings));
  std::printf("bytes: %llu in, %llu out; typed sheds: %llu\n",
              static_cast<unsigned long long>(stats.bytes_read),
              static_cast<unsigned long long>(stats.bytes_written),
              static_cast<unsigned long long>(stats.ShedTotal()));
  if (stats.wire_latency.count() > 0) {
    std::printf("wire latency: p50 %.0fus p95 %.0fus over %llu requests\n",
                stats.wire_latency.QuantileSeconds(0.5) * 1e6,
                stats.wire_latency.QuantileSeconds(0.95) * 1e6,
                static_cast<unsigned long long>(stats.wire_latency.count()));
  }
  return 0;
}
