// Yen's K-shortest-paths: golden fingerprints on jittered grids (the served
// answers depend on them bit for bit), a brute-force oracle on tie-heavy
// lattices, the degenerate inputs, and RouteEnumerator (cached reverse
// trees) against the one-shot KShortestPaths, bit for bit.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/road_gen.h"
#include "src/spatial/road_network.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {
namespace {

/// FNV-1a over every path's nodes, edges and cost bit pattern, in order.
class Fingerprint {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xFF;
      hash_ *= 1099511628211ULL;
    }
  }
  void Add(const Result<std::vector<Path>>& paths) {
    Add(paths.ok() ? paths->size() : ~0ULL);
    if (!paths.ok()) return;
    for (const Path& p : *paths) {
      Add(p.nodes.size());
      for (int n : p.nodes) Add(static_cast<uint64_t>(n));
      Add(p.edges.size());
      for (int e : p.edges) Add(static_cast<uint64_t>(e));
      uint64_t bits = 0;
      std::memcpy(&bits, &p.cost, sizeof(bits));
      Add(bits);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

RoadNetwork SeededGrid(int side, uint64_t seed) {
  Rng rng(seed);
  GridNetworkSpec spec;
  spec.rows = side;
  spec.cols = side;
  return GenerateGridNetwork(spec, &rng);
}

/// A lattice where every axis step costs the same: many equal-cost routes.
RoadNetwork TieHeavyGrid(int side, double diagonal_probability, uint64_t seed) {
  Rng rng(seed);
  GridNetworkSpec spec;
  spec.rows = side;
  spec.cols = side;
  spec.jitter = 0.0;
  spec.local_speed = spec.arterial_speed;
  spec.diagonal_probability = diagonal_probability;
  return GenerateGridNetwork(spec, &rng);
}

// The golden constants were captured from the plain-Dijkstra Yen
// implementation that preceded the A* spur kernel; any change to a path,
// an edge id or a cost bit on these jittered grids changes them.
TEST(KShortestPathsGolden, AllPairsOf12x12AtK4) {
  RoadNetwork net = SeededGrid(12, 1201);
  const int n = static_cast<int>(net.NumNodes());
  Fingerprint fp;
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s == t) continue;
      fp.Add(KShortestPaths(net, s, t, 4, FreeFlowTimeCost(net)));
    }
  }
  EXPECT_EQ(fp.value(), 15346597627523089895ULL);
}

TEST(KShortestPathsGolden, SeededPairsOf24x24AtK4AndK16) {
  RoadNetwork net = SeededGrid(24, 2401);
  const int n = static_cast<int>(net.NumNodes());
  Rng pairs(2402);
  Fingerprint fp4;
  for (int q = 0; q < 2000; ++q) {
    const int s = pairs.Int(0, n - 1);
    const int t = pairs.Int(0, n - 1);
    fp4.Add(KShortestPaths(net, s, t, 4, FreeFlowTimeCost(net)));
  }
  EXPECT_EQ(fp4.value(), 2215054438103181004ULL);
  Fingerprint fp16;
  for (int q = 0; q < 200; ++q) {
    const int s = pairs.Int(0, n - 1);
    const int t = pairs.Int(0, n - 1);
    fp16.Add(KShortestPaths(net, s, t, 16, FreeFlowTimeCost(net)));
  }
  EXPECT_EQ(fp16.value(), 14407551421490412394ULL);
}

/// Every simple path's cost from s to t, summed edge by edge in path order.
std::vector<double> AllSimplePathCosts(const RoadNetwork& net, int s, int t) {
  std::vector<double> costs;
  std::vector<bool> on_path(net.NumNodes(), false);
  std::function<void(int, double)> dfs = [&](int node, double cost) {
    if (node == t) {
      costs.push_back(cost);
      return;
    }
    on_path[node] = true;
    for (int eid : net.OutEdges(node)) {
      const int to = net.edge(eid).to;
      if (!on_path[to]) dfs(to, cost + net.FreeFlowTime(eid));
    }
    on_path[node] = false;
  };
  dfs(s, 0.0);
  std::sort(costs.begin(), costs.end());
  return costs;
}

void ExpectMatchesOracle(const RoadNetwork& net, int s, int t, int k) {
  SCOPED_TRACE("s=" + std::to_string(s) + " t=" + std::to_string(t) +
               " k=" + std::to_string(k));
  const std::vector<double> oracle = AllSimplePathCosts(net, s, t);
  Result<std::vector<Path>> paths =
      KShortestPaths(net, s, t, k, FreeFlowTimeCost(net));
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), std::min<size_t>(k, oracle.size()));
  std::set<std::vector<int>> seen;
  for (size_t i = 0; i < paths->size(); ++i) {
    const Path& p = (*paths)[i];
    // Equal-cost routes may be summed in a different edge order than the
    // oracle's, so costs agree to rounding, not to the bit.
    EXPECT_NEAR(p.cost, oracle[i], 1e-9 * oracle[i]);
    EXPECT_TRUE(seen.insert(p.nodes).second);
    std::set<int> unique_nodes(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(unique_nodes.size(), p.nodes.size());
    ASSERT_EQ(p.edges.size() + 1, p.nodes.size());
    EXPECT_EQ(p.nodes.front(), s);
    EXPECT_EQ(p.nodes.back(), t);
    double sum = 0.0;
    for (size_t j = 0; j < p.edges.size(); ++j) {
      EXPECT_EQ(net.edge(p.edges[j]).from, p.nodes[j]);
      EXPECT_EQ(net.edge(p.edges[j]).to, p.nodes[j + 1]);
      sum += net.FreeFlowTime(p.edges[j]);
    }
    EXPECT_DOUBLE_EQ(p.cost, sum);
  }
}

TEST(KShortestPathsOracle, AllPairsOfTieHeavy4x4) {
  RoadNetwork net = TieHeavyGrid(4, 0.0, 44);
  const int n = static_cast<int>(net.NumNodes());
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s != t) ExpectMatchesOracle(net, s, t, 8);
    }
  }
}

TEST(KShortestPathsOracle, TieHeavy5x5WithDiagonals) {
  RoadNetwork net = TieHeavyGrid(5, 0.2, 55);
  const int n = static_cast<int>(net.NumNodes());
  Rng pairs(56);
  for (int q = 0; q < 40; ++q) {
    const int s = pairs.Int(0, n - 1);
    const int t = pairs.Int(0, n - 1);
    if (s != t) ExpectMatchesOracle(net, s, t, 12);
  }
  ExpectMatchesOracle(net, 0, n - 1, 32);  // corner to corner
}

/// a -> b -> d plus a -> c -> d and a slow a -> d: three routes in all.
RoadNetwork Diamond() {
  RoadNetwork net;
  int a = net.AddNode(0, 0);
  int b = net.AddNode(100, 0);
  int c = net.AddNode(0, 100);
  int d = net.AddNode(100, 100);
  net.AddEdge(a, d, 1.0, 141.4);
  net.AddEdge(a, b, 10.0, 100.0);
  net.AddEdge(b, d, 10.0, 100.0);
  net.AddEdge(a, c, 5.0, 100.0);
  net.AddEdge(c, d, 5.0, 100.0);
  return net;
}

TEST(KShortestPathsEdgeCases, KLargerThanPathCount) {
  RoadNetwork net = Diamond();
  Result<std::vector<Path>> paths =
      KShortestPaths(net, 0, 3, 10, FreeFlowTimeCost(net));
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 3u);
  EXPECT_NEAR((*paths)[0].cost, 20.0, 1e-9);
  EXPECT_NEAR((*paths)[1].cost, 40.0, 1e-9);
  EXPECT_NEAR((*paths)[2].cost, 141.4, 1e-9);
}

TEST(KShortestPathsEdgeCases, TargetUnreachableAfterBans) {
  // Every route crosses the bridge 2 -> 3: once it is banned at spur node 2
  // the target is unreachable, and Yen must just move on.
  RoadNetwork net;
  for (int i = 0; i < 4; ++i) net.AddNode(100.0 * i, 0);
  net.AddEdge(0, 1, 10.0);
  net.AddEdge(1, 2, 10.0);
  net.AddEdge(0, 2, 5.0);
  net.AddEdge(2, 3, 10.0);
  Result<std::vector<Path>> paths =
      KShortestPaths(net, 0, 3, 5, FreeFlowTimeCost(net));
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 2u);
  EXPECT_EQ((*paths)[0].nodes, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ((*paths)[1].nodes, (std::vector<int>{0, 2, 3}));
}

TEST(KShortestPathsEdgeCases, UnreachableTargetIsNotFound) {
  RoadNetwork net = Diamond();
  Result<std::vector<Path>> paths =
      KShortestPaths(net, 3, 0, 4, FreeFlowTimeCost(net));
  EXPECT_FALSE(paths.ok());
  EXPECT_EQ(paths.status().code(), StatusCode::kNotFound);
}

TEST(KShortestPathsEdgeCases, SourceEqualsTarget) {
  RoadNetwork net = Diamond();
  Result<std::vector<Path>> paths =
      KShortestPaths(net, 2, 2, 4, FreeFlowTimeCost(net));
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);
  EXPECT_EQ((*paths)[0].nodes, (std::vector<int>{2}));
  EXPECT_TRUE((*paths)[0].edges.empty());
  EXPECT_EQ((*paths)[0].cost, 0.0);
}

TEST(KShortestPathsEdgeCases, OutOfRangeNodes) {
  RoadNetwork net = Diamond();
  EXPECT_FALSE(KShortestPaths(net, -1, 3, 2, FreeFlowTimeCost(net)).ok());
  EXPECT_FALSE(KShortestPaths(net, 0, 4, 2, FreeFlowTimeCost(net)).ok());
}

/// Same status code, and on success the same paths with the same cost bits.
bool SameAnswer(const Result<std::vector<Path>>& a,
                const Result<std::vector<Path>>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().code() == b.status().code();
  if (a->size() != b->size()) return false;
  for (size_t i = 0; i < a->size(); ++i) {
    const Path& p = (*a)[i];
    const Path& q = (*b)[i];
    if (p.nodes != q.nodes || p.edges != q.edges ||
        std::memcmp(&p.cost, &q.cost, sizeof(p.cost)) != 0) {
      return false;
    }
  }
  return true;
}

// One enumerator answers 2,000 queries back to back, so each call runs
// right after another call's spurs, mostly on a cached tree: a stale ban
// or a tree that differs from a fresh reverse search would change a path.
TEST(RouteEnumeratorTest, MatchesKShortestPathsOnRepeatedTargets) {
  RoadNetwork net = SeededGrid(24, 2401);
  const int n = static_cast<int>(net.NumNodes());
  RouteEnumerator enumerator(&net, FreeFlowTimeCost(net));
  Rng pairs(2403);
  std::vector<int> targets;
  for (int i = 0; i < 64; ++i) targets.push_back(pairs.Int(0, n - 1));
  const int ks[] = {1, 4, 16};
  int mismatches = 0;
  for (int q = 0; q < 2000; ++q) {
    const int s = pairs.Int(0, n - 1);
    const int t = targets[pairs.Int(0, 63)];
    const int k = ks[q % 3];
    if (!SameAnswer(enumerator.KShortest(s, t, k),
                    KShortestPaths(net, s, t, k, FreeFlowTimeCost(net)))) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
  const RouteEnumerator::Stats stats = enumerator.stats();
  EXPECT_EQ(stats.enumerations, 2000u);
  EXPECT_EQ(stats.enumerations - stats.tree_hits, stats.trees);
  EXPECT_LE(stats.trees, 64u);
  EXPECT_EQ(stats.capacity,
            RouteEnumerator::kTreeBudgetBytes / (sizeof(double) * n));
}

// A 30x30 grid has more targets (900) than the byte budget holds trees
// (582), so cycling through every target evicts and rebuilds.
TEST(RouteEnumeratorTest, EvictsLeastRecentlyUsedTreeWithinBudget) {
  RoadNetwork net = SeededGrid(30, 3001);
  const int n = static_cast<int>(net.NumNodes());
  RouteEnumerator enumerator(&net, FreeFlowTimeCost(net));
  const size_t capacity = enumerator.stats().capacity;
  ASSERT_LT(capacity, static_cast<size_t>(n));
  Rng sources(3002);
  int mismatches = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int t = 0; t < n; ++t) {
      const int s = sources.Int(0, n - 1);
      if (!SameAnswer(enumerator.KShortest(s, t, 2),
                      KShortestPaths(net, s, t, 2, FreeFlowTimeCost(net)))) {
        ++mismatches;
      }
      ASSERT_LE(enumerator.stats().trees, capacity);
    }
  }
  EXPECT_EQ(mismatches, 0);
  // A cyclic scan longer than the LRU never finds its tree: the tree it
  // wants is always the one evicted longest ago.
  EXPECT_EQ(enumerator.stats().tree_hits, 0u);
  EXPECT_EQ(enumerator.stats().trees, capacity);
  // The most recent target is still resident.
  ASSERT_TRUE(enumerator.KShortest(0, n - 1, 2).ok());
  EXPECT_EQ(enumerator.stats().tree_hits, 1u);
}

TEST(RouteEnumeratorTest, ErrorStatusesMatchKShortestPaths) {
  RoadNetwork net = Diamond();
  RouteEnumerator enumerator(&net, FreeFlowTimeCost(net));
  const struct {
    int source, target, k;
    StatusCode code;
  } cases[] = {
      {0, 3, 0, StatusCode::kInvalidArgument},
      {0, 3, -2, StatusCode::kInvalidArgument},
      {-1, 3, 2, StatusCode::kOutOfRange},
      {0, 4, 2, StatusCode::kOutOfRange},
      {3, 0, 4, StatusCode::kNotFound},  // no edge leaves node 3
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("s=" + std::to_string(c.source) +
                 " t=" + std::to_string(c.target) +
                 " k=" + std::to_string(c.k));
    // Twice: the second NotFound is answered on the cached tree.
    for (int round = 0; round < 2; ++round) {
      Result<std::vector<Path>> got =
          enumerator.KShortest(c.source, c.target, c.k);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), c.code);
      EXPECT_TRUE(SameAnswer(got, KShortestPaths(net, c.source, c.target,
                                                 c.k, FreeFlowTimeCost(net))));
    }
  }
}

// Four threads share one enumerator over the same query list from
// different offsets, so they race on the same targets' trees and, with
// more targets than the budget holds, on evictions too.
TEST(RouteEnumeratorTest, ThreadsShareOneEnumerator) {
  RoadNetwork net = SeededGrid(30, 3003);
  const int n = static_cast<int>(net.NumNodes());
  Rng pairs(3004);
  struct Query {
    int source, target;
    Result<std::vector<Path>> want;
  };
  std::vector<Query> queries;
  for (int q = 0; q < 700; ++q) {
    const int s = pairs.Int(0, n - 1);
    const int t = pairs.Int(0, n - 1);
    queries.push_back({s, t, KShortestPaths(net, s, t, 2,
                                            FreeFlowTimeCost(net))});
  }
  RouteEnumerator enumerator(&net, FreeFlowTimeCost(net));
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (size_t i = 0; i < queries.size(); ++i) {
        const Query& q = queries[(i + th * queries.size() / kThreads) %
                                 queries.size()];
        if (!SameAnswer(enumerator.KShortest(q.source, q.target, 2),
                        q.want)) {
          ++mismatches[th];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int th = 0; th < kThreads; ++th) EXPECT_EQ(mismatches[th], 0);
  const RouteEnumerator::Stats stats = enumerator.stats();
  EXPECT_EQ(stats.enumerations, kThreads * queries.size());
  EXPECT_GT(stats.tree_hits, 0u);
  EXPECT_LE(stats.trees, stats.capacity);
}

}  // namespace
}  // namespace tsdm
