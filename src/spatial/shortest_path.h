#ifndef TSDM_SPATIAL_SHORTEST_PATH_H_
#define TSDM_SPATIAL_SHORTEST_PATH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/spatial/road_network.h"

namespace tsdm {

/// A routed path: node sequence plus the corresponding edge ids and cost.
struct Path {
  std::vector<int> nodes;
  std::vector<int> edges;
  double cost = 0.0;
};

/// Per-edge cost function; must return a non-negative cost for every edge id.
using EdgeCostFn = std::function<double(int edge_id)>;

/// Edge cost = free-flow travel time.
EdgeCostFn FreeFlowTimeCost(const RoadNetwork& network);
/// Edge cost = length in meters.
EdgeCostFn LengthCost(const RoadNetwork& network);

// ShortestPath, AStarPath and KShortestPaths return OutOfRange for node ids
// outside the network.

/// Dijkstra shortest path from `source` to `target` under `cost`.
/// NotFound when target is unreachable.
Result<Path> ShortestPath(const RoadNetwork& network, int source, int target,
                          const EdgeCostFn& cost);

/// One-to-all Dijkstra; returns per-node distances (infinity if unreachable).
std::vector<double> ShortestPathTree(const RoadNetwork& network, int source,
                                     const EdgeCostFn& cost);

/// A* with a Euclidean-distance/speed admissible heuristic over travel time.
/// `max_speed` must upper-bound every edge speed for admissibility.
Result<Path> AStarPath(const RoadNetwork& network, int source, int target,
                       const EdgeCostFn& cost, double max_speed);

/// Yen's algorithm: the K shortest loopless paths (ordered by cost).
/// Returns fewer than K when the graph does not contain K distinct paths.
///
/// Each spur search is an A* search whose potential is the exact free-graph
/// distance to `target`, from one reverse Dijkstra per call. A spur only
/// removes nodes and edges, so that potential stays admissible and
/// consistent; nodes that cannot reach the target are pruned. Spurs start
/// at the previous path's deviation index (Lawler): earlier spur nodes
/// would only rediscover known paths.
///
/// Tie contract: the K costs are always the K smallest simple-path costs.
/// Which path is returned among several of exactly equal cost is not
/// specified: on graphs with exact ties (e.g. an unjittered uniform grid)
/// it can differ from the pick of an unguided Dijkstra spur search. When
/// path costs are distinct, as on the jittered grids that serving runs on,
/// the output is the unique K shortest paths, bit for bit.
///
/// One-shot: clamps `cost` and builds the reverse tree on every call. Code
/// that enumerates many queries on one cost holds a RouteEnumerator.
Result<std::vector<Path>> KShortestPaths(const RoadNetwork& network,
                                         int source, int target, int k,
                                         const EdgeCostFn& cost);

/// KShortestPaths for one (network, edge cost), built once and queried
/// many times: the serving tier's candidate enumerator.
///
/// What it keeps. The clamped edge weights, read from `cost` once at
/// construction, and a bounded LRU of exact reverse-Dijkstra trees (the
/// distance from every node to a target) keyed by target. Nothing
/// query-specific is kept: no path, no spur result, no bans.
///
/// Byte budget. Each tree is 8 bytes per node, and the LRU holds
/// `kTreeBudgetBytes / (8 * NumNodes)` of them (at least one): every target
/// of a 24x24 grid (576 trees, 2.65 MB) or about 580 of a 30x30 one. It is
/// a constant, not an option.
///
/// Exact trees, same bits. Dijkstra with non-negative weights converges to
/// the unique fixpoint d(v) = min over edges (v,u) of fl(w + d(u)), so a
/// cached tree holds the same doubles a fresh reverse search would. With
/// the same potential and the same weights every A* spur makes the same
/// choices, so KShortest(s, t, k) is bitwise equal to KShortestPaths(
/// network, s, t, k, cost) whether its tree was cached or not, including
/// the error statuses (InvalidArgument for k <= 0, OutOfRange for node
/// ids, NotFound for an unreachable target).
///
/// Thread-safe. One mutex guards only the LRU. A missing tree is built
/// outside the lock (two racing callers may both build it; the first
/// insert wins and both trees are equal). Trees are shared as
/// `shared_ptr<const std::vector<double>>`, so an eviction never frees a
/// tree a caller is still searching on. Each call runs on its own search
/// scratch: labels, heap and bans are never shared.
class RouteEnumerator {
 public:
  /// Upper bound on the bytes held by cached reverse trees.
  static constexpr size_t kTreeBudgetBytes = size_t{4} << 20;

  /// The network must outlive the enumerator and not change while it lives.
  RouteEnumerator(const RoadNetwork* network, const EdgeCostFn& cost);

  RouteEnumerator(const RouteEnumerator&) = delete;
  RouteEnumerator& operator=(const RouteEnumerator&) = delete;

  Result<std::vector<Path>> KShortest(int source, int target, int k) const;

  struct Stats {
    uint64_t enumerations = 0;  ///< calls that reached the tree lookup
    uint64_t tree_hits = 0;     ///< of those, calls whose tree was cached
    size_t trees = 0;           ///< trees resident now
    size_t capacity = 0;        ///< most trees the byte budget admits
  };
  Stats stats() const;

 private:
  using Tree = std::shared_ptr<const std::vector<double>>;

  const RoadNetwork* network_;
  std::vector<double> weight_;  ///< clamped edge costs
  size_t capacity_;

  mutable std::mutex mu_;
  mutable std::vector<Tree> tree_;         ///< by target; null = not cached
  mutable std::vector<uint64_t> last_use_; ///< by target: LRU stamp
  mutable uint64_t clock_ = 0;
  mutable size_t resident_ = 0;
  mutable uint64_t enumerations_ = 0;
  mutable uint64_t tree_hits_ = 0;
};

}  // namespace tsdm

#endif  // TSDM_SPATIAL_SHORTEST_PATH_H_
