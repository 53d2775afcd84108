#ifndef TSDM_SPATIAL_SHORTEST_PATH_H_
#define TSDM_SPATIAL_SHORTEST_PATH_H_

#include <functional>
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
Result<std::vector<Path>> KShortestPaths(const RoadNetwork& network,
                                         int source, int target, int k,
                                         const EdgeCostFn& cost);

}  // namespace tsdm

#endif  // TSDM_SPATIAL_SHORTEST_PATH_H_
