#ifndef TSDM_DECISION_ROUTING_STOCHASTIC_ROUTER_H_
#define TSDM_DECISION_ROUTING_STOCHASTIC_ROUTER_H_

#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/decision/uncertain/utility.h"
#include "src/governance/uncertainty/histogram.h"
#include "src/spatial/road_network.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {

/// A candidate route with its travel-time distribution under a cost model.
struct RouteCandidate {
  Path path;
  Histogram cost;
};

/// Maps an edge path + departure time to a travel-time distribution —
/// satisfied by EdgeCentricModel / PathCentricModel (governance layer).
using PathCostModel = std::function<Result<Histogram>(
    const std::vector<int>& edge_path, double depart_seconds)>;

/// Stochastic route selection (§II-D): enumerate K shortest candidate
/// paths by free-flow time, attach cost distributions from the model, then
/// decide under a utility function or deadline.
class StochasticRouter {
 public:
  /// The network must outlive the router.
  StochasticRouter(const RoadNetwork* network, PathCostModel cost_model)
      : routes_(network, FreeFlowTimeCost(*network)),
        cost_model_(std::move(cost_model)) {}

  /// Enumerates up to k candidate routes with cost distributions.
  /// Candidates whose cost the model cannot estimate are skipped; fails if
  /// none can be estimated.
  Result<std::vector<RouteCandidate>> Candidates(int source, int target,
                                                 int k,
                                                 double depart_seconds) const;

  /// Index of the candidate maximizing on-time probability for a deadline.
  static int BestByOnTime(const std::vector<RouteCandidate>& candidates,
                          double deadline_seconds);

  /// Index of the candidate maximizing expected utility.
  static int BestByUtility(const std::vector<RouteCandidate>& candidates,
                           const UtilityFunction& utility);

 private:
  RouteEnumerator routes_;  ///< free-flow candidates
  PathCostModel cost_model_;
};

}  // namespace tsdm

#endif  // TSDM_DECISION_ROUTING_STOCHASTIC_ROUTER_H_
