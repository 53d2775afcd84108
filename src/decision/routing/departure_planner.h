#ifndef TSDM_DECISION_ROUTING_DEPARTURE_PLANNER_H_
#define TSDM_DECISION_ROUTING_DEPARTURE_PLANNER_H_

#include <vector>

#include "src/common/status.h"
#include "src/decision/routing/stochastic_router.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {

/// Departure planning with arrival windows ([53]): given a desired arrival
/// window [window_start, window_end] and a time-varying stochastic cost
/// model, jointly choose the departure time and route that maximize the
/// probability of arriving inside the window — leaving *too early* is as
/// wrong as too late (e.g. refrigerated deliveries, appointments).
class DeparturePlanner {
 public:
  struct Options {
    double earliest_departure = 0.0;      ///< seconds of day
    double latest_departure = 86400.0;
    double departure_step = 900.0;        ///< candidate grid, seconds
    int route_candidates = 4;
  };

  struct Plan {
    double depart_seconds = 0.0;
    Path route;
    Histogram arrival;                    ///< arrival-time distribution
    double window_probability = 0.0;      ///< P(arrival inside window)
  };

  /// The network must outlive the planner.
  DeparturePlanner(const RoadNetwork* network, PathCostModel cost_model,
                   Options options)
      : routes_(network, FreeFlowTimeCost(*network)),
        cost_model_(std::move(cost_model)),
        options_(options) {}

  /// Best (departure, route) for arriving within [window_start,
  /// window_end] (seconds of day). NotFound when no feasible plan exists.
  Result<Plan> BestPlan(int source, int target, double window_start,
                        double window_end) const;

 private:
  RouteEnumerator routes_;  ///< free-flow candidates
  PathCostModel cost_model_;
  Options options_;
};

}  // namespace tsdm

#endif  // TSDM_DECISION_ROUTING_DEPARTURE_PLANNER_H_
