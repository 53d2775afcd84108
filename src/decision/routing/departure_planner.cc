#include "src/decision/routing/departure_planner.h"

namespace tsdm {

Result<DeparturePlanner::Plan> DeparturePlanner::BestPlan(
    int source, int target, double window_start, double window_end) const {
  if (window_end <= window_start) {
    return Status::InvalidArgument("BestPlan: empty arrival window");
  }
  Result<std::vector<Path>> routes =
      routes_.KShortest(source, target, options_.route_candidates);
  if (!routes.ok()) return routes.status();

  Plan best;
  bool found = false;
  for (double depart = options_.earliest_departure;
       depart <= options_.latest_departure;
       depart += options_.departure_step) {
    // Departing after the window closes can never arrive inside it.
    if (depart > window_end) break;
    for (const Path& route : *routes) {
      Result<Histogram> cost = cost_model_(route.edges, depart);
      if (!cost.ok()) continue;
      Histogram arrival = cost->Shifted(depart);
      double p = arrival.Cdf(window_end) - arrival.Cdf(window_start);
      if (!found || p > best.window_probability) {
        found = true;
        best.depart_seconds = depart;
        best.route = route;
        best.arrival = arrival;
        best.window_probability = p;
      }
    }
  }
  if (!found) {
    return Status::NotFound("BestPlan: no candidate had a cost distribution");
  }
  return best;
}

}  // namespace tsdm
