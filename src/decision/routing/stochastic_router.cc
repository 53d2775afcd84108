#include "src/decision/routing/stochastic_router.h"

namespace tsdm {

Result<std::vector<RouteCandidate>> StochasticRouter::Candidates(
    int source, int target, int k, double depart_seconds) const {
  Result<std::vector<Path>> paths = routes_.KShortest(source, target, k);
  if (!paths.ok()) return paths.status();

  std::vector<RouteCandidate> candidates;
  for (const Path& p : *paths) {
    Result<Histogram> cost = cost_model_(p.edges, depart_seconds);
    if (!cost.ok()) continue;  // model has no coverage for this path
    RouteCandidate c;
    c.path = p;
    c.cost = *cost;
    candidates.push_back(std::move(c));
  }
  if (candidates.empty()) {
    return Status::NotFound(
        "StochasticRouter: no candidate has a cost distribution");
  }
  return candidates;
}

int StochasticRouter::BestByOnTime(
    const std::vector<RouteCandidate>& candidates, double deadline_seconds) {
  int best = -1;
  double best_p = -1.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    double p = candidates[i].cost.Cdf(deadline_seconds);
    if (p > best_p) {
      best_p = p;
      best = static_cast<int>(i);
    }
  }
  return best;
}

int StochasticRouter::BestByUtility(
    const std::vector<RouteCandidate>& candidates,
    const UtilityFunction& utility) {
  int best = -1;
  double best_value = 0.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    double value = ExpectedUtility(candidates[i].cost, utility);
    if (best < 0 || value > best_value) {
      best = static_cast<int>(i);
      best_value = value;
    }
  }
  return best;
}

}  // namespace tsdm
