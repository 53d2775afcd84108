#include "src/governance/uncertainty/travel_cost_models.h"

#include <algorithm>

namespace tsdm {

void EdgeCentricModel::AddTrip(const TripObservation& trip) {
  if (observed_.size() < edges_.size()) observed_.resize(edges_.size(), false);
  for (size_t i = 0; i < trip.edge_path.size() && i < trip.edge_times.size();
       ++i) {
    int eid = trip.edge_path[i];
    if (eid < 0 || eid >= static_cast<int>(edges_.size())) continue;
    edges_[eid].AddObservation(trip.depart_seconds, trip.edge_times[i]);
    observed_[eid] = true;
  }
}

Status EdgeCentricModel::Build(int bins) {
  if (observed_.size() < edges_.size()) observed_.resize(edges_.size(), false);
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (!observed_[e]) continue;
    TSDM_RETURN_IF_ERROR(edges_[e].Build(bins));
  }
  return Status::OK();
}

Status EdgeCentricModel::CheckEdge(int edge_id) const {
  if (edge_id < 0 || edge_id >= static_cast<int>(edges_.size())) {
    return Status::OutOfRange("EdgeCentricModel: edge id out of range");
  }
  if (!edges_[edge_id].built()) {
    return Status::NotFound("EdgeCentricModel: edge " +
                            std::to_string(edge_id) + " has no observations");
  }
  return Status::OK();
}

Result<Histogram> EdgeCentricModel::EdgeDistribution(
    int edge_id, double time_of_day_seconds) const {
  TSDM_RETURN_IF_ERROR(CheckEdge(edge_id));
  return edges_[edge_id].DistributionAt(time_of_day_seconds);
}

Result<Histogram> EdgeCentricModel::PathCostDistribution(
    const std::vector<int>& edge_path, double depart_seconds,
    int result_bins) const {
  if (edge_path.empty()) {
    return Status::InvalidArgument("PathCostDistribution: empty path");
  }
  TSDM_RETURN_IF_ERROR(CheckEdge(edge_path[0]));
  Histogram acc = edges_[edge_path[0]].DistributionAt(depart_seconds);
  double elapsed = acc.Mean();
  for (size_t i = 1; i < edge_path.size(); ++i) {
    // Advance the time-of-day by the expected elapsed time so later edges
    // use the congestion regime the vehicle will actually encounter.
    TSDM_RETURN_IF_ERROR(CheckEdge(edge_path[i]));
    const Histogram& next =
        edges_[edge_path[i]].DistributionAt(depart_seconds + elapsed);
    elapsed += next.Mean();
    acc = acc.Convolve(next, result_bins);
  }
  return acc;
}

void PathCentricModel::AddTrip(const TripObservation& trip) {
  size_t n = std::min(trip.edge_path.size(), trip.edge_times.size());
  for (size_t start = 0; start < n; ++start) {
    double total = 0.0;
    for (size_t len = 1;
         len <= static_cast<size_t>(max_subpath_length_) && start + len <= n;
         ++len) {
      total += trip.edge_times[start + len - 1];
      std::vector<int> key(trip.edge_path.begin() + start,
                           trip.edge_path.begin() + start + len);
      auto [it, inserted] = table_.try_emplace(
          std::move(key),
          Entry{TimeVaryingDistribution(slots_per_day_), 0});
      it->second.dist.AddObservation(trip.depart_seconds, total);
      it->second.support += 1;
    }
  }
  built_ = false;
}

Status PathCentricModel::Build(int bins, int min_support) {
  for (auto it = table_.begin(); it != table_.end();) {
    bool is_single_edge = it->first.size() == 1;
    if (!is_single_edge && it->second.support < min_support) {
      it = table_.erase(it);
      continue;
    }
    TSDM_RETURN_IF_ERROR(it->second.dist.Build(bins));
    ++it;
  }
  built_ = true;
  return Status::OK();
}

Result<Histogram> PathCentricModel::PathCostDistribution(
    const std::vector<int>& edge_path, double depart_seconds,
    int result_bins) const {
  if (!built_) {
    return Status::FailedPrecondition("PathCentricModel: call Build() first");
  }
  if (edge_path.empty()) {
    return Status::InvalidArgument("PathCostDistribution: empty path");
  }
  Histogram acc;
  bool have_acc = false;
  double elapsed = 0.0;
  size_t i = 0;
  while (i < edge_path.size()) {
    // Greedy: longest learned sub-path starting at i.
    size_t best_len = 0;
    const Entry* best = nullptr;
    size_t limit = std::min(edge_path.size() - i,
                            static_cast<size_t>(max_subpath_length_));
    for (size_t len = limit; len >= 1; --len) {
      std::vector<int> key(edge_path.begin() + i, edge_path.begin() + i + len);
      auto it = table_.find(key);
      if (it != table_.end() && it->second.dist.built()) {
        best_len = len;
        best = &it->second;
        break;
      }
    }
    if (best == nullptr) {
      return Status::NotFound("PathCentricModel: edge " +
                              std::to_string(edge_path[i]) +
                              " has no learned distribution");
    }
    const Histogram& piece =
        best->dist.DistributionAt(depart_seconds + elapsed);
    elapsed += piece.Mean();
    if (!have_acc) {
      acc = piece;
      have_acc = true;
    } else {
      acc = acc.Convolve(piece, result_bins);
    }
    i += best_len;
  }
  return acc;
}

int PathCentricModel::CoverSize(const std::vector<int>& edge_path) const {
  int pieces = 0;
  size_t i = 0;
  while (i < edge_path.size()) {
    size_t best_len = 0;
    size_t limit = std::min(edge_path.size() - i,
                            static_cast<size_t>(max_subpath_length_));
    for (size_t len = limit; len >= 1; --len) {
      std::vector<int> key(edge_path.begin() + i, edge_path.begin() + i + len);
      auto it = table_.find(key);
      if (it != table_.end() && it->second.dist.built()) {
        best_len = len;
        break;
      }
    }
    if (best_len == 0) return 0;
    ++pieces;
    i += best_len;
  }
  return pieces;
}

}  // namespace tsdm
