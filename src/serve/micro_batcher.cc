#include "src/serve/micro_batcher.h"

#include <algorithm>
#include <utility>

namespace tsdm {

void MicroBatcher::Add(ServeRequest req,
                       std::vector<std::vector<ServeRequest>>* ready) {
  std::vector<ServeRequest>& group = groups_[req.query.snapshot_id];
  if (group.empty()) group.reserve(options_.max_batch);
  group.push_back(std::move(req));
  if (group.size() >= options_.max_batch) {
    std::vector<ServeRequest> batch = std::move(group);
    groups_.erase(batch.front().query.snapshot_id);
    Dispatch(std::move(batch), ready);
  }
}

void MicroBatcher::FlushExpired(
    uint64_t now_ns, std::vector<std::vector<ServeRequest>>* ready) {
  const double budget_ns = options_.max_wait_seconds * 1e9;
  for (auto it = groups_.begin(); it != groups_.end();) {
    // The front request is the oldest: groups are append-only FIFO.
    const uint64_t oldest = it->second.front().enqueue_ns;
    if (static_cast<double>(ElapsedNs(now_ns, oldest)) >= budget_ns) {
      std::vector<ServeRequest> batch = std::move(it->second);
      it = groups_.erase(it);
      Dispatch(std::move(batch), ready);
    } else {
      ++it;
    }
  }
}

void MicroBatcher::FlushAll(std::vector<std::vector<ServeRequest>>* ready) {
  for (auto& [snapshot, group] : groups_) {
    Dispatch(std::move(group), ready);
  }
  groups_.clear();
}

size_t MicroBatcher::pending() const {
  size_t n = 0;
  for (const auto& [snapshot, group] : groups_) n += group.size();
  return n;
}

void MicroBatcher::Dispatch(std::vector<ServeRequest>&& batch,
                            std::vector<std::vector<ServeRequest>>* ready) {
  if (batch.empty()) return;
  ++stats_.batches;
  stats_.batched_requests += batch.size();
  stats_.max_batch_seen = std::max(stats_.max_batch_seen, batch.size());
  for (ServeRequest& req : batch) req.batch_id = stats_.batches;
  ready->push_back(std::move(batch));
}

}  // namespace tsdm
