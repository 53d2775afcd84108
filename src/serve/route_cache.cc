#include "src/serve/route_cache.h"

#include <algorithm>

namespace tsdm {

RouteCache::RouteCache(const RoadNetwork* network, size_t entries)
    : enumerator_(network, FreeFlowTimeCost(*network)),
      entries_(std::max<size_t>(1, entries)) {}

Result<std::vector<Path>> RouteCache::Get(int source, int target, int k,
                                          const TraceContext& ctx) {
  const Key key{source, target, k};
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
  }
  // Only a route-LRU miss shows up in the trace: warm requests skip Yen's
  // algorithm entirely, and their exec span shrinking is the visible proof.
  TraceSpan span("serve/enumerate_routes", ctx);
  Result<std::vector<Path>> paths = enumerator_.KShortest(source, target, k);
  if (!paths.ok()) return paths.status();
  {
    std::unique_lock<std::mutex> lock(mu_);
    // A racing caller may have inserted the same key; refresh it instead
    // of duplicating.
    auto it = index_.find(key);
    if (it == index_.end()) {
      lru_.emplace_front(key, *paths);
      index_.emplace(key, lru_.begin());
      while (lru_.size() > entries_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
      }
    }
  }
  return paths;
}

size_t RouteCache::size() const {
  std::unique_lock<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace tsdm
