#include "src/spatial/shortest_path.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

namespace tsdm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct QueueEntry {
  double priority;
  int node;
  bool operator>(const QueueEntry& other) const {
    return priority > other.priority;
  }
};

constexpr auto kZeroPotential = [](int) { return 0.0; };

Status CheckNodes(const RoadNetwork& network, int source, int target,
                  const char* who) {
  const int n = static_cast<int>(network.NumNodes());
  if (source < 0 || target < 0 || source >= n || target >= n) {
    return Status::OutOfRange(std::string(who) + ": node id out of range");
  }
  return Status::OK();
}

Status CheckQuery(const RoadNetwork& network, int source, int target,
                  int k) {
  if (k <= 0) return Status::InvalidArgument("KShortestPaths: k must be > 0");
  return CheckNodes(network, source, target, "KShortestPaths");
}

/// Edge costs clamped to >= 0: the weights a SearchKernel borrows.
std::vector<double> ClampedWeights(const RoadNetwork& network,
                                   const EdgeCostFn& cost) {
  std::vector<double> weight(network.NumEdges());
  for (size_t e = 0; e < weight.size(); ++e) {
    weight[e] = std::max(0.0, cost(static_cast<int>(e)));
  }
  return weight;
}

/// The one label-setting search behind ShortestPath, AStarPath,
/// ShortestPathTree and every Yen spur, over clamped weights it borrows.
/// Bans and per-search labels are epoch stamps, so forgetting them
/// between spur searches is one increment, and the label and heap buffers
/// are reused rather than reallocated per search.
class SearchKernel {
 public:
  /// `weight` (from ClampedWeights) must outlive the kernel.
  SearchKernel(const RoadNetwork& network, const std::vector<double>& weight)
      : network_(network),
        weight_(weight),
        edge_ban_(network.NumEdges(), 0),
        node_ban_(network.NumNodes(), 0),
        reached_(network.NumNodes(), 0),
        settled_(network.NumNodes(), 0),
        dist_(network.NumNodes(), kInf),
        parent_edge_(network.NumNodes(), -1) {}

  double weight(int eid) const { return weight_[eid]; }

  /// Lifts every ban set since the previous call.
  void ClearBans() { ++ban_epoch_; }
  void BanNode(int node) { node_ban_[node] = ban_epoch_; }
  void BanEdge(int eid) { edge_ban_[eid] = ban_epoch_; }

  /// Best path from `source` to `target` avoiding the current bans, ordered
  /// by g + h. `h` must be consistent; nodes with h == inf are pruned.
  template <typename Potential>
  Result<Path> Search(int source, int target, const Potential& h) {
    Run<false>(source, target, h);
    if (!Reached(target)) {
      return Status::NotFound("no path from " + std::to_string(source) +
                              " to " + std::to_string(target));
    }
    Path path;
    path.cost = dist_[target];
    for (int node = target; node != source;) {
      const int eid = parent_edge_[node];
      path.edges.push_back(eid);
      path.nodes.push_back(node);
      node = network_.edge(eid).from;
    }
    path.nodes.push_back(source);
    std::reverse(path.nodes.begin(), path.nodes.end());
    std::reverse(path.edges.begin(), path.edges.end());
    return path;
  }

  /// Distances from `root` to every node (`reverse`: from every node to
  /// `root`, over InEdges), inf where unreachable. Ignores bans.
  std::vector<double> Tree(int root, bool reverse) {
    ClearBans();
    if (reverse) {
      Run<true>(root, -1, kZeroPotential);
    } else {
      Run<false>(root, -1, kZeroPotential);
    }
    std::vector<double> dist(network_.NumNodes(), kInf);
    for (size_t v = 0; v < dist.size(); ++v) {
      if (Reached(static_cast<int>(v))) dist[v] = dist_[v];
    }
    return dist;
  }

 private:
  bool Reached(int node) const { return reached_[node] == search_epoch_; }

  /// Lazy-deletion A*; stops once `target` settles (target -1: never).
  template <bool kReverse, typename Potential>
  void Run(int source, int target, const Potential& h) {
    ++search_epoch_;
    heap_.clear();
    reached_[source] = search_epoch_;
    dist_[source] = 0.0;
    Push(h(source), source);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<QueueEntry>());
      const int node = heap_.back().node;
      heap_.pop_back();
      if (settled_[node] == search_epoch_) continue;
      settled_[node] = search_epoch_;
      if (node == target) break;
      const std::vector<int>& edges =
          kReverse ? network_.InEdges(node) : network_.OutEdges(node);
      for (int eid : edges) {
        if (edge_ban_[eid] == ban_epoch_) continue;
        const RoadNetwork::Edge& edge = network_.edge(eid);
        const int to = kReverse ? edge.from : edge.to;
        if (node_ban_[to] == ban_epoch_ || settled_[to] == search_epoch_) {
          continue;
        }
        const double candidate = dist_[node] + weight_[eid];
        if (candidate < (Reached(to) ? dist_[to] : kInf)) {
          const double potential = h(to);
          if (potential == kInf) continue;  // `to` cannot reach the target
          reached_[to] = search_epoch_;
          dist_[to] = candidate;
          parent_edge_[to] = eid;
          Push(candidate + potential, to);
        }
      }
    }
  }

  void Push(double priority, int node) {
    heap_.push_back({priority, node});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<QueueEntry>());
  }

  const RoadNetwork& network_;
  const std::vector<double>& weight_;
  std::vector<uint32_t> edge_ban_;  ///< == ban_epoch_: edge removed
  std::vector<uint32_t> node_ban_;  ///< == ban_epoch_: node removed
  std::vector<uint32_t> reached_;   ///< == search_epoch_: dist_ is valid
  std::vector<uint32_t> settled_;   ///< == search_epoch_: dist_ is final
  std::vector<double> dist_;
  std::vector<int> parent_edge_;
  std::vector<QueueEntry> heap_;  ///< min-heap on priority
  uint32_t ban_epoch_ = 1;
  uint32_t search_epoch_ = 0;
};

/// Yen's loop on `kernel`, with `to_target` (the exact free-graph distance
/// to `target`) as every search's potential. Bans only remove edges, so it
/// stays a consistent A* potential for every spur search.
Result<std::vector<Path>> Yen(SearchKernel& kernel, int source, int target,
                              int k, const std::vector<double>& to_target) {
  const auto potential = [&to_target](int node) { return to_target[node]; };
  // A kernel that already searched may hold bans from its last spur.
  kernel.ClearBans();
  Result<Path> first = kernel.Search(source, target, potential);
  if (!first.ok()) return first.status();

  // Each accepted path remembers the index where it left its parent;
  // spurring before that index only rediscovers known paths (Lawler).
  struct Candidate {
    Path path;
    size_t deviation;
  };
  std::vector<Path> result = {*first};
  std::vector<size_t> deviation = {0};
  // Candidate paths ordered by cost; compare node sequences for dedup.
  auto candidate_less = [](const Candidate& a, const Candidate& b) {
    if (a.path.cost != b.path.cost) return a.path.cost < b.path.cost;
    return a.path.nodes < b.path.nodes;
  };
  std::set<std::vector<int>> known = {first->nodes};
  std::vector<Candidate> candidates;

  for (int ki = 1; ki < k; ++ki) {
    const Path& prev = result.back();
    // Each node of the previous path (except the last) is a spur node.
    for (size_t i = deviation.back(); i + 1 < prev.nodes.size(); ++i) {
      kernel.ClearBans();
      // Ban edges that would recreate an already-known path sharing the
      // root prev.nodes[0..i].
      for (const Path& p : result) {
        if (p.edges.size() > i &&
            std::equal(prev.nodes.begin(), prev.nodes.begin() + i + 1,
                       p.nodes.begin())) {
          kernel.BanEdge(p.edges[i]);
        }
      }
      // Ban root nodes except the spur node to keep paths loopless.
      for (size_t j = 0; j < i; ++j) kernel.BanNode(prev.nodes[j]);

      Result<Path> spur = kernel.Search(prev.nodes[i], target, potential);
      if (!spur.ok()) continue;

      Candidate total{Path(), i};
      total.path.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + i);
      total.path.nodes.insert(total.path.nodes.end(), spur->nodes.begin(),
                              spur->nodes.end());
      total.path.edges.assign(prev.edges.begin(), prev.edges.begin() + i);
      total.path.edges.insert(total.path.edges.end(), spur->edges.begin(),
                              spur->edges.end());
      for (int eid : total.path.edges) total.path.cost += kernel.weight(eid);
      if (known.insert(total.path.nodes).second) {
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end(),
                                 candidate_less);
    result.push_back(std::move(best->path));
    deviation.push_back(best->deviation);
    candidates.erase(best);
  }
  return result;
}

}  // namespace

EdgeCostFn FreeFlowTimeCost(const RoadNetwork& network) {
  return [&network](int eid) { return network.FreeFlowTime(eid); };
}

EdgeCostFn LengthCost(const RoadNetwork& network) {
  return [&network](int eid) { return network.edge(eid).length; };
}

Result<Path> ShortestPath(const RoadNetwork& network, int source, int target,
                          const EdgeCostFn& cost) {
  TSDM_RETURN_IF_ERROR(CheckNodes(network, source, target, "ShortestPath"));
  const std::vector<double> weight = ClampedWeights(network, cost);
  return SearchKernel(network, weight).Search(source, target, kZeroPotential);
}

std::vector<double> ShortestPathTree(const RoadNetwork& network, int source,
                                     const EdgeCostFn& cost) {
  const std::vector<double> weight = ClampedWeights(network, cost);
  return SearchKernel(network, weight).Tree(source, /*reverse=*/false);
}

Result<Path> AStarPath(const RoadNetwork& network, int source, int target,
                       const EdgeCostFn& cost, double max_speed) {
  if (max_speed <= 0.0) {
    return Status::InvalidArgument("AStarPath: max_speed must be positive");
  }
  TSDM_RETURN_IF_ERROR(CheckNodes(network, source, target, "AStarPath"));
  const std::vector<double> weight = ClampedWeights(network, cost);
  return SearchKernel(network, weight).Search(source, target, [&](int node) {
    return network.NodeDistance(node, target) / max_speed;
  });
}

Result<std::vector<Path>> KShortestPaths(const RoadNetwork& network,
                                         int source, int target, int k,
                                         const EdgeCostFn& cost) {
  TSDM_RETURN_IF_ERROR(CheckQuery(network, source, target, k));
  const std::vector<double> weight = ClampedWeights(network, cost);
  SearchKernel kernel(network, weight);
  return Yen(kernel, source, target, k, kernel.Tree(target, /*reverse=*/true));
}

RouteEnumerator::RouteEnumerator(const RoadNetwork* network,
                                 const EdgeCostFn& cost)
    : network_(network),
      weight_(ClampedWeights(*network, cost)),
      capacity_(std::max<size_t>(
          1, kTreeBudgetBytes /
                 (sizeof(double) * std::max<size_t>(1, network->NumNodes())))),
      tree_(network->NumNodes()),
      last_use_(network->NumNodes(), 0) {}

Result<std::vector<Path>> RouteEnumerator::KShortest(int source, int target,
                                                     int k) const {
  TSDM_RETURN_IF_ERROR(CheckQuery(*network_, source, target, k));
  Tree tree;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++enumerations_;
    tree = tree_[target];
    if (tree) {
      ++tree_hits_;
      last_use_[target] = ++clock_;
    }
  }
  SearchKernel kernel(*network_, weight_);
  if (!tree) {
    auto built = std::make_shared<const std::vector<double>>(
        kernel.Tree(target, /*reverse=*/true));
    std::lock_guard<std::mutex> lock(mu_);
    if (!tree_[target]) {
      if (resident_ == capacity_) {
        // Evict the least recently used tree: a linear scan, paid only on
        // a miss, next to the full reverse Dijkstra that the miss costs.
        size_t victim = tree_.size();
        for (size_t v = 0; v < tree_.size(); ++v) {
          if (tree_[v] && (victim == tree_.size() ||
                           last_use_[v] < last_use_[victim])) {
            victim = v;
          }
        }
        tree_[victim].reset();
        --resident_;
      }
      tree_[target] = built;
      ++resident_;
    }
    // A racing caller's equal tree may already be cached; either will do.
    tree = tree_[target];
    last_use_[target] = ++clock_;
  }
  return Yen(kernel, source, target, k, *tree);
}

RouteEnumerator::Stats RouteEnumerator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.enumerations = enumerations_;
  s.tree_hits = tree_hits_;
  s.trees = resident_;
  s.capacity = capacity_;
  return s;
}

}  // namespace tsdm
