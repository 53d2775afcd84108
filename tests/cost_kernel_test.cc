// The histogram cost kernel: Convolve and the distribution readers must give
// bit for bit what the straightforward per-bin loops over the public API
// give. A seeded oracle compares them over random inputs, and golden
// fingerprints pin path cost distributions and served answers, so any
// reassociation, reciprocal or contraction in the kernel shows up here.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/governance/uncertainty/histogram.h"
#include "src/governance/uncertainty/travel_cost_models.h"
#include "src/serve/query_server.h"
#include "src/sim/road_gen.h"
#include "src/sim/traffic_sim.h"
#include "src/spatial/road_network.h"

namespace tsdm {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// FNV-1a over 64-bit words, byte by byte.
class Fingerprint {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xFF;
      hash_ *= 1099511628211ULL;
    }
  }
  void AddDouble(double v) { Add(BitsOf(v)); }
  void Add(const Histogram& h) {
    Add(static_cast<uint64_t>(h.NumBins()));
    AddDouble(h.lo());
    AddDouble(h.hi());
    AddDouble(h.TotalWeight());
    for (int b = 0; b < h.NumBins(); ++b) AddDouble(h.BinMass(b));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

// --- Reference loops: one public-API call per bin (pair), as specified. ---

Histogram ReferenceConvolve(const Histogram& x, const Histogram& y,
                            int result_bins) {
  double new_lo = x.lo() + y.lo();
  double new_hi = x.hi() + y.hi();
  Result<Histogram> out = Histogram::Create(new_lo, new_hi, result_bins);
  Histogram result = out.ok() ? *out : Histogram::PointMass(new_lo);
  if (x.TotalWeight() <= 0.0 || y.TotalWeight() <= 0.0) return result;
  for (int a = 0; a < x.NumBins(); ++a) {
    double pa = x.BinMass(a);
    if (pa <= 0.0) continue;
    for (int b = 0; b < y.NumBins(); ++b) {
      double pb = y.BinMass(b);
      if (pb <= 0.0) continue;
      result.Add(x.BinCenter(a) + y.BinCenter(b), pa * pb);
    }
  }
  return result;
}

double ReferenceMean(const Histogram& h) {
  if (h.TotalWeight() <= 0.0) return 0.0;
  double acc = 0.0;
  for (int b = 0; b < h.NumBins(); ++b) acc += h.BinMass(b) * h.BinCenter(b);
  return acc;
}

double ReferenceVariance(const Histogram& h) {
  if (h.TotalWeight() <= 0.0) return 0.0;
  double m = ReferenceMean(h);
  double acc = 0.0;
  for (int b = 0; b < h.NumBins(); ++b) {
    double d = h.BinCenter(b) - m;
    acc += h.BinMass(b) * d * d;
  }
  return acc;
}

double ReferenceCdf(const Histogram& h, double x) {
  if (h.TotalWeight() <= 0.0) return 0.0;
  if (x < h.lo()) return 0.0;
  if (x >= h.hi()) return 1.0;
  double w = h.BinWidth();
  int b =
      std::clamp(static_cast<int>((x - h.lo()) / w), 0, h.NumBins() - 1);
  double acc = 0.0;
  for (int i = 0; i < b; ++i) acc += h.BinMass(i);
  double frac = (x - (h.lo() + b * w)) / w;
  acc += h.BinMass(b) * std::clamp(frac, 0.0, 1.0);
  return acc;
}

double ReferenceQuantile(const Histogram& h, double q) {
  q = std::clamp(q, 0.0, 1.0);
  if (h.TotalWeight() <= 0.0) return h.lo();
  double acc = 0.0;
  double w = h.BinWidth();
  for (int b = 0; b < h.NumBins(); ++b) {
    double m = h.BinMass(b);
    if (acc + m >= q) {
      double frac = m > 0.0 ? (q - acc) / m : 0.0;
      return h.lo() + (b + frac) * w;
    }
    acc += m;
  }
  return h.hi();
}

bool ReferenceDominates(const Histogram& x, const Histogram& y,
                        double tolerance) {
  std::vector<double> grid;
  for (int b = 0; b < x.NumBins(); ++b) grid.push_back(x.BinCenter(b));
  for (int b = 0; b < y.NumBins(); ++b) grid.push_back(y.BinCenter(b));
  std::sort(grid.begin(), grid.end());
  auto step_cdf = [](const Histogram& h, double at) {
    double acc = 0.0;
    for (int b = 0; b < h.NumBins(); ++b) {
      if (h.BinCenter(b) <= at + 1e-12) acc += h.BinMass(b);
    }
    return acc;
  };
  bool strict = false;
  for (double at : grid) {
    double fa = step_cdf(x, at);
    double fb = step_cdf(y, at);
    if (fa < fb - tolerance) return false;
    if (fa > fb + tolerance) strict = true;
  }
  return strict;
}

// --- Seeded random inputs covering the kernel's edge cases. ---

/// Mostly small bin counts, sometimes up to 300, so the oracle stays cheap
/// under sanitizers while still reaching wide histograms.
int RandomBins(Rng* rng) {
  return rng->Bernoulli(0.05) ? rng->Int(49, 300) : rng->Int(1, 48);
}

Histogram RandomHistogram(Rng* rng) {
  const int kind = rng->Index(20);
  if (kind == 0) return Histogram();  // no bins at all
  double lo = rng->Uniform(-1000.0, 1000.0);
  if (kind == 1) return Histogram::PointMass(lo);
  double width = std::exp(rng->Uniform(std::log(1e-3), std::log(1e4)));
  Result<Histogram> h = Histogram::Create(lo, lo + width, RandomBins(rng));
  EXPECT_TRUE(h.ok());
  if (kind == 2) return *h;  // bins, but zero total weight
  const int samples = rng->Int(1, 3 * h->NumBins());
  const double fill = rng->Uniform(0.05, 1.0);  // share of bins touched
  for (int i = 0; i < samples; ++i) {
    // Values slightly outside the range exercise the boundary clamp.
    double v = lo + width * (fill * rng->Uniform(-0.02, 1.02));
    double weight;
    switch (rng->Index(8)) {
      case 0:
        weight = 0.0;
        break;
      case 1:
        weight = -rng->Uniform(0.0, 0.5);  // negative masses are skipped
        break;
      case 2:
        weight = rng->Uniform(0.0, 1e-9);
        break;
      default:
        weight = rng->Uniform(0.0, 10.0);
    }
    h->Add(v, weight);
  }
  return *h;
}

int RandomResultBins(Rng* rng) {
  switch (rng->Index(10)) {
    case 0:
      return rng->Int(-3, 0);  // invalid: point-mass fallback
    case 1:
      return rng->Int(49, 300);
    default:
      return rng->Int(1, 64);
  }
}

/// Every byte of the two histograms' state that the public API exposes.
::testing::AssertionResult SameBits(const Histogram& got,
                                    const Histogram& want) {
  const double got_head[] = {got.lo(), got.hi(), got.TotalWeight()};
  const double want_head[] = {want.lo(), want.hi(), want.TotalWeight()};
  if (got.NumBins() != want.NumBins() ||
      std::memcmp(got_head, want_head, sizeof(got_head)) != 0) {
    return ::testing::AssertionFailure() << "range, bins or total differ";
  }
  for (int b = 0; b < got.NumBins(); ++b) {
    const double g = got.BinMass(b);
    const double w = want.BinMass(b);
    if (std::memcmp(&g, &w, sizeof(g)) != 0) {
      return ::testing::AssertionFailure()
             << "bin " << b << ": " << g << " vs " << w;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult ReadersMatch(const Histogram& h, Rng* rng) {
  if (BitsOf(h.Mean()) != BitsOf(ReferenceMean(h))) {
    return ::testing::AssertionFailure() << "Mean differs";
  }
  if (BitsOf(h.Variance()) != BitsOf(ReferenceVariance(h))) {
    return ::testing::AssertionFailure() << "Variance differs";
  }
  for (int i = 0; i < 4; ++i) {
    const double span = h.hi() - h.lo();
    const double x = h.lo() + span * rng->Uniform(-0.1, 1.1);
    if (BitsOf(h.Cdf(x)) != BitsOf(ReferenceCdf(h, x))) {
      return ::testing::AssertionFailure() << "Cdf(" << x << ") differs";
    }
    const double q = rng->Uniform(-0.05, 1.05);
    if (BitsOf(h.Quantile(q)) != BitsOf(ReferenceQuantile(h, q))) {
      return ::testing::AssertionFailure() << "Quantile(" << q << ") differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CostKernelOracleTest, ConvolveAndReadersMatchTheReferenceLoops) {
  constexpr int kCases = 100000;
  Rng rng(20251019);
  int mismatches = 0;
  for (int i = 0; i < kCases && mismatches < 5; ++i) {
    const Histogram x = RandomHistogram(&rng);
    const Histogram y = rng.Bernoulli(0.05) ? x : RandomHistogram(&rng);
    const int bins = RandomResultBins(&rng);
    Histogram got = x.Convolve(y, bins);
    Histogram want = ReferenceConvolve(x, y, bins);
    ::testing::AssertionResult same = SameBits(got, want);
    if (same && rng.Bernoulli(0.1)) {
      // Chained: fold a third histogram onto the result, as paths do.
      const Histogram z = RandomHistogram(&rng);
      got = got.Convolve(z, bins);
      want = ReferenceConvolve(want, z, bins);
      same = SameBits(got, want);
    }
    if (same) same = ReadersMatch(got, &rng);
    if (same) same = ReadersMatch(x, &rng);
    if (!same) {
      ++mismatches;
      ADD_FAILURE() << "case " << i << ": " << same.message();
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(CostKernelOracleTest, DominanceMatchesTheReferenceStepCdf) {
  constexpr int kCases = 20000;
  Rng rng(77);
  for (int i = 0; i < kCases; ++i) {
    const Histogram x = RandomHistogram(&rng);
    // Shifted copies of one shape make dominance actually hold sometimes.
    const Histogram y = rng.Bernoulli(0.5)
                            ? x.Shifted(rng.Uniform(-1.0, 1.0) *
                                        (x.hi() - x.lo()))
                            : RandomHistogram(&rng);
    const double tol = rng.Bernoulli(0.5) ? 1e-9 : rng.Uniform(0.0, 0.1);
    ASSERT_EQ(x.DominatesForMinimization(y, tol),
              ReferenceDominates(x, y, tol))
        << "case " << i;
  }
}

// --- Golden fingerprints, captured from the per-pair reference loop. ---

constexpr int kGrid = 24;

struct GridWorld {
  GridNetworkSpec spec;
  RoadNetwork net;
  EdgeCentricModel model{0};

  GridWorld() {
    spec.rows = kGrid;
    spec.cols = kGrid;
    Rng rng(20250417);
    net = GenerateGridNetwork(spec, &rng);
    const int edges = static_cast<int>(net.NumEdges());
    model = EdgeCentricModel(edges);
    TrafficSimulator sim(&net, TrafficSpec{});
    for (int e = 0; e < edges; ++e) {
      for (double hour : {2.0, 8.0, 13.0, 18.0}) {
        for (int rep = 0; rep < 4; ++rep) {
          TripObservation trip;
          trip.edge_path = {e};
          trip.depart_seconds = hour * 3600.0;
          trip.edge_times = {sim.SampleEdgeTime(e, trip.depart_seconds, &rng)};
          model.AddTrip(trip);
        }
      }
    }
    EXPECT_TRUE(model.Build().ok());
  }
};

const GridWorld& World() {
  static const GridWorld world;
  return world;
}

TEST(CostKernelGoldenTest, EdgeCentricPathCostDistributions) {
  const GridWorld& w = World();
  Rng rng(4242);
  Fingerprint fp;
  for (int i = 0; i < 400; ++i) {
    // A random walk: consecutive edges, as every served route is.
    std::vector<int> path;
    int node = rng.Index(static_cast<int>(w.net.NumNodes()));
    const int length = rng.Int(1, 40);
    while (static_cast<int>(path.size()) < length) {
      const std::vector<int>& out = w.net.OutEdges(node);
      if (out.empty()) break;
      const int e = out[rng.Index(static_cast<int>(out.size()))];
      path.push_back(e);
      node = w.net.edge(e).to;
    }
    const double depart = rng.Uniform(0.0, 86400.0);
    const int bins = rng.Bernoulli(0.5) ? 32 : 64;
    Result<Histogram> dist = w.model.PathCostDistribution(path, depart, bins);
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    fp.Add(*dist);
    fp.AddDouble(dist->Mean());
    fp.AddDouble(dist->Variance());
    fp.AddDouble(dist->Cdf(dist->Mean()));
  }
  EXPECT_EQ(fp.value(), 0x671eedfc3acce259ULL);
}

TEST(CostKernelGoldenTest, ServedColdAnswers) {
  const GridWorld& w = World();
  QueryServer::Options opts;
  opts.initial_workers = 1;
  opts.autoscale_enabled = false;
  opts.batch.max_wait_seconds = 0.0;
  const EdgeCentricModel* model = &w.model;
  QueryServer server(
      &w.net,
      [model](const std::vector<int>& edges, double depart) {
        return model->PathCostDistribution(edges, depart, 32);
      },
      opts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kQueries = 2000;
  const int nodes = static_cast<int>(w.net.NumNodes());
  Rng rng(99);
  std::vector<RouteAnswer> answers(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    RouteQuery q;
    q.source = rng.Index(nodes);
    q.target = (q.source + 1 + rng.Index(nodes - 1)) % nodes;
    q.k = 4;
    q.depart_seconds = rng.Uniform(0.0, 86400.0);
    q.arrival_deadline_seconds = q.depart_seconds + 2400.0;
    RouteAnswer* slot = &answers[static_cast<size_t>(i)];
    ASSERT_TRUE(
        server.Submit(q, [slot](const RouteAnswer& a) { *slot = a; }).ok());
    // Closed loop: one query in flight, so none waits out its budget.
    server.WaitIdle();
  }
  server.Stop();

  Fingerprint fp;
  for (const RouteAnswer& a : answers) {
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    fp.Add(static_cast<uint64_t>(a.num_candidates));
    fp.Add(a.route.edges.size());
    for (int e : a.route.edges) fp.Add(static_cast<uint64_t>(e));
    fp.AddDouble(a.cost_mean_seconds);
    fp.AddDouble(a.on_time_probability);
  }
  // Re-captured when ScoreCandidates began scoring P(travel time <=
  // deadline - depart) instead of reading the clock-time deadline as a
  // travel time; 537 of the 2,000 answers changed route.
  EXPECT_EQ(fp.value(), 0x4b52102a8ccc8695ULL);
}

}  // namespace
}  // namespace tsdm
