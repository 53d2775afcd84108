#ifndef TSDM_GOVERNANCE_UNCERTAINTY_HISTOGRAM_H_
#define TSDM_GOVERNANCE_UNCERTAINTY_HISTOGRAM_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace tsdm {

/// An equi-width histogram over [lo, hi] used as a non-parametric
/// distribution representation — the paper's preferred form for travel-cost
/// uncertainty because it makes no distributional assumptions (§II-B).
/// Mass outside the range is clamped into the boundary bins.
class Histogram {
 public:
  Histogram() = default;

  /// Creates an empty histogram with the given range and bin count.
  /// Requires lo < hi and bins >= 1.
  static Result<Histogram> Create(double lo, double hi, int bins);

  /// Builds a histogram spanning the sample range (slightly padded).
  /// Requires a non-empty sample set.
  static Result<Histogram> FromSamples(const std::vector<double>& samples,
                                       int bins);

  /// Point-mass histogram at `value` (used for zero-variance costs).
  static Histogram PointMass(double value);

  int NumBins() const { return static_cast<int>(mass_.size()); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double BinWidth() const;
  /// Center of bin b.
  double BinCenter(int b) const;
  /// Normalized probability mass of bin b.
  double BinMass(int b) const;
  double TotalWeight() const { return total_; }

  /// Adds a sample with the given weight.
  void Add(double value, double weight = 1.0);

  /// Mean of the (normalized) distribution.
  double Mean() const;
  double Variance() const;
  double Stdev() const;

  /// P(X <= x).
  double Cdf(double x) const;
  /// Smallest x with Cdf(x) >= q.
  double Quantile(double q) const;
  /// Samples a value (uniform within the chosen bin).
  double Sample(Rng* rng) const;

  /// Distribution of X + Y assuming independence, discretized onto
  /// `result_bins` bins. This is the composition step of edge-centric cost
  /// models.
  ///
  /// Contract: the result is bit for bit that of the reference loop
  /// "for each bin a, b with positive mass: result.Add(BinCenter(a) +
  /// other.BinCenter(b), BinMass(a) * other.BinMass(b))", with a outer
  /// and b inner. The kernel only hoists per-call and per-bin terms out of
  /// that loop; do not reassociate its sums, replace a division by a
  /// reciprocal multiply, or build it with FMA contraction or -ffast-math,
  /// since each changes the served answers' bits. A result_bins < 1 gives
  /// a point mass at lo() + other.lo() plus the composed mass.
  Histogram Convolve(const Histogram& other, int result_bins = 64) const;

  /// Returns a copy translated by `offset`.
  Histogram Shifted(double offset) const;

  /// CDF evaluated at each of the `grid` points (for stochastic dominance).
  std::vector<double> CdfOnGrid(const std::vector<double>& grid) const;

  /// True when this distribution first-order stochastically dominates
  /// `other` for *minimization* problems (smaller cost is better):
  /// this.Cdf(x) >= other.Cdf(x) for all x on a shared evaluation grid,
  /// with strict inequality somewhere beyond `tolerance`.
  bool DominatesForMinimization(const Histogram& other,
                                double tolerance = 1e-9) const;

 private:
  double lo_ = 0.0;
  double hi_ = 1.0;
  std::vector<double> mass_;
  double total_ = 0.0;
};

}  // namespace tsdm

#endif  // TSDM_GOVERNANCE_UNCERTAINTY_HISTOGRAM_H_
