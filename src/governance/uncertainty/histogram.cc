#include "src/governance/uncertainty/histogram.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace tsdm {

Result<Histogram> Histogram::Create(double lo, double hi, int bins) {
  if (!(lo < hi)) {
    return Status::InvalidArgument("Histogram: lo must be < hi");
  }
  if (bins < 1) return Status::InvalidArgument("Histogram: bins must be >=1");
  Histogram h;
  h.lo_ = lo;
  h.hi_ = hi;
  h.mass_.assign(bins, 0.0);
  return h;
}

Result<Histogram> Histogram::FromSamples(const std::vector<double>& samples,
                                         int bins) {
  if (samples.empty()) {
    return Status::InvalidArgument("Histogram: empty sample set");
  }
  double lo = *std::min_element(samples.begin(), samples.end());
  double hi = *std::max_element(samples.begin(), samples.end());
  if (lo == hi) {
    lo -= 0.5;
    hi += 0.5;
  } else {
    double pad = (hi - lo) * 0.01;
    lo -= pad;
    hi += pad;
  }
  Result<Histogram> h = Create(lo, hi, bins);
  if (!h.ok()) return h;
  for (double s : samples) h->Add(s);
  return h;
}

Histogram Histogram::PointMass(double value) {
  Histogram h;
  h.lo_ = value - 0.5;
  h.hi_ = value + 0.5;
  h.mass_.assign(1, 1.0);
  h.total_ = 1.0;
  return h;
}

double Histogram::BinWidth() const {
  return (hi_ - lo_) / static_cast<double>(mass_.size());
}

double Histogram::BinCenter(int b) const {
  return lo_ + (b + 0.5) * BinWidth();
}

double Histogram::BinMass(int b) const {
  return total_ > 0.0 ? mass_[b] / total_ : 0.0;
}

void Histogram::Add(double value, double weight) {
  if (mass_.empty()) return;
  int b = static_cast<int>((value - lo_) / BinWidth());
  b = std::clamp(b, 0, NumBins() - 1);
  mass_[b] += weight;
  total_ += weight;
}

// The readers below inline BinMass and BinCenter with the width computed
// once per call: the same expressions in the same order, so the same bits.

double Histogram::Mean() const {
  if (total_ <= 0.0) return 0.0;
  const double w = BinWidth();
  double acc = 0.0;
  for (int b = 0; b < NumBins(); ++b) {
    acc += (mass_[b] / total_) * (lo_ + (b + 0.5) * w);
  }
  return acc;
}

double Histogram::Variance() const {
  if (total_ <= 0.0) return 0.0;
  const double m = Mean();
  const double w = BinWidth();
  double acc = 0.0;
  for (int b = 0; b < NumBins(); ++b) {
    double d = (lo_ + (b + 0.5) * w) - m;
    acc += (mass_[b] / total_) * d * d;
  }
  return acc;
}

double Histogram::Stdev() const { return std::sqrt(Variance()); }

double Histogram::Cdf(double x) const {
  if (total_ <= 0.0) return 0.0;
  if (x < lo_) return 0.0;
  if (x >= hi_) return 1.0;
  double w = BinWidth();
  int b = std::clamp(static_cast<int>((x - lo_) / w), 0, NumBins() - 1);
  double acc = 0.0;
  for (int i = 0; i < b; ++i) acc += mass_[i] / total_;
  // Linear interpolation within the bin.
  double frac = (x - (lo_ + b * w)) / w;
  acc += (mass_[b] / total_) * std::clamp(frac, 0.0, 1.0);
  return acc;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  if (total_ <= 0.0) return lo_;
  double acc = 0.0;
  double w = BinWidth();
  for (int b = 0; b < NumBins(); ++b) {
    double m = mass_[b] / total_;
    if (acc + m >= q) {
      double frac = m > 0.0 ? (q - acc) / m : 0.0;
      return lo_ + (b + frac) * w;
    }
    acc += m;
  }
  return hi_;
}

double Histogram::Sample(Rng* rng) const {
  if (total_ <= 0.0) return lo_;
  double u = rng->Uniform(0.0, total_);
  double acc = 0.0;
  for (int b = 0; b < NumBins(); ++b) {
    acc += mass_[b];
    if (u < acc) {
      double w = BinWidth();
      return lo_ + b * w + rng->Uniform(0.0, w);
    }
  }
  return hi_;
}

Histogram Histogram::Convolve(const Histogram& other, int result_bins) const {
  double new_lo = lo_ + other.lo_;
  double new_hi = hi_ + other.hi_;
  Result<Histogram> out = Create(new_lo, new_hi, result_bins);
  Histogram result = out.ok() ? std::move(out).value() : PointMass(new_lo);
  if (total_ <= 0.0 || other.total_ <= 0.0) return result;
  // Every bin pair adds mass BinMass(a) * other.BinMass(b) at
  // BinCenter(a) + other.BinCenter(b), exactly as result.Add would; the
  // per-call and per-bin terms are computed once instead of per pair.
  struct Term {
    double mass;
    double center;
  };
  std::vector<Term> terms;
  terms.reserve(other.mass_.size());
  const double wb = other.BinWidth();
  for (int b = 0; b < other.NumBins(); ++b) {
    double pb = other.mass_[b] / other.total_;
    if (pb <= 0.0) continue;
    terms.push_back({pb, other.lo_ + (b + 0.5) * wb});
  }
  const double wa = BinWidth();
  const double rlo = result.lo_;
  const double rw = result.BinWidth();
  const int rlast = result.NumBins() - 1;
  double* rmass = result.mass_.data();
  double rtotal = result.total_;
  for (int a = 0; a < NumBins(); ++a) {
    double pa = mass_[a] / total_;
    if (pa <= 0.0) continue;
    double ca = lo_ + (a + 0.5) * wa;
    for (const Term& t : terms) {
      int idx = std::clamp(static_cast<int>((ca + t.center - rlo) / rw), 0,
                           rlast);
      double w = pa * t.mass;
      rmass[idx] += w;
      rtotal += w;
    }
  }
  result.total_ = rtotal;
  return result;
}

Histogram Histogram::Shifted(double offset) const {
  Histogram out = *this;
  out.lo_ += offset;
  out.hi_ += offset;
  return out;
}

std::vector<double> Histogram::CdfOnGrid(
    const std::vector<double>& grid) const {
  std::vector<double> out(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) out[i] = Cdf(grid[i]);
  return out;
}

bool Histogram::DominatesForMinimization(const Histogram& other,
                                         double tolerance) const {
  // Decide dominance exactly for the mass-at-bin-center representation
  // that ExpectedUtility integrates over: compare the step CDFs
  // P(X <= x) at every mass point of either histogram. This guarantees
  // that pruning never removes an expected-utility optimum for any
  // monotone utility (the correctness contract of FSD pruning).
  // Each histogram's centers and masses are computed once, not per grid
  // point; the values and the summation order are BinCenter/BinMass's.
  struct Steps {
    std::vector<double> center;
    std::vector<double> mass;
  };
  auto steps_of = [](const Histogram& h) {
    Steps s;
    const double w = h.BinWidth();
    for (int b = 0; b < h.NumBins(); ++b) {
      s.center.push_back(h.lo_ + (b + 0.5) * w);
      s.mass.push_back(h.BinMass(b));
    }
    return s;
  };
  const Steps mine = steps_of(*this);
  const Steps theirs = steps_of(other);
  std::vector<double> grid = mine.center;
  grid.insert(grid.end(), theirs.center.begin(), theirs.center.end());
  std::sort(grid.begin(), grid.end());

  auto step_cdf = [](const Steps& s, double x) {
    double acc = 0.0;
    for (size_t b = 0; b < s.center.size(); ++b) {
      if (s.center[b] <= x + 1e-12) acc += s.mass[b];
    }
    return acc;
  };
  bool strict = false;
  for (double x : grid) {
    double fa = step_cdf(mine, x);
    double fb = step_cdf(theirs, x);
    if (fa < fb - tolerance) return false;
    if (fa > fb + tolerance) strict = true;
  }
  return strict;
}

}  // namespace tsdm
