// Summary statistics of the benchmark: medians, nearest-rank percentiles,
// the highest percentile a sample set can support, and the failure share.
// Header-only so that stats_test.cc checks exactly what the benchmark runs.
#ifndef HDKBENCH_STATS_H_
#define HDKBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hdkbench {

/// Median of `values` (the mean of the two middle values for an even
/// count); 0 for an empty set.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

/// Arithmetic mean; 0 for an empty set.
inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// 1-based nearest rank of percentile `q` (0 < q <= 100) among `n`
/// samples: ceil(q / 100 * n), clamped to [1, n].
inline size_t NearestRank(double q, size_t n) {
  const double exact = q * static_cast<double>(n) / 100.0;
  // The epsilon keeps 99% of 1000 at rank 990 despite rounding in q * n.
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it. 0 for an empty set.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(q, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

/// Samples strictly beyond the nearest rank of percentile `q`.
inline size_t SamplesBeyond(double q, size_t n) {
  return n == 0 ? 0 : n - NearestRank(q, n);
}

/// The tail figure a sample set supports (see HighestSupportedPercentile).
struct TailPercentile {
  double q = 0.0;      // 0 when not even the median qualifies
  double value = 0.0;
  size_t samples = 0;  // sample count the figure rests on
  size_t beyond = 0;   // samples strictly beyond the percentile's rank
};

/// The highest of the percentiles 50, 90, 99, 99.9, 99.99 and 99.999 that
/// still has at least `min_beyond` samples beyond it, with its value and
/// the sample count.
inline TailPercentile HighestSupportedPercentile(
    const std::vector<double>& values, size_t min_beyond = 10) {
  TailPercentile tail;
  tail.samples = values.size();
  for (double q : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    const size_t beyond = SamplesBeyond(q, values.size());
    if (values.empty() || beyond < min_beyond) break;
    tail.q = q;
    tail.beyond = beyond;
  }
  if (tail.q > 0.0) tail.value = Percentile(values, tail.q);
  return tail;
}

/// Share of failed operations among those attempted; 0 when nothing was
/// attempted.
inline double FailureShare(uint64_t failed, uint64_t attempted) {
  if (attempted == 0) return 0.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace hdkbench

#endif  // HDKBENCH_STATS_H_
