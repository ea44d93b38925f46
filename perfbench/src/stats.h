// Order statistics used by the benchmark's reports.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a reported tail percentile must leave beyond it.
inline constexpr size_t kTailSamples = 10;

/// Nearest-rank percentile of sorted samples: the value at 1-based rank
/// ceil(q * n). Requires a non-empty input.
template <typename T>
T NearestRank(const std::vector<T>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// The tail percentile the benchmark reports for `n` samples: `target`
/// (0.99) when at least kTailSamples samples lie beyond its rank,
/// otherwise the highest percentile that still has kTailSamples beyond
/// it. Returns 0 when n <= kTailSamples (no percentile qualifies).
inline double TailQuantile(size_t n, double target) {
  if (n <= kTailSamples) return 0.0;
  const double nd = static_cast<double>(n);
  size_t rank = static_cast<size_t>(target * nd);
  if (static_cast<double>(rank) < target * nd) ++rank;
  if (n - rank >= kTailSamples) return target;
  return static_cast<double>(n - kTailSamples) / nd;
}

template <typename T>
double Median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) +
                       static_cast<double>(v[n / 2])) /
                          2.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
