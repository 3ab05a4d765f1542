// The benchmark's own statistics: percentile selection that refuses a tail
// the sample cannot support, quartiles as Python's statistics.quantiles
// gives them, the span self-time rule, and open-loop timing from the due
// time. Pure functions over plain values so stats_test.cc can pin them.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie beyond
// it, so a tail is never read off one or two outliers.
inline constexpr int64_t kMinSamplesBeyond = 10;

// Nearest-rank position (1-based) of the p-th percentile among n samples.
inline int64_t PercentileRank(int64_t n, double p) {
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

// True when n samples leave at least kMinSamplesBeyond above the p-th
// percentile: p90 needs 100 samples, p99 needs 1000.
inline bool PercentileSupported(int64_t n, double p) {
  return n > 0 && n - PercentileRank(n, p) >= kMinSamplesBeyond;
}

// The nearest-rank p-th percentile, or nullopt when the sample is too small
// to support it (see PercentileSupported). The median is always supported
// for a non-empty sample.
inline std::optional<double> Percentile(std::vector<double> values, double p) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (n == 0 || (p > 50.0 && !PercentileSupported(n, p))) {
    return std::nullopt;
  }
  const int64_t rank = PercentileRank(n, p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

// Middle value (mean of the two middle values for an even count); 0 for an
// empty sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

// Python's statistics.quantiles(values, n=4) with its default "exclusive"
// method, so the spread this reports matches the one the acceptance check
// computes. Needs at least two values.
inline std::optional<Quartiles> ComputeQuartiles(std::vector<double> values) {
  const int64_t ld = static_cast<int64_t>(values.size());
  if (ld < 2) {
    return std::nullopt;
  }
  std::sort(values.begin(), values.end());
  const int64_t m = ld + 1;
  double q[3];
  for (int64_t i = 1; i <= 3; ++i) {
    int64_t j = std::clamp<int64_t>(i * m / 4, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    q[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4.0;
  }
  return Quartiles{q[0], q[1], q[2]};
}

// One closed interval of a span, in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

// Self time of a span: its duration minus the part of it that its child
// spans cover. Children may overlap each other (parallel calls) or spill
// past the parent's edges; each instant of the parent is subtracted once.
inline int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  int64_t covered = 0;
  int64_t cursor = parent.start;
  for (const Interval& child : children) {
    const int64_t lo = std::max(child.start, cursor);
    const int64_t hi = std::min(child.end, parent.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (parent.end - parent.start) - covered;
}

// Open-loop arrival schedule at a fixed rate: request i is due at
// start + i * period whether or not earlier requests have finished. A
// request's latency runs from its due time, not from when the generator got
// around to sending it, so a stall is charged to every request it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), period_ns_(1e9 / rate_per_s) {}

  int64_t DueNs(int64_t i) const {
    return start_ns_ + static_cast<int64_t>(std::llround(static_cast<double>(i) * period_ns_));
  }
  // How late the generator sent request i (never negative).
  int64_t LatenessNs(int64_t i, int64_t sent_ns) const {
    return std::max<int64_t>(0, sent_ns - DueNs(i));
  }
  // Latency of request i that resolved at done_ns, timed from its due time.
  int64_t LatencyNs(int64_t i, int64_t done_ns) const { return done_ns - DueNs(i); }

 private:
  int64_t start_ns_;
  double period_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
