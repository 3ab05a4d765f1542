// Tests of the benchmark's own statistics (stats.h, tracer.h). No framework:
// each CHECK prints the failing expression and the run exits nonzero.
//
//   cmake --build .bench_build --target perfbench_stats_test
//   ctest --test-dir .bench_build
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/tracer.h"

namespace perfbench {
namespace {

int failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

// A percentile is reported only with >= 10 samples beyond it.
void PercentileKeepsTenSamplesBeyond() {
  CHECK(!PercentileSupported(99, 90.0));
  CHECK(PercentileSupported(100, 90.0));
  CHECK(!PercentileSupported(999, 99.0));
  CHECK(PercentileSupported(1000, 99.0));
  CHECK(!Percentile(Range(999), 99.0).has_value());
  CHECK(!Percentile(Range(99), 90.0).has_value());
  // Nearest rank: p90 of 1..100 is 90 (10 samples above), p99 of 1..1000 is 990.
  CHECK(Near(*Percentile(Range(100), 90.0), 90.0));
  CHECK(Near(*Percentile(Range(1000), 99.0), 990.0));
  // Order of the input does not matter.
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  CHECK(Near(*Percentile(shuffled, 50.0), 3.0));
  CHECK(Near(Median({4, 1, 3, 2}), 2.5));
  CHECK(Near(Median({}), 0.0));
}

// Same numbers as Python's statistics.quantiles(values, n=4).
void QuartilesMatchPython() {
  std::optional<Quartiles> q = ComputeQuartiles(Range(10));
  CHECK(q && Near(q->q1, 2.75) && Near(q->q2, 5.5) && Near(q->q3, 8.25));
  q = ComputeQuartiles({3.5, 1.25, 9.0, 4.0, 2.0});
  CHECK(q && Near(q->q1, 1.625) && Near(q->q2, 3.5) && Near(q->q3, 6.5));
  q = ComputeQuartiles({5.0, 7.0});
  CHECK(q && Near(q->q1, 4.5) && Near(q->q2, 6.0) && Near(q->q3, 7.5));
  CHECK(!ComputeQuartiles({1.0}).has_value());
}

// Self time = duration minus the union of the children inside the span.
void SelfTimeSubtractsCoveredChildren() {
  CHECK(SelfTime({0, 100}, {}) == 100);
  CHECK(SelfTime({0, 100}, {{10, 30}, {50, 60}}) == 70);
  // Overlapping children count once; parts outside the parent not at all.
  CHECK(SelfTime({0, 100}, {{10, 40}, {20, 50}}) == 60);
  CHECK(SelfTime({0, 100}, {{-20, 10}, {90, 130}}) == 80);
  CHECK(SelfTime({0, 100}, {{0, 100}, {30, 70}}) == 0);

  // Through the tracer: job -> call -> phase child, plus coverage by layer.
  Tracer tracer(true);
  int job = tracer.Add("job", 0, 100, -1, 1);
  int call = tracer.Add("dataflow.run_stage", 10, 90, job, 1);
  tracer.Add("exec.compute", 10, 70, call, 1);
  std::vector<int64_t> self = Tracer::SelfTimes(tracer.spans());
  CHECK(self[0] == 20 && self[1] == 20 && self[2] == 60);
  std::map<std::string, double> coverage = Tracer::LayerCoverage(tracer.spans());
  CHECK(Near(coverage["job"], 0.2) && Near(coverage["dataflow"], 0.2) &&
        Near(coverage["exec"], 0.6));

  // A disabled tracer records nothing.
  Tracer off(false);
  CHECK(off.Add("job", 0, 1, -1, 0) == -1 && off.spans().empty());
}

// Open-loop latency runs from the due time: a stall is charged to every
// request it delays, not only to the one that hit it.
void OpenLoopTimesFromDue() {
  const int64_t ms = 1000000;
  OpenLoopSchedule schedule(0, 100.0);  // one request every 10 ms
  CHECK(schedule.DueNs(0) == 0 && schedule.DueNs(3) == 30 * ms);
  // The server stalls for 50 ms at t=0, then serves each request in 1 ms.
  // Request i is sent on time but finishes at max(due, previous end) + 1 ms.
  int64_t server_free = 50 * ms;
  std::vector<double> latency_ms;
  for (int64_t i = 0; i < 8; ++i) {
    const int64_t start = std::max(schedule.DueNs(i), server_free);
    server_free = start + ms;
    latency_ms.push_back(static_cast<double>(schedule.LatencyNs(i, server_free)) / ms);
  }
  // Requests 0..4 were all due during the stall: 51, 42, 33, 24, 15 ms.
  CHECK(Near(latency_ms[0], 51.0) && Near(latency_ms[1], 42.0) && Near(latency_ms[4], 15.0));
  CHECK(Near(latency_ms[5], 6.0) && Near(latency_ms[6], 1.0));
  // Lateness is how late the generator sent, never negative.
  CHECK(schedule.LatenessNs(2, 25 * ms) == 5 * ms);
  CHECK(schedule.LatenessNs(2, 15 * ms) == 0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileKeepsTenSamplesBeyond();
  perfbench::QuartilesMatchPython();
  perfbench::SelfTimeSubtractsCoveredChildren();
  perfbench::OpenLoopTimesFromDue();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench statistics: all checks passed\n");
  return 0;
}
