// Benchmark-side spans: name, start, end, parent and job id, recorded in
// memory around every call the benchmark makes into a layer and written out
// at exit as Chrome trace JSON. A span's layer is its name up to the first
// '.', so "dataflow.run_stage" belongs to the dataflow layer.
//
// The engine reports its phase times (compute / GC / ser / deser) as totals
// per call, not as intervals; AddPhaseChildren records them as child spans
// packed from the start of the call that produced them, so the self-time
// rule can subtract them from that call. Their placement inside the call is
// nominal; their durations are measured.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/stats.h"
#include "src/support/metrics.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list; -1 for a job's root span
  int64_t job = 0;
  size_t thread = 0;
};

inline std::string LayerOf(const std::string& name) { return name.substr(0, name.find('.')); }

// Thread-safe span store. A disabled tracer records nothing and every call
// returns at its first test, so untraced runs pay one branch per site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Records a finished span and returns its index (-1 when disabled).
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns, int parent, int64_t job) {
    if (!enabled_) {
      return -1;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, job,
                          std::hash<std::thread::id>()(std::this_thread::get_id())});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Opens a span whose end is filled in by Close (for parents that must
  // exist before their children are recorded).
  int Open(const std::string& name, int64_t start_ns, int parent, int64_t job) {
    return Add(name, start_ns, start_ns, parent, job);
  }
  void Close(int id, int64_t end_ns) {
    if (!enabled_ || id < 0) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = end_ns;
  }

  // Child spans for one engine call's phase-time delta (see file comment).
  void AddPhaseChildren(int call, const gerenuk::PhaseTimes& delta, int64_t job) {
    if (!enabled_ || call < 0) {
      return;
    }
    static const char* const kPhaseSpans[4] = {"exec.compute", "runtime.gc", "serde.ser",
                                               "serde.deser"};
    int64_t start = 0;
    int64_t end = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      start = spans_[static_cast<size_t>(call)].start_ns;
      end = spans_[static_cast<size_t>(call)].end_ns;
    }
    for (int p = 0; p < 4; ++p) {
      const int64_t ns = delta.nanos[p];
      if (ns > 0) {
        const int64_t stop = std::min(end, start + ns);
        Add(kPhaseSpans[p], start, stop, call, job);
        start = stop;
      }
    }
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Self time of every span (same order as spans()).
  static std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
    std::vector<std::vector<Interval>> children(spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        children[static_cast<size_t>(s.parent)].push_back(Interval{s.start_ns, s.end_ns});
      }
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      self[i] = SelfTime(Interval{spans[i].start_ns, spans[i].end_ns}, children[i]);
    }
    return self;
  }

  // Per layer: summed self time over the summed wall time of the root
  // ("job") spans. The job layer's own share is time no layer call covers.
  static std::map<std::string, double> LayerCoverage(const std::vector<Span>& spans) {
    std::vector<int64_t> self = SelfTimes(spans);
    std::map<std::string, int64_t> by_layer;
    int64_t job_wall = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      by_layer[LayerOf(spans[i].name)] += self[i];
      if (spans[i].parent < 0) {
        job_wall += spans[i].end_ns - spans[i].start_ns;
      }
    }
    std::map<std::string, double> coverage;
    for (const auto& [layer, ns] : by_layer) {
      coverage[layer] =
          job_wall > 0 ? static_cast<double>(ns) / static_cast<double>(job_wall) : 0.0;
    }
    return coverage;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds). Returns
  // false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::vector<Span> spans = this->spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (const Span& s : spans) {
      origin = std::min(origin, s.start_ns);
    }
    std::map<size_t, int> tids;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      int tid = tids.emplace(s.thread, static_cast<int>(tids.size()) + 1).first->second;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"job\":%lld}}",
                   i == 0 ? "" : ",", s.name.c_str(), LayerOf(s.name).c_str(), tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   static_cast<long long>(s.job));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span around one call: opens at construction, closes at Done() or
// destruction. `id()` is the parent for spans recorded inside the call.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const std::string& name, int parent, int64_t job)
      : tracer_(tracer), start_ns_(NowNs()), id_(tracer.Open(name, start_ns_, parent, job)) {}
  ~SpanScope() { Done(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Closes the span (idempotent) and returns its duration in nanoseconds.
  int64_t Done() {
    if (end_ns_ == 0) {
      end_ns_ = NowNs();
      tracer_.Close(id_, end_ns_);
    }
    return end_ns_ - start_ns_;
  }
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t start_ns_;
  int id_;
  int64_t end_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
