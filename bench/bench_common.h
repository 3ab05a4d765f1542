// Shared helpers for the benchmark harnesses: each bench binary regenerates
// one table or figure of the paper (see DESIGN.md's per-experiment index)
// and prints the corresponding rows.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/support/metrics.h"

namespace gerenuk {
namespace bench {

inline void PrintHeader(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

// Minimal streaming JSON emitter for machine-readable bench results
// (BENCH_*.json) so future PRs can diff a perf trajectory instead of
// re-reading prose. Usage mirrors the document structure:
//
//   JsonWriter j("BENCH_plans.json");
//   j.BeginObject();
//   j.Field("records_per_sec", 1.2e6);
//   j.BeginArray("op_mix");
//     j.BeginObject(); j.Field("op", "kBinOp"); j.Field("count", 42); j.End();
//   j.End();
//   j.End();
//
// Keys and string values are escaped only for quote/backslash/control
// characters — all this repo emits.
class JsonWriter {
 public:
  explicit JsonWriter(const std::string& path) : file_(std::fopen(path.c_str(), "w")) {}
  ~JsonWriter() {
    if (file_ != nullptr) {
      std::fprintf(file_, "\n");
      std::fclose(file_);
    }
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  bool ok() const { return file_ != nullptr; }

  void BeginObject(const char* key = nullptr) { Open(key, '{', '}'); }
  void BeginArray(const char* key = nullptr) { Open(key, '[', ']'); }
  void End() {
    char closer = stack_.back();
    stack_.pop_back();
    std::fprintf(file_, "%c", closer);
    first_ = false;
  }

  void Field(const char* key, double v) {
    Prefix(key);
    std::fprintf(file_, "%.6g", v);
  }
  void Field(const char* key, int64_t v) {
    Prefix(key);
    std::fprintf(file_, "%lld", static_cast<long long>(v));
  }
  void Field(const char* key, int v) { Field(key, static_cast<int64_t>(v)); }
  void Field(const char* key, const char* v) {
    Prefix(key);
    WriteString(v);
  }
  void Field(const char* key, const std::string& v) { Field(key, v.c_str()); }

 private:
  void Open(const char* key, char opener, char closer) {
    Prefix(key);
    std::fprintf(file_, "%c", opener);
    stack_.push_back(closer);
    first_ = true;
  }
  void Prefix(const char* key) {
    if (!first_) {
      std::fprintf(file_, ",");
    }
    first_ = false;
    if (key != nullptr) {
      WriteString(key);
      std::fprintf(file_, ":");
    }
  }
  void WriteString(const char* s) {
    std::fprintf(file_, "\"");
    for (; *s != '\0'; ++s) {
      unsigned char c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\') {
        std::fprintf(file_, "\\%c", c);
      } else if (c < 0x20) {
        std::fprintf(file_, "\\u%04x", c);
      } else {
        std::fprintf(file_, "%c", c);
      }
    }
    std::fprintf(file_, "\"");
  }

  std::FILE* file_;
  std::vector<char> stack_;
  bool first_ = true;
};

// One stacked-bar row of Figure 6: per-phase milliseconds.
inline void PrintPhaseRow(const std::string& label, const PhaseTimes& times) {
  std::printf("%-26s total=%8.1fms  compute=%8.1f  gc=%7.1f  ser=%7.1f  deser=%7.1f\n",
              label.c_str(), times.TotalMillis(), times.Millis(Phase::kCompute),
              times.Millis(Phase::kGc), times.Millis(Phase::kSerialize),
              times.Millis(Phase::kDeserialize));
}

// The wall clock of one program next to its PhaseTimes sum: phases cover
// only the engine's instrumented work, so the gap is everything else (input
// sourcing, driver-side collection, scheduling).
inline void PrintWallRow(const std::string& label, double wall_ms, const PhaseTimes& times) {
  std::printf("%-26s wall=%9.1fms  phases=%8.1fms (%3.0f%% of wall)\n", label.c_str(), wall_ms,
              times.TotalMillis(), 100.0 * times.TotalMillis() / wall_ms);
}

inline void PrintSpeedup(const char* label, double baseline_ms, double gerenuk_ms) {
  std::printf("%-26s speedup = %.2fx (baseline %.1fms / gerenuk %.1fms)\n", label,
              baseline_ms / gerenuk_ms, baseline_ms, gerenuk_ms);
}

}  // namespace bench
}  // namespace gerenuk

#endif  // BENCH_BENCH_COMMON_H_
