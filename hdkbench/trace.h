// In-memory span recorder of the traced benchmark run. Spans are recorded
// only by the benchmark's own (single-threaded) code around its calls into
// the library, kept in memory, and written out once at the end.
#ifndef HDKBENCH_TRACE_H_
#define HDKBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hdkbench {

inline constexpr int32_t kNoSpan = -1;

/// One timed interval. `name` points at a string literal; `id` groups the
/// spans of one query or one membership event; `parent` is the index of
/// the enclosing span (kNoSpan for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = kNoSpan;
  uint64_t id = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == kNoSpan) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (lo < hi) {
      children[static_cast<size_t>(span.parent)].push_back({lo, hi});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

/// Records spans when enabled; every call is a no-op otherwise.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name, uint64_t id, int32_t parent = kNoSpan) {
    if (!enabled_) return kNoSpan;
    spans_.push_back(Span{name, Now(), 0, parent, id});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t span) {
    if (span != kNoSpan) spans_[static_cast<size_t>(span)].end_ns = Now();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations and of self times of every span named `name`, in
  /// seconds.
  struct Aggregate {
    double total_s = 0.0;
    double self_s = 0.0;
  };
  Aggregate Summarize(std::string_view name) const {
    const std::vector<int64_t> self = SelfTimes(spans_);
    Aggregate agg;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (name != spans_[i].name) continue;
      agg.total_s += static_cast<double>(spans_[i].duration_ns()) * 1e-9;
      agg.self_s += static_cast<double>(self[i]) * 1e-9;
    }
    return agg;
  }

  /// Writes one JSON object per span (name, start_ns, end_ns, parent,
  /// id) to `path`. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %d, \"id\": %llu}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.id));
    }
    return std::fclose(out) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Begins a span on construction and ends it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t id,
             int32_t parent = kNoSpan)
      : tracer_(tracer), index_(tracer.Begin(name, id, parent)) {}
  ~ScopedSpan() { tracer_.End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  int32_t index_;
};

}  // namespace hdkbench

#endif  // HDKBENCH_TRACE_H_
