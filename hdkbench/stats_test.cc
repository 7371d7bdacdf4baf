// Tests of the benchmark's own statistics: median, nearest-rank
// percentiles, the highest supported percentile, the failure share and
// span self time. Exits non-zero on the first failed expectation; run.py
// --selftest builds and runs it.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

std::vector<double> Range(int n) {  // n, n-1, ..., 1 (unsorted input)
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

void TestMedian() {
  using hdkbench::Median;
  EXPECT(Median({}) == 0.0);
  EXPECT(Median({7}) == 7.0);
  EXPECT(Median({3, 1, 2}) == 2.0);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  EXPECT(Median({5, 5, 1, 9}) == 5.0);
  EXPECT(hdkbench::Mean({1, 2, 3, 6}) == 3.0);
  EXPECT(hdkbench::Mean({}) == 0.0);
}

void TestPercentile() {
  using hdkbench::Percentile;
  using hdkbench::SamplesBeyond;
  const std::vector<double> thousand = Range(1000);
  EXPECT(Percentile(thousand, 50) == 500.0);
  EXPECT(Percentile(thousand, 99) == 990.0);
  EXPECT(Percentile(thousand, 99.9) == 999.0);
  EXPECT(Percentile(thousand, 100) == 1000.0);
  EXPECT(SamplesBeyond(99, 1000) == 10);
  EXPECT(SamplesBeyond(99, 999) == 9);
  EXPECT(Percentile({42}, 99) == 42.0);
  EXPECT(Percentile({}, 99) == 0.0);
  EXPECT(Percentile(Range(10), 10) == 1.0);
}

void TestHighestSupportedPercentile() {
  using hdkbench::HighestSupportedPercentile;
  // 1,000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
  auto tail = HighestSupportedPercentile(Range(1000));
  EXPECT(tail.q == 99.0);
  EXPECT(tail.value == 990.0);
  EXPECT(tail.samples == 1000);
  EXPECT(tail.beyond == 10);
  // 999 samples fall back to p90.
  tail = HighestSupportedPercentile(Range(999));
  EXPECT(tail.q == 90.0);
  EXPECT(tail.samples == 999);
  EXPECT(tail.beyond >= 10);
  // 10,000 samples support p99.9.
  tail = HighestSupportedPercentile(Range(10000));
  EXPECT(tail.q == 99.9);
  EXPECT(tail.beyond == 10);
  // Too few samples for even the median.
  tail = HighestSupportedPercentile(Range(15));
  EXPECT(tail.q == 0.0);
  EXPECT(tail.samples == 15);
  tail = HighestSupportedPercentile({});
  EXPECT(tail.q == 0.0 && tail.samples == 0);
}

void TestFailureShare() {
  using hdkbench::FailureShare;
  EXPECT(FailureShare(0, 0) == 0.0);
  EXPECT(FailureShare(0, 100) == 0.0);
  EXPECT(FailureShare(1, 4) == 0.25);
  EXPECT(FailureShare(3, 3) == 1.0);
}

void TestSelfTimes() {
  using hdkbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping: 40 ns
  // covered) and [60,70); the first child has a grandchild [12,18).
  const std::vector<Span> spans = {
      {"root", 0, 100, hdkbench::kNoSpan, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},
      {"c", 60, 70, 0, 1},
      {"a.child", 12, 18, 1, 1},
  };
  const std::vector<int64_t> self = hdkbench::SelfTimes(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 10);
  EXPECT(self[4] == 6);
}

}  // namespace

int main() {
  TestMedian();
  TestPercentile();
  TestHighestSupportedPercentile();
  TestFailureShare();
  TestSelfTimes();
  if (g_failures == 0) std::printf("stats_test: all expectations hold\n");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
