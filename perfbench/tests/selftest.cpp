// Self-tests for the benchmark's own arithmetic on synthetic inputs.
// Run with `ctest --test-dir <build>` or directly; exits non-zero on the
// first failed expectation, naming it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arith.h"
#include "digest.h"
#include "spans.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

timeval tv(long sec, long usec) {
  timeval t{};
  t.tv_sec = sec;
  t.tv_usec = usec;
  return t;
}

void tail_percentile_needs_ten_samples_beyond() {
  using perfbench::supported_tail_percentile;
  EXPECT(!supported_tail_percentile(0).has_value());
  EXPECT(!supported_tail_percentile(19).has_value());  // p50 rank 10, 9 beyond
  EXPECT(supported_tail_percentile(20) == 50.0);
  EXPECT(supported_tail_percentile(99) == 50.0);   // p90 rank 90, 9 beyond
  EXPECT(supported_tail_percentile(100) == 90.0);  // p90 rank 90, 10 beyond
  EXPECT(supported_tail_percentile(999) == 90.0);  // p99 rank 990, 9 beyond
  EXPECT(supported_tail_percentile(1000) == 99.0);
  EXPECT(supported_tail_percentile(10000) == 99.9);
  EXPECT(supported_tail_percentile(100000) == 99.99);
}

void percentile_is_nearest_rank() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(near(perfbench::percentile(v, 50), 50));
  EXPECT(near(perfbench::percentile(v, 99), 99));
  EXPECT(near(perfbench::percentile(v, 100), 100));
  EXPECT(near(perfbench::percentile(std::vector<double>{7}, 99), 7));
  EXPECT(near(perfbench::percentile(std::vector<double>{}, 50), 0));
}

void histogram_percentile_within_one_percent() {
  perfbench::LogHistogram whole, low, high;
  EXPECT(whole.percentile(50) == 0);
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) {
    const double v = 0.5 * i;  // 0.5 .. 500
    sorted.push_back(v);
    whole.add(v);
    (i <= 500 ? low : high).add(v);
  }
  low.merge(high);
  EXPECT(whole.count() == 1000 && low.count() == 1000);
  for (const double p : {1.0, 50.0, 90.0, 99.0, 100.0}) {
    const double exact = perfbench::percentile(sorted, p);
    const double got = whole.percentile(p);
    EXPECT(got >= exact && got <= exact * 1.01 + 1e-9);
    EXPECT(low.percentile(p) == got);  // merging halves loses nothing
  }
  // Values beyond the range land in the end buckets.
  perfbench::LogHistogram edges;
  edges.add(0.0);
  edges.add(1e12);
  EXPECT(near(edges.percentile(50), perfbench::LogHistogram::kMin));
  EXPECT(edges.percentile(100) >= perfbench::LogHistogram::kMax);
}

void self_time_subtracts_covered_part_once() {
  using perfbench::Interval;
  using perfbench::self_time;
  EXPECT(self_time({0, 100}, {}) == 100);
  // Two disjoint children.
  EXPECT(self_time({0, 100}, {{10, 20}, {50, 80}}) == 60);
  // Overlapping children (spans recorded on different threads) count once.
  EXPECT(self_time({0, 100}, {{10, 40}, {30, 60}}) == 50);
  // A child nested in another child: covered by the outer one already.
  EXPECT(self_time({0, 100}, {{10, 60}, {20, 30}}) == 50);
  // Children sticking out of the parent are clipped to it.
  EXPECT(self_time({100, 200}, {{50, 120}, {190, 250}}) == 70);
  // Fully covered parent has no self time.
  EXPECT(self_time({0, 100}, {{0, 100}, {20, 40}}) == 0);
}

void nested_spans_reduce_to_self_times() {
  // dest [0,100) > trace [10,90) > sim [20,30), sim [40,60); feeder [0,5).
  using perfbench::Layer;
  using perfbench::Span;
  std::vector<Span> spans = {
      {1, 0, 0, 100, 0, Layer::kDest, 0, 0},
      {2, 1, 0, 5, 0, Layer::kFeeder, 0, 0},
      {3, 1, 10, 90, 0, Layer::kTrace, 0, 0},
      {4, 3, 20, 30, 0, Layer::kSim, 16, 0},
      {5, 3, 40, 60, 0, Layer::kSim, 16, 0},
  };
  perfbench::SpanSummary summary;
  summary.add(spans);
  EXPECT(summary[Layer::kDest].self_ns == 15);
  EXPECT(summary[Layer::kTrace].self_ns == 50);
  EXPECT(summary[Layer::kTrace].total_ns == 80);
  EXPECT(summary[Layer::kSim].self_ns == 30);
  EXPECT(summary[Layer::kSim].items == 32);
  EXPECT(summary[Layer::kFeeder].spans == 1);
  EXPECT(summary.root_ms.size() == 1);
}

void recorded_spans_nest_by_thread() {
  using perfbench::Layer;
  perfbench::Tracer tracer;
  {
    perfbench::Tracer::Scope outer(&tracer, Layer::kDest, 7);
    perfbench::Tracer::Scope inner(&tracer, Layer::kSim, 7, 3);
  }
  const auto spans = tracer.drain();
  EXPECT(spans.size() == 2);
  if (spans.size() == 2) {
    // Inner closes first.
    EXPECT(spans[0].layer == Layer::kSim && spans[1].layer == Layer::kDest);
    EXPECT(spans[0].parent == spans[1].id);
    EXPECT(spans[1].parent == 0);
    EXPECT(spans[0].dest == 7 && spans[0].items == 3);
    EXPECT(spans[1].start <= spans[0].start && spans[0].end <= spans[1].end);
  }
  EXPECT(tracer.drain().empty());
  // A null tracer records nothing and does not crash.
  perfbench::Tracer::Scope none(nullptr, Layer::kDest, 0);
}

void underfilled_sweep() {
  using perfbench::underfilled_time;
  // jobs = 2 over [0, 100): both run in [10, 60), one in [60, 80).
  EXPECT(underfilled_time({{10, 60}, {10, 80}}, {0, 100}, 2) == 50);
  // Back-to-back tasks on one worker leave no gap at the hand-over.
  EXPECT(underfilled_time({{0, 50}, {50, 100}, {0, 100}}, {0, 100}, 2) == 0);
  // Tasks are clipped to the window.
  EXPECT(underfilled_time({{0, 200}}, {50, 150}, 1) == 0);
  EXPECT(underfilled_time({{0, 200}}, {50, 150}, 2) == 100);
  // No tasks: the whole window is underfilled.
  EXPECT(underfilled_time({}, {0, 40}, 4) == 40);
  // Three overlapping on jobs = 2: full while >= 2 run.
  EXPECT(underfilled_time({{0, 30}, {10, 40}, {20, 50}}, {0, 50}, 2) == 20);
}

void cpu_per_probe_from_rusage_deltas() {
  rusage before{};
  rusage after{};
  before.ru_utime = tv(1, 500000);
  before.ru_stime = tv(0, 250000);
  after.ru_utime = tv(2, 0);        // +0.5 s user
  after.ru_stime = tv(0, 750000);   // +0.5 s sys
  EXPECT(near(perfbench::cpu_us(before, after), 1e6));
  EXPECT(near(perfbench::cpu_us_per_probe(before, after, 1000), 1000));
  EXPECT(near(perfbench::sys_cpu_share(before, after), 0.5));
  EXPECT(near(perfbench::cpu_us_per_probe(before, after, 0), 0));
  // Microsecond carry across the second boundary.
  before.ru_utime = tv(0, 999999);
  before.ru_stime = tv(0, 0);
  after.ru_utime = tv(1, 1);
  after.ru_stime = tv(0, 0);
  EXPECT(near(perfbench::cpu_us_per_probe(before, after, 2), 1));
  EXPECT(near(perfbench::sys_cpu_share(before, after), 0));
}

void digest_ignores_chunking_and_checks_order() {
  const std::string text =
      "{\"index\":0,\"destination\":\"a\"}\n{\"index\":1,\"x\":2}\n";
  perfbench::JsonlDigest whole;
  whole.stream() << text;
  perfbench::JsonlDigest bytewise;
  for (const char c : text) bytewise.stream().put(c);
  perfbench::JsonlDigest split;
  split.stream() << text.substr(0, 13) << text.substr(13);
  EXPECT(whole.digest() == bytewise.digest());
  EXPECT(whole.digest() == split.digest());
  EXPECT(whole.digest().lines == 2 && whole.digest().bytes == text.size());
  EXPECT(whole.order_error(2).empty());
  EXPECT(!whole.order_error(3).empty());  // a line missing

  perfbench::JsonlDigest changed;
  std::string other = text;
  other[20] = 'b';
  changed.stream() << other;
  EXPECT(!(changed.digest() == whole.digest()));

  perfbench::JsonlDigest swapped;
  swapped.stream() << "{\"index\":1,}\n{\"index\":0,}\n";
  EXPECT(!swapped.order_error(2).empty());
  perfbench::JsonlDigest unterminated;
  unterminated.stream() << "{\"index\":0,}";
  EXPECT(!unterminated.order_error(0).empty());
}

}  // namespace

int main() {
  tail_percentile_needs_ten_samples_beyond();
  percentile_is_nearest_rank();
  histogram_percentile_within_one_percent();
  self_time_subtracts_covered_part_once();
  nested_spans_reduce_to_self_times();
  recorded_spans_nest_by_thread();
  underfilled_sweep();
  cpu_per_probe_from_rusage_deltas();
  digest_ignores_chunking_and_checks_order();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench selftest: all passed\n");
  return EXIT_SUCCESS;
}
