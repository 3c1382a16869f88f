// The benchmark's own arithmetic, kept free of program types so the
// self-tests can drive it with synthetic inputs: percentile support,
// span self time, the underfilled-worker sweep, CPU per probe and a
// fixed-memory histogram.
#ifndef PERFBENCH_ARITH_H
#define PERFBENCH_ARITH_H

#include <sys/resource.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

/// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`;
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::span<const double> sorted, double p);

/// Median (nearest rank) of an unsorted sample; 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// A sample of positive values in fixed memory, for samples that grow
/// with the run (a run's peak RSS must not count the benchmark's own
/// storage). Buckets are 1% wide on a log scale from kMin to kMax; a
/// value outside counts in the end bucket. A percentile is the nearest
/// rank's bucket read as its upper edge: at most 1% above the value.
class LogHistogram {
 public:
  static constexpr double kMin = 0.1;
  static constexpr double kMax = 1e7;

  LogHistogram();
  void add(double value);
  void merge(const LogHistogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Nearest-rank percentile `p` (0 < p <= 100); 0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// The highest of the reported percentiles (p50, p90, p99, p99.9, p99.99)
/// that leaves at least ten samples above its nearest rank in a sample of
/// `n`; nullopt when not even the median does.
[[nodiscard]] std::optional<double> supported_tail_percentile(std::size_t n);

/// `parent`'s duration minus the part of it covered by the union of
/// `children` (clipped to the parent; overlapping children count once).
[[nodiscard]] std::uint64_t self_time(Interval parent,
                                      std::vector<Interval> children);

/// Time inside `window` during which fewer than `jobs` of `tasks` run.
[[nodiscard]] std::uint64_t underfilled_time(std::vector<Interval> tasks,
                                             Interval window, int jobs);

/// getrusage(RUSAGE_SELF): every thread of the process.
[[nodiscard]] rusage usage_now();

/// User+system CPU consumed between two getrusage() readings, in
/// microseconds per probe; 0 when no probe was sent.
[[nodiscard]] double cpu_us_per_probe(const rusage& before,
                                      const rusage& after,
                                      std::uint64_t probes);

/// System CPU as a share of user+system between two readings.
[[nodiscard]] double sys_cpu_share(const rusage& before, const rusage& after);

/// Microseconds of user+system CPU between two readings.
[[nodiscard]] double cpu_us(const rusage& before, const rusage& after);

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H
