#include "arith.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  // The epsilon keeps p * n / 100 that is integral in exact arithmetic
  // (99.9% of 10000) from rounding up a rank in floating point.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

double percentile(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 50);
}

namespace {

constexpr double kBucketRatio = 1.01;

std::size_t bucket_of(double value) {
  if (!(value > LogHistogram::kMin)) return 0;
  return static_cast<std::size_t>(
      std::ceil(std::log(value / LogHistogram::kMin) / std::log(kBucketRatio)));
}

}  // namespace

LogHistogram::LogHistogram() : buckets_(bucket_of(kMax) + 1, 0) {}

void LogHistogram::add(double value) {
  ++buckets_[std::min(bucket_of(value), buckets_.size() - 1)];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const std::size_t rank = nearest_rank(count_, p);
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i + 1 < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) break;
  }
  return kMin * std::pow(kBucketRatio, static_cast<double>(i));
}

std::optional<double> supported_tail_percentile(std::size_t n) {
  std::optional<double> best;
  if (n == 0) return best;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (n - nearest_rank(n, p) >= 10) best = p;
  }
  return best;
}

std::uint64_t self_time(Interval parent, std::vector<Interval> children) {
  const std::uint64_t duration =
      parent.end > parent.start ? parent.end - parent.start : 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.start;  // covered up to here so far
  for (const auto& child : children) {
    const std::uint64_t start = std::max(child.start, reach);
    const std::uint64_t end = std::min(child.end, parent.end);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return duration - std::min(covered, duration);
}

std::uint64_t underfilled_time(std::vector<Interval> tasks, Interval window,
                               int jobs) {
  if (window.end <= window.start) return 0;
  // +1 at each clipped start, -1 at each clipped end; ends sort before
  // starts at the same instant so back-to-back tasks leave no gap.
  std::vector<std::pair<std::uint64_t, int>> events;
  events.reserve(tasks.size() * 2);
  for (const auto& task : tasks) {
    const std::uint64_t start = std::max(task.start, window.start);
    const std::uint64_t end = std::min(task.end, window.end);
    if (end <= start) continue;
    events.emplace_back(start, +1);
    events.emplace_back(end, -1);
  }
  std::sort(events.begin(), events.end());
  std::uint64_t underfilled = 0;
  std::uint64_t cursor = window.start;
  int running = 0;
  for (const auto& [at, delta] : events) {
    if (running < jobs) underfilled += at - cursor;
    cursor = at;
    running += delta;
  }
  if (running < jobs) underfilled += window.end - cursor;
  return underfilled;
}

rusage usage_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double cpu_us(const rusage& before, const rusage& after) {
  const double user = seconds_of(after.ru_utime) - seconds_of(before.ru_utime);
  const double sys = seconds_of(after.ru_stime) - seconds_of(before.ru_stime);
  return (user + sys) * 1e6;
}

double cpu_us_per_probe(const rusage& before, const rusage& after,
                        std::uint64_t probes) {
  if (probes == 0) return 0.0;
  return cpu_us(before, after) / static_cast<double>(probes);
}

double sys_cpu_share(const rusage& before, const rusage& after) {
  const double total = cpu_us(before, after);
  if (total <= 0.0) return 0.0;
  const double sys =
      (seconds_of(after.ru_stime) - seconds_of(before.ru_stime)) * 1e6;
  return sys / total;
}

}  // namespace perfbench
