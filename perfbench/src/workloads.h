// The four workloads. Each runs closed-loop in this process for
// `seconds` of measured time; with `trace` set it runs the traced
// recomposition instead and reports per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span file; empty = not written.
  std::string spans_out;
};

/// ip_fleet, ip_fleet_merged and router_survey.
[[nodiscard]] RunReport run_survey(const Options& options);

/// loopback_wire.
[[nodiscard]] RunReport run_wire(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
