// One run's result: the context it ran in, the output checks, and the
// metrics. Printed as two stdout lines: a full report (every metric with
// its sample count, the run context, any skip reason or failed check),
// then the one-line result whose metric set is exactly BENCHMARK.json's.
#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< 0: not a sampled quantity
};

struct RunReport {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  int jobs = 1;
  int window = 16;
  unsigned nproc = 0;
  std::string backend;  ///< "sim", or the resolved wire backend
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Set when the workload cannot run here; no metric is reported then.
  std::string skipped;
  /// The BENCHMARK.json metric set (end-to-end or per-layer).
  std::vector<Metric> result;
  /// Everything else the run measured, reported but not gated.
  std::vector<Metric> extra;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  [[nodiscard]] bool correct() const {
    return check_failures.empty() && failed == 0 && skipped.empty();
  }
};

/// Per-layer figures a traced run gathers. Every workload reports the
/// same metric set; a layer the workload does not cross reads 0.
struct LayerFigures {
  double dests = 0;   ///< destinations (surveys) traced
  double probes = 0;  ///< probes resolved
  double windows = 0;  ///< wire windows
  double feeder_ns = 0;
  double busy_ns = 0;        ///< summed kDest + kJoin span time
  double run_ns = 0;         ///< summed batch wall time
  double underfilled_ns = 0;
  int jobs = 1;
  double hub_self_ns = 0;
  double hub_bursts = 0;
  double hub_probes = 0;
  double hub_merged_bursts = 0;
  double sink_ns = 0;
  double sim_ns = 0;
  double sim_build_ns = 0;
  double tracer_self_ns = 0;
  double multilevel_self_ns = 0;
  double dest_ms_p50 = 0;
  double dest_ms_p99 = 0;
  double json_ns = 0;
  double merge_ns = 0;
  double alias_probes = 0;
  double alias_rounds = 0;
  double engine_submits = 0;
  double engine_submitted = 0;
  int window = 16;
  double submit_ns = 0;
  double poll_ns = 0;
  double polls = 0;
  double kernel_calls = 0;
  double sys_cpu_share = 0;
  double build_ns = 0;
  double parse_ns = 0;
  double replies_parsed = 0;
  double traced_wall_per_unit_ns = 0;    ///< per destination or window
  double untraced_wall_per_unit_ns = 0;
  double root_self_ns = 0;   ///< kDest + kJoin / kWindow self time
  double root_total_ns = 0;
  double named_self_ns = 0;  ///< every named layer's self time
  double cpu_us_per_probe = 0;
};

/// The per-layer metric set of BENCHMARK.json, in its order.
[[nodiscard]] std::vector<Metric> layer_metrics(const LayerFigures& f);

/// Summed per-layer self time per probe over the traced CPU per probe:
/// 1 when the layers account for the CPU exactly, above 1 where layers
/// block (wall time that is not CPU), below 1 where CPU escapes them.
[[nodiscard]] double layer_sum_cpu_ratio(const LayerFigures& f);

/// Print the report line and, unless the run was skipped, the result
/// line. Returns the process exit code: 0 when every check passed.
int print(const RunReport& report);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H
