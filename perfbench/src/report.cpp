#include "report.h"

#include <cstdio>

#include "common/json.h"

namespace perfbench {

namespace {

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void write_metrics(mmlpt::JsonWriter& w, const std::vector<Metric>& metrics,
                   bool with_samples) {
  w.begin_object();
  for (const auto& metric : metrics) {
    w.key(metric.name);
    w.begin_object();
    w.key("value");
    w.value(metric.value);
    w.key("unit");
    w.value(metric.unit);
    if (with_samples && metric.samples != 0) {
      w.key("samples");
      w.value(metric.samples);
    }
    w.end_object();
  }
  w.end_object();
}

void write_strings(mmlpt::JsonWriter& w,
                   const std::vector<std::string>& items) {
  w.begin_array();
  for (const auto& item : items) w.value(item);
  w.end_array();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double layer_sum_cpu_ratio(const LayerFigures& f) {
  return ratio(ratio(f.named_self_ns, f.probes) / 1e3, f.cpu_us_per_probe);
}

std::vector<Metric> layer_metrics(const LayerFigures& f) {
  const double layer_sum_us = ratio(f.named_self_ns, f.probes) / 1e3;
  const double cpu_ratio = layer_sum_cpu_ratio(f);
  const double overhead =
      f.untraced_wall_per_unit_ns > 0
          ? f.traced_wall_per_unit_ns / f.untraced_wall_per_unit_ns - 1.0
          : 0.0;
  return {
      {"survey.feeder_us_per_dest", ratio(f.feeder_ns, f.dests) / 1e3, "us"},
      {"orchestrator.worker_busy_share",
       ratio(f.busy_ns, f.jobs * f.run_ns), "share"},
      {"orchestrator.underfilled_s", f.underfilled_ns / 1e9, "s"},
      {"orchestrator.underfilled_share", ratio(f.underfilled_ns, f.run_ns),
       "share"},
      {"orchestrator.hub_ns_per_probe", ratio(f.hub_self_ns, f.probes), "ns"},
      {"orchestrator.hub_probes_per_burst", ratio(f.hub_probes, f.hub_bursts),
       "probes"},
      {"orchestrator.hub_merged_burst_share",
       ratio(f.hub_merged_bursts, f.hub_bursts), "share"},
      {"orchestrator.sink_us_per_dest", ratio(f.sink_ns, f.dests) / 1e3, "us"},
      {"fakeroute.sim_ns_per_probe", ratio(f.sim_ns, f.probes), "ns"},
      {"fakeroute.build_us_per_dest", ratio(f.sim_build_ns, f.dests) / 1e3,
       "us"},
      {"core.tracer_ns_per_probe", ratio(f.tracer_self_ns, f.probes), "ns"},
      {"core.multilevel_ns_per_probe", ratio(f.multilevel_self_ns, f.probes),
       "ns"},
      {"core.dest_ms_p50", f.dest_ms_p50, "ms"},
      {"core.dest_ms_p99", f.dest_ms_p99, "ms"},
      {"core.json_us_per_dest", ratio(f.json_ns, f.dests) / 1e3, "us"},
      {"survey.merge_us_per_dest", ratio(f.merge_ns, f.dests) / 1e3, "us"},
      {"alias.probe_share", ratio(f.alias_probes, f.probes), "share"},
      {"alias.rounds_per_dest", ratio(f.alias_rounds, f.dests), "count"},
      {"probe.rounds_per_dest",
       ratio(f.engine_submits, f.dests > 0 ? f.dests : f.windows), "count"},
      {"probe.window_fill",
       ratio(f.engine_submitted, f.engine_submits * f.window), "share"},
      {"probe.submit_ns_per_probe", ratio(f.submit_ns, f.probes), "ns"},
      {"probe.poll_ns_per_probe", ratio(f.poll_ns, f.probes), "ns"},
      {"probe.polls_per_window", ratio(f.polls, f.windows), "count"},
      {"probe.kernel_calls_per_probe", ratio(f.kernel_calls, f.probes),
       "count"},
      {"probe.sys_cpu_share", f.sys_cpu_share, "share"},
      {"net.build_ns_per_probe", ratio(f.build_ns, f.probes), "ns"},
      {"net.parse_reply_ns_per_reply", ratio(f.parse_ns, f.replies_parsed),
       "ns"},
      {"trace.overhead_share", overhead, "share"},
      {"trace.unattributed_share", ratio(f.root_self_ns, f.root_total_ns),
       "share"},
      {"trace.layer_sum_us_per_probe", layer_sum_us, "us"},
      {"trace.cpu_us_per_probe", f.cpu_us_per_probe, "us"},
      {"trace.layer_sum_within_10pct",
       cpu_ratio >= 0.9 && cpu_ratio <= 1.1 ? 1.0 : 0.0, "bool"},
  };
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and so
  // would report the launching process's peak when that was larger.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

int print(const RunReport& report) {
  mmlpt::JsonWriter line;
  line.begin_object();
  line.key("workload");
  line.value(report.workload);
  line.key("seed");
  line.value(report.seed);
  line.key("trace");
  line.value(std::uint64_t{report.traced ? 1U : 0U});
  line.key("jobs");
  line.value(static_cast<std::int64_t>(report.jobs));
  line.key("window");
  line.value(static_cast<std::int64_t>(report.window));
  line.key("nproc");
  line.value(std::uint64_t{report.nproc});
  line.key("backend");
  line.value(report.backend);
  line.key("compiler");
  line.value(PERFBENCH_COMPILER);
  line.key("build_type");
  line.value(PERFBENCH_BUILD_TYPE);
  line.key("attempted");
  line.value(report.attempted);
  line.key("failed");
  line.value(report.failed);
  line.key("check_failures");
  write_strings(line, report.check_failures);
  if (!report.skipped.empty()) {
    line.key("skipped");
    line.value(report.skipped);
  } else {
    std::vector<Metric> all = report.result;
    all.insert(all.end(), report.extra.begin(), report.extra.end());
    line.key("metrics");
    write_metrics(line, all, /*with_samples=*/true);
  }
  line.key("notes");
  write_strings(line, report.notes);
  line.end_object();
  std::printf("perfbench-report %s\n", line.view().c_str());

  if (!report.skipped.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s skipped: %s\n",
                 report.workload.c_str(), report.skipped.c_str());
    return 77;
  }
  for (const auto& failure : report.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  mmlpt::JsonWriter result;
  result.begin_object();
  result.key("correct");
  result.value(report.correct());
  result.key("attempted");
  result.value(report.attempted);
  result.key("failed");
  result.value(report.failed);
  result.key("metrics");
  write_metrics(result, report.result, /*with_samples=*/false);
  result.end_object();
  std::printf("%s\n", result.view().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench
