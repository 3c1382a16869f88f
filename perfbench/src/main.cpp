// perfbench: one workload, one seed, one process.
//
//   perfbench --workload <ip_fleet|ip_fleet_merged|router_survey|loopback_wire>
//             --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// Prints a full report line and then, as the last stdout line, the
// result object. Exits 0 when every output check passed, 1 when one
// failed, 77 when the workload cannot run on this host, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  try {
    if (options.workload == "ip_fleet" ||
        options.workload == "ip_fleet_merged" ||
        options.workload == "router_survey") {
      return perfbench::print(perfbench::run_survey(options));
    }
    if (options.workload == "loopback_wire") {
      return perfbench::print(perfbench::run_wire(options));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage("unknown --workload");
}
