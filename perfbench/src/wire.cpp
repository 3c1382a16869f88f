// loopback_wire: the real backends on real kernel sockets. One thread
// sends closed-port UDP probes 127.0.0.1 -> 127.0.0.1 in windows of 16
// with one ticket in flight; the kernel answers each with an ICMP port
// unreachable, which the backend's ReplyAttributor must hand back to the
// right slot exactly once.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <memory>
#include <thread>

#include "net/packet.h"
#include "probe/io_uring_network.h"
#include "probe/network.h"
#include "probe/raw_socket_network.h"
#include "probe/transport_select.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

using namespace mmlpt;

namespace {

constexpr std::size_t kWindow = 16;
constexpr double kUntracedShare = 0.25;
constexpr std::chrono::milliseconds kReplyTimeout{1000};
/// The untraced run is split into phases of this length, each on a fresh
/// backend driven from a fresh thread. Where the scheduler places the
/// sending thread and the kernel's share of the work moves loopback
/// throughput by up to 2x (bimodal on a 4-vCPU VM); a run that stayed in
/// one placement would report that placement. Rates are totals over all
/// phases, i.e. the mean over placements.
constexpr std::uint64_t kPhaseNs = 500'000'000;

/// A UDP port nothing listens on: bind an ephemeral port, then release
/// it. The kernel answers datagrams to it with ICMP port unreachable.
std::uint16_t closed_udp_port() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return 48879;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  std::uint16_t port = 48879;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// Backend syscall counters: sendmmsg + recvmmsg + poll for the poll
/// backend, io_uring_enter for the ring.
std::uint64_t kernel_calls(const probe::Network& network) {
  if (const auto* raw = dynamic_cast<const probe::RawSocketNetwork*>(&network)) {
    const auto stats = raw->stats();
    return stats.sendmmsg_calls + stats.recvmmsg_calls + stats.poll_calls;
  }
  if (const auto* ring = dynamic_cast<const probe::IoUringNetwork*>(&network)) {
    return ring->stats().enters;
  }
  return 0;
}

struct WireTotals {
  std::uint64_t windows = 0;
  std::uint64_t probes = 0;
  std::uint64_t failed = 0;  ///< unanswered, duplicate or misattributed
  std::uint64_t wall_ns = 0;
  std::uint64_t kernel_calls = 0;
  LogHistogram window_us;
  double cpu_us = 0;
  rusage before{};
  rusage after{};
  std::string error;
};

/// Closed loop for `budget_ns` of wall time. Probe k of the run carries
/// source port 20000 + (seed + k) % 40000 and IP-ID seed + k, so the
/// inputs follow from the seed alone.
WireTotals drive(probe::Network& network, std::uint64_t seed,
                 std::uint16_t dst_port, std::uint64_t budget_ns,
                 std::uint64_t& next_probe, probe::Ticket& next_ticket,
                 Tracer* tracer) {
  WireTotals totals;
  const auto loopback = net::IpAddress::parse_or_throw("127.0.0.1");
  TimedQueue queue(network, tracer, Layer::kSubmit, Layer::kPoll, -1);
  std::vector<probe::Datagram> window(kWindow);
  std::array<std::uint16_t, kWindow> src_ports{};
  std::array<int, kWindow> resolved{};
  const std::uint64_t calls_before = kernel_calls(network);
  totals.before = usage_now();
  const std::uint64_t start = now_ns();
  while (now_ns() - start < budget_ns) {
    const auto index = static_cast<std::int64_t>(totals.windows);
    Tracer::Scope window_span(tracer, Layer::kWindow, index);
    {
      Tracer::Scope span(tracer, Layer::kBuild, index, kWindow);
      for (std::size_t slot = 0; slot < kWindow; ++slot, ++next_probe) {
        net::ProbeSpec spec;
        spec.src = loopback;
        spec.dst = loopback;
        src_ports[slot] =
            static_cast<std::uint16_t>(20000 + (seed + next_probe) % 40000);
        spec.src_port = src_ports[slot];
        spec.dst_port = dst_port;
        spec.ttl = 64;
        spec.ip_id = static_cast<std::uint16_t>(seed + next_probe);
        window[slot].bytes = net::build_udp_probe(spec);
        window[slot].at = 0;
      }
    }
    resolved.fill(0);
    const probe::Ticket ticket = next_ticket++;
    const std::uint64_t submitted_at = now_ns();
    queue.submit(window, ticket);
    std::size_t done = 0;
    while (done < kWindow) {
      auto completions = queue.poll_completions();
      if (completions.empty()) {
        totals.error = "poll_completions returned empty with slots pending";
        break;
      }
      Tracer::Scope span(tracer, Layer::kParse, index);
      for (const auto& completion : completions) {
        if (completion.ticket != ticket || completion.slot >= kWindow ||
            resolved[completion.slot]++ != 0) {
          ++totals.failed;  // foreign, out-of-range or repeated slot
          continue;
        }
        ++done;
        if (!completion.reply) {
          ++totals.failed;
          continue;
        }
        span.add_items(1);
        const auto reply = net::parse_reply(completion.reply->datagram);
        if (!reply.is_port_unreachable() || !reply.quoted_udp ||
            reply.quoted_udp->src_port != src_ports[completion.slot]) {
          ++totals.failed;
        }
      }
    }
    totals.window_us.add(static_cast<double>(now_ns() - submitted_at) / 1e3);
    ++totals.windows;
    totals.probes += kWindow;
    if (!totals.error.empty()) break;
  }
  totals.wall_ns = now_ns() - start;
  totals.after = usage_now();
  totals.cpu_us = cpu_us(totals.before, totals.after);
  totals.kernel_calls = kernel_calls(network) - calls_before;
  return totals;
}

/// Run drive() on a thread of its own; an exception becomes totals.error.
WireTotals drive_on_new_thread(probe::Network& network, std::uint64_t seed,
                               std::uint16_t dst_port, std::uint64_t budget_ns,
                               std::uint64_t& next_probe,
                               probe::Ticket& next_ticket) {
  WireTotals totals;
  std::thread worker([&] {
    try {
      totals = drive(network, seed, dst_port, budget_ns, next_probe,
                     next_ticket, nullptr);
    } catch (const std::exception& e) {
      totals.error = e.what();
    }
  });
  worker.join();
  return totals;
}

void append(WireTotals& into, const WireTotals& part) {
  if (into.windows == 0) into.before = part.before;
  into.after = part.after;
  into.windows += part.windows;
  into.probes += part.probes;
  into.failed += part.failed;
  into.wall_ns += part.wall_ns;
  into.kernel_calls += part.kernel_calls;
  into.cpu_us += part.cpu_us;
  into.window_us.merge(part.window_us);
  if (into.error.empty()) into.error = part.error;
}

}  // namespace

RunReport run_wire(const Options& options) {
  RunReport report;
  report.workload = options.workload;
  report.seed = options.seed;
  report.traced = options.trace;
  report.jobs = 1;
  report.window = static_cast<int>(kWindow);
  report.nproc = std::thread::hardware_concurrency();
  const auto kind = probe::resolve_transport(probe::TransportKind::kAuto);
  report.backend = std::string(probe::resolved_transport_name(kind));

  // Set-up: constructing the backend (raw sockets, and the ring when
  // the kernel has io_uring). The untraced run builds one per phase and
  // reports the median construction time.
  std::vector<double> setups;
  const auto set_up = [&setups] {
    const std::uint64_t start = now_ns();
    auto network = probe::make_transport(probe::TransportKind::kAuto,
                                         net::Family::kIpv4, kReplyTimeout);
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
    return network;
  };
  std::unique_ptr<probe::Network> network;
  try {
    network = set_up();
  } catch (const std::exception& e) {
    report.skipped = std::string("the ") + report.backend +
                     " backend cannot be constructed here (raw sockets need "
                     "CAP_NET_RAW; the ring needs io_uring): " + e.what();
    return report;
  }

  const std::uint16_t dst_port = closed_udp_port();
  const auto budget_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  std::uint64_t next_probe = 0;
  probe::Ticket next_ticket = 1;

  const auto account = [&report](const WireTotals& totals) {
    report.attempted += totals.probes;
    report.failed += totals.failed;
    report.check(totals.error.empty(), totals.error);
    report.check(totals.failed == 0,
                 std::to_string(totals.failed) +
                     " probes unanswered, misattributed or resolved twice");
  };

  if (!options.trace) {
    WireTotals totals;
    const std::uint64_t phases = std::max<std::uint64_t>(1, budget_ns / kPhaseNs);
    for (std::uint64_t phase = 0; phase < phases && totals.error.empty();
         ++phase) {
      if (phase != 0) {
        try {
          // Built before the previous backend is torn down, so its
          // teardown is not timed as this one's set-up.
          network = set_up();
        } catch (const std::exception& e) {
          totals.error = e.what();
          break;
        }
      }
      append(totals, drive_on_new_thread(*network, options.seed, dst_port,
                                         budget_ns / phases, next_probe,
                                         next_ticket));
    }
    account(totals);
    const double wall_s = static_cast<double>(totals.wall_ns) / 1e9;
    const double probes = static_cast<double>(totals.probes);
    const auto& lat = totals.window_us;
    report.result = {
        {"setup_s", median(setups), "s", setups.size()},
        {"probes_per_s", probes / wall_s, "1/s", phases},
        {"cpu_us_per_probe", totals.cpu_us / std::max(probes, 1.0), "us",
         phases},
        {"probes_per_dest", probes / static_cast<double>(totals.windows),
         "probes"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    report.extra = {
        {"dests_per_s", static_cast<double>(totals.windows) / wall_s, "1/s",
         totals.windows},
        {"window_us_p50", lat.percentile(50), "us", lat.count()},
        {"window_us_p99", lat.percentile(99), "us", lat.count()},
        {"failed_share",
         static_cast<double>(totals.failed) / std::max(probes, 1.0), "share",
         totals.probes},
        {"sys_cpu_share", sys_cpu_share(totals.before, totals.after), "share"},
        {"phases", static_cast<double>(phases), "count"},
        {"kernel_calls_per_probe",
         static_cast<double>(totals.kernel_calls) / std::max(probes, 1.0),
         "count"},
    };
    report.notes.push_back(
        "on loopback_wire a destination is one 16-probe window to 127.0.0.1, "
        "so probes_per_dest is the benchmark's fixed 16, not a figure of the "
        "program, and its gate cannot fail here");
    return report;
  }

  const auto untraced = drive(*network, options.seed, dst_port,
                              static_cast<std::uint64_t>(budget_ns * kUntracedShare),
                              next_probe, next_ticket, nullptr);
  account(untraced);
  Tracer tracer;
  const auto traced = drive(*network, options.seed, dst_port,
                            budget_ns - untraced.wall_ns, next_probe,
                            next_ticket, &tracer);
  account(traced);
  const auto spans = tracer.drain();
  SpanSummary summary;
  summary.add(spans);
  SpanFile span_file(kSpanFileLimit);
  span_file.keep(spans);

  const auto ns = [&](Layer layer) {
    return static_cast<double>(summary[layer].total_ns);
  };
  LayerFigures f;
  f.jobs = 1;
  f.window = static_cast<int>(kWindow);
  f.probes = static_cast<double>(traced.probes);
  f.windows = static_cast<double>(traced.windows);
  f.engine_submits = static_cast<double>(summary[Layer::kSubmit].spans);
  f.engine_submitted = static_cast<double>(summary[Layer::kSubmit].items);
  f.submit_ns = ns(Layer::kSubmit);
  f.poll_ns = ns(Layer::kPoll);
  f.polls = static_cast<double>(summary[Layer::kPoll].spans);
  f.kernel_calls = static_cast<double>(traced.kernel_calls);
  f.sys_cpu_share = sys_cpu_share(traced.before, traced.after);
  f.build_ns = ns(Layer::kBuild);
  f.parse_ns = ns(Layer::kParse);
  f.replies_parsed = static_cast<double>(summary[Layer::kParse].items);
  f.traced_wall_per_unit_ns =
      static_cast<double>(traced.wall_ns) / static_cast<double>(traced.windows);
  f.untraced_wall_per_unit_ns = static_cast<double>(untraced.wall_ns) /
                                static_cast<double>(untraced.windows);
  f.root_self_ns = static_cast<double>(summary[Layer::kWindow].self_ns);
  f.root_total_ns = ns(Layer::kWindow);
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer != Layer::kWindow) {
      f.named_self_ns += static_cast<double>(summary[layer].self_ns);
    }
  }
  f.cpu_us_per_probe =
      cpu_us_per_probe(traced.before, traced.after, traced.probes);
  report.result = layer_metrics(f);
  report.extra.push_back(
      {"trace.layer_sum_cpu_ratio", layer_sum_cpu_ratio(f), "ratio"});
  if (!options.spans_out.empty()) {
    try {
      span_file.write(options.spans_out);
      report.notes.push_back("spans: " + std::to_string(span_file.kept()) +
                             " of " + std::to_string(span_file.seen()) +
                             " written to " + options.spans_out);
    } catch (const std::exception& e) {
      report.check(false, e.what());
    }
  }
  return report;
}

}  // namespace perfbench
