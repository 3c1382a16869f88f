// The three survey workloads over Fakeroute. The untraced run drives the
// production entry points (daemon::run_fleet_job, survey::
// run_router_survey); the traced run recomposes the same path from public
// calls and times each call into a layer. Each batch traces one world
// of a fixed corpus; the JSONL of every way of running a world (merged
// or not, traced or not) must be byte-identical.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "core/multilevel.h"
#include "core/trace_json.h"
#include "core/validation.h"
#include "daemon/fleet_job.h"
#include "digest.h"
#include "orchestrator/fleet.h"
#include "orchestrator/result_sink.h"
#include "probe/engine.h"
#include "probe/simulated_network.h"
#include "spans.h"
#include "survey/accounting.h"
#include "survey/ip_survey.h"
#include "survey/route_feeder.h"
#include "survey/router_survey.h"
#include "topology/generator.h"
#include "topology/metrics.h"
#include "workloads.h"

namespace perfbench {

using namespace mmlpt;

namespace {

constexpr int kWindow = 16;
/// The corpus: kIpWorlds (kRouterWorlds) generated worlds, seeded
/// kCorpusFirstSeed and up, of kIpRoutes (kRouterRoutes) destinations
/// each. A world's probe mix is dominated by its few most-encountered
/// diamond templates (Zipf), so worlds drawn from the run's seed made
/// every figure hinge on the seed's luck (probes per destination spread
/// 13% between seeds on ip_fleet, 42% on router_survey). The corpus is
/// therefore fixed and every run visits all of it; the seed sets the
/// order of the visits. router_survey has fewer worlds, so each is
/// visited about three times in 20 s: a visit's rate moves with how the
/// host places that batch's fresh worker threads, and the per-world
/// median needs visits.
///
/// A world is one production call, and its size sets how much of the
/// call is worker start-up and the tail of the batch. The sizes are
/// those of existing runs: 400 routes is the size at which the fleet's
/// four-job against one-job scaling was measured (2000 routes merged
/// takes about 7 s a call, which would leave one visit of one world per
/// run), and 200 routes is RouterSurveyConfig's default and the Sec. 5.2
/// example of mmlpt_survey's usage.
constexpr std::uint64_t kIpWorlds = 4;
constexpr std::uint64_t kRouterWorlds = 2;
constexpr std::uint64_t kCorpusFirstSeed = 1;
constexpr std::size_t kIpRoutes = 400;
constexpr std::size_t kRouterRoutes = 200;
/// Worlds an untraced run first runs untimed, through production and
/// through the recomposed path, to check its output against the
/// Fakeroute ground truth and to warm the process up: a process's first
/// fleet run was up to 3.6x slower on router_survey (its new worker
/// threads shared one vCPU), which users of a one-shot CLI pay but which
/// is the host scheduler's, not the program's.
constexpr std::uint64_t kQualityWorlds = 2;
/// Constructions timed together as one set-up sample: one takes about
/// 2 ms, short enough for a single timer read to catch the host's
/// jitter.
constexpr int kSetupReps = 10;
/// Set-up sampling takes this share of the timed wall time, with at
/// least one sample before every batch. Even 20 ms samples spread
/// +-25% within one run on a shared 4-vCPU VM, so the median needs a
/// few dozen of them, also on workloads with few, long batches.
constexpr double kSetupShare = 0.05;
constexpr std::uint64_t kIpDistinct = 100;    // mmlpt_fleet's default
constexpr std::size_t kRouterDistinct = 80;   // mmlpt_survey's default

enum class Kind { kIp, kIpMerged, kRouter };

/// The corpus world batch `b` of a run with seed `seed` traces.
std::uint64_t world_of(std::uint64_t seed, std::uint64_t b,
                       std::uint64_t worlds) {
  return (seed + b) % worlds;
}

std::uint64_t world_seed(std::uint64_t world) {
  return kCorpusFirstSeed + world;
}

daemon::FleetJobSpec ip_spec(std::uint64_t seed) {
  daemon::FleetJobSpec spec;
  spec.routes = kIpRoutes;
  spec.algorithm = core::Algorithm::kMdaLite;
  spec.family = net::Family::kIpv4;
  spec.seed = seed;
  spec.distinct = kIpDistinct;
  spec.window = kWindow;
  return spec;
}

survey::RouterSurveyConfig router_config(std::uint64_t seed, int jobs) {
  survey::RouterSurveyConfig config;
  config.routes = kRouterRoutes;
  config.distinct_diamonds = kRouterDistinct;
  config.multilevel.trace.window = kWindow;
  config.seed = seed;
  config.jobs = jobs;
  return config;
}

orchestrator::FleetConfig fleet_config(int jobs, std::uint64_t seed,
                                       bool merged) {
  orchestrator::FleetConfig config;
  config.jobs = jobs;
  config.seed = seed;
  config.merge_windows = merged;
  return config;
}

std::size_t batch_size(Kind kind) {
  return kind == Kind::kRouter ? kRouterRoutes : kIpRoutes;
}

/// One production batch: the timed call plus what it produced.
struct Batch {
  Digest digest;
  std::string order_error;
  std::uint64_t dests = 0;
  std::uint64_t probes = 0;
  std::uint64_t wall_ns = 0;
  rusage before{};
  rusage after{};
  std::string error;  ///< what the call threw, if it did
};

Batch production_batch(Kind kind, orchestrator::FleetScheduler& fleet,
                       std::uint64_t seed, int jobs) {
  JsonlDigest out;
  Batch batch;
  orchestrator::ResultSink sink(out.stream());
  batch.before = usage_now();
  const std::uint64_t start = now_ns();
  try {
    if (kind == Kind::kRouter) {
      const auto result =
          survey::run_router_survey(router_config(seed, jobs), &sink);
      batch.dests = result.routes_traced;
      batch.probes = result.total_packets;
    } else {
      daemon::FleetJobHooks hooks;
      hooks.on_line = [&sink](std::size_t i, std::string line) {
        sink.emit(i, std::move(line));
      };
      const auto counters = daemon::run_fleet_job(
          fleet, nullptr, ip_spec(seed), fakeroute::SimConfig{}, hooks);
      batch.dests = counters.destinations;
      batch.probes = counters.packets;
    }
  } catch (const std::exception& e) {
    batch.error = e.what();
  }
  batch.wall_ns = now_ns() - start;
  batch.after = usage_now();
  sink.flush();
  batch.digest = out.digest();
  batch.order_error = out.order_error(batch_size(kind));
  return batch;
}

/// The part of run_router_survey's join-time merge reachable through
/// public calls: alias-set and diamond dedup, Table 3 classification and
/// diamond metrics. Its results are never read; it exists so the traced
/// run does the join-time work production does. (The cross-trace
/// union-find is private to the survey and is not recomposed.)
class RouterMerge {
 public:
  void add(const core::MultilevelResult& ml) {
    for (const auto& [hop, sets] : ml.final_round().sets_by_hop) {
      for (const auto& set : sets) {
        if (set.outcome != alias::Outcome::kAccept || set.members.size() < 2) {
          continue;
        }
        auto key = set.members;
        std::sort(key.begin(), key.end());
        distinct_sets_.insert(std::move(key));
      }
    }
    for (const auto& d : topo::extract_diamonds(ml.trace.graph)) {
      if (!seen_.insert(topo::diamond_key(ml.trace.graph, d)).second) {
        continue;
      }
      ++classes_[static_cast<int>(survey::classify_resolution(
          ml.trace.graph, ml.router_graph, d))];
      widths_ += static_cast<std::uint64_t>(
          topo::compute_metrics(ml.trace.graph, d).max_width);
    }
  }

 private:
  std::set<std::vector<net::Ipv4Address>> distinct_sets_;
  std::set<topo::DiamondKey> seen_;
  std::uint64_t classes_[4] = {};
  std::uint64_t widths_ = 0;
};

/// True when the final round's alias partition of some hop's discovered
/// addresses differs from the ground truth's, restricted to the same
/// addresses.
bool alias_miss(const core::MultilevelResult& ml,
                const topo::GroundTruth& truth) {
  using Group = std::vector<net::Ipv4Address>;
  for (const auto& [hop, sets] : ml.final_round().sets_by_hop) {
    if (hop < 0 || hop >= truth.graph.hop_count()) return true;
    std::set<Group> found;
    std::set<net::Ipv4Address> addresses;
    for (const auto& set : sets) {
      addresses.insert(set.members.begin(), set.members.end());
      if (set.outcome == alias::Outcome::kAccept && set.members.size() >= 2) {
        Group group = set.members;
        std::sort(group.begin(), group.end());
        found.insert(std::move(group));
      } else {
        for (const auto& member : set.members) found.insert(Group{member});
      }
    }
    std::set<Group> expected;
    for (const auto& ids : truth.alias_sets_at(static_cast<std::uint16_t>(hop))) {
      Group group;
      for (const auto id : ids) {
        const auto addr = truth.graph.vertex(id).addr;
        if (addresses.count(addr) != 0) group.push_back(addr);
      }
      if (group.empty()) continue;
      std::sort(group.begin(), group.end());
      expected.insert(std::move(group));
    }
    if (found != expected) return true;
  }
  return false;
}

/// The production path rebuilt from public calls, optionally traced.
struct Recomposition {
  Digest digest;
  std::string order_error;
  std::uint64_t dests = 0;
  std::uint64_t probes = 0;
  std::uint64_t alias_probes = 0;
  std::uint64_t alias_rounds = 0;
  std::uint64_t engine_submits = 0;
  std::uint64_t engine_submitted = 0;
  std::uint64_t topo_misses = 0;
  std::uint64_t alias_misses = 0;
  std::string error;
};

/// Per-task result carried from the worker to the ordered join.
template <typename R>
struct TaskResult {
  R result;
  std::uint64_t submits = 0;
  std::uint64_t submitted = 0;
  bool topo_miss = false;
  bool alias_miss = false;
};

/// Mirrors daemon::run_fleet_job and survey::trace_route_task.
void recompose_ip(orchestrator::FleetScheduler& fleet, std::uint64_t seed,
                  Tracer* tracer, Recomposition& out) {
  const auto spec = ip_spec(seed);
  const fakeroute::SimConfig sim;
  const bool quality = tracer == nullptr;
  topo::GeneratorConfig generator;
  generator.family = spec.family;
  generator.shared_prefix_hops = spec.shared_prefix;
  topo::SurveyWorld world(generator, spec.distinct, spec.seed);
  survey::RouteFeeder feeder(world, spec.destination_count());
  core::TraceConfig trace_config;
  trace_config.window = spec.window;
  survey::DiamondAccounting accounting(2);
  JsonlDigest stream;
  orchestrator::ResultSink sink(stream.stream());

  using Task = TaskResult<core::TraceResult>;
  fleet.run_streaming(
      spec.destination_count(),
      [&](orchestrator::WorkerContext& context) {
        const auto i = static_cast<std::int64_t>(context.task_index);
        Tracer::Scope dest(tracer, Layer::kDest, i);
        const topo::GroundTruth* route = nullptr;
        {
          Tracer::Scope span(tracer, Layer::kFeeder, i);
          route = &feeder.route(context.task_index);
        }
        std::optional<fakeroute::Simulator> simulator;
        std::optional<probe::SimulatedNetwork> network;
        {
          Tracer::Scope span(tracer, Layer::kSimBuild, i);
          simulator.emplace(*route, sim,
                            survey::ip_trace_seed(spec.seed, context.task_index));
          network.emplace(*simulator);
        }
        TimedQueue sim_queue(*network, tracer, Layer::kSim, Layer::kSim, i);
        std::unique_ptr<orchestrator::FleetTransportHub::Channel> channel;
        std::optional<TimedQueue> hub_queue;
        TimedQueue* outer = &sim_queue;
        if (context.hub != nullptr) {
          {
            Tracer::Scope span(tracer, Layer::kHub, i);
            channel = context.hub->open_channel(sim_queue);
          }
          hub_queue.emplace(*channel, tracer, Layer::kHub, Layer::kHub, i);
          outer = &*hub_queue;
        }
        Task task;
        {
          Tracer::Scope span(tracer, Layer::kTrace, i);
          task.result = core::run_trace_with_network(
              *outer, route->source, route->destination, spec.algorithm,
              trace_config);
        }
        if (channel) {
          Tracer::Scope span(tracer, Layer::kHub, i);
          channel.reset();
        }
        task.submits = outer->submits();
        task.submitted = outer->probes();
        if (quality) {
          task.topo_miss = !topo::same_topology(task.result.graph, route->graph);
        }
        return task;
      },
      [&](std::size_t index, Task& task) {
        const auto i = static_cast<std::int64_t>(index);
        Tracer::Scope join(tracer, Layer::kJoin, i);
        std::string line;
        {
          Tracer::Scope span(tracer, Layer::kJson, i);
          line = orchestrator::destination_line(
              index, feeder.route(index).destination.to_string(),
              core::stop_set_envelope_fields(task.result), "trace",
              core::trace_to_json(task.result));
        }
        {
          Tracer::Scope span(tracer, Layer::kSink, i);
          sink.emit(index, std::move(line));
        }
        ++out.dests;
        out.probes += task.result.packets;
        out.engine_submits += task.submits;
        out.engine_submitted += task.submitted;
        out.topo_misses += task.topo_miss ? 1 : 0;
        {
          Tracer::Scope span(tracer, Layer::kMerge, i);
          accounting.record_all(task.result.graph);
        }
        Tracer::Scope span(tracer, Layer::kFeeder, i);
        feeder.release(index);
      });
  sink.flush();
  out.digest = stream.digest();
  out.order_error = stream.order_error(spec.destination_count());
}

/// Mirrors survey::run_router_survey (unmerged, unthrottled).
void recompose_router(orchestrator::FleetScheduler& fleet, std::uint64_t seed,
                      Tracer* tracer, Recomposition& out) {
  const auto config = router_config(seed, fleet.config().jobs);
  const bool quality = tracer == nullptr;
  topo::SurveyWorld world(config.generator, config.distinct_diamonds,
                          config.seed);
  survey::RouteFeeder feeder(world, config.routes);
  RouterMerge merge;
  JsonlDigest stream;
  orchestrator::ResultSink sink(stream.stream());
  const std::uint64_t base_seed = config.seed * 0x2545F491ULL + 99;

  using Task = TaskResult<core::MultilevelResult>;
  fleet.run_streaming(
      config.routes,
      [&](orchestrator::WorkerContext& context) {
        const auto i = static_cast<std::int64_t>(context.task_index);
        Tracer::Scope dest(tracer, Layer::kDest, i);
        const topo::GroundTruth* route = nullptr;
        {
          Tracer::Scope span(tracer, Layer::kFeeder, i);
          route = &feeder.route(context.task_index);
        }
        std::optional<fakeroute::Simulator> simulator;
        std::optional<probe::SimulatedNetwork> network;
        {
          Tracer::Scope span(tracer, Layer::kSimBuild, i);
          simulator.emplace(*route, config.sim, base_seed + context.task_index);
          network.emplace(*simulator);
        }
        TimedQueue sim_queue(*network, tracer, Layer::kSim, Layer::kSim, i);
        probe::ProbeEngine::Config engine_config;
        engine_config.source = route->source;
        engine_config.destination = route->destination;
        probe::ProbeEngine engine(sim_queue, engine_config);
        core::MultilevelTracer multilevel(engine, config.multilevel);
        Task task;
        {
          Tracer::Scope span(tracer, Layer::kMultilevel, i);
          task.result = multilevel.run();
        }
        task.submits = sim_queue.submits();
        task.submitted = sim_queue.probes();
        if (quality) {
          task.topo_miss =
              !topo::same_topology(task.result.trace.graph, route->graph);
          task.alias_miss = alias_miss(task.result, *route);
        }
        return task;
      },
      [&](std::size_t index, Task& task) {
        const auto i = static_cast<std::int64_t>(index);
        Tracer::Scope join(tracer, Layer::kJoin, i);
        std::string line;
        {
          Tracer::Scope span(tracer, Layer::kJson, i);
          line = orchestrator::destination_line(
              index, feeder.route(index).destination.to_string(),
              core::stop_set_envelope_fields(task.result), "multilevel",
              core::multilevel_to_json(task.result));
        }
        {
          Tracer::Scope span(tracer, Layer::kSink, i);
          sink.emit(index, std::move(line));
        }
        const auto& ml = task.result;
        ++out.dests;
        out.probes += ml.total_packets;
        out.alias_probes += ml.total_packets - ml.trace.packets;
        out.alias_rounds += ml.rounds.empty() ? 0 : ml.rounds.size() - 1;
        out.engine_submits += task.submits;
        out.engine_submitted += task.submitted;
        out.topo_misses += task.topo_miss ? 1 : 0;
        out.alias_misses += task.alias_miss ? 1 : 0;
        {
          Tracer::Scope span(tracer, Layer::kMerge, i);
          merge.add(ml);
        }
        Tracer::Scope span(tracer, Layer::kFeeder, i);
        feeder.release(index);
      });
  sink.flush();
  out.digest = stream.digest();
  out.order_error = stream.order_error(config.routes);
}

Recomposition recompose(Kind kind, orchestrator::FleetScheduler& fleet,
                        std::uint64_t seed, Tracer* tracer) {
  Recomposition out;
  try {
    if (kind == Kind::kRouter) {
      recompose_router(fleet, seed, tracer, out);
    } else {
      recompose_ip(fleet, seed, tracer, out);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// Count one batch as attempted, and as failed unless it ran to the end
/// with every line present once and in order; record why not.
bool account(RunReport& report, const std::string& what, std::size_t count,
             const std::string& error, const std::string& order_error) {
  report.attempted += count;
  report.check(error.empty(), what + " threw: " + error);
  report.check(order_error.empty(), what + ": " + order_error);
  const bool ok = error.empty() && order_error.empty();
  if (!ok) report.failed += count;
  return ok;
}

/// Fleet jobs for every survey workload: half the vCPUs, 1 to 4. With a
/// worker on every vCPU of a shared host the figures measured the host's
/// scheduler: on 4 vCPUs with two busy-looping processes beside the run,
/// merged 4-job calls lost a quarter of their probe rate (and whole runs
/// under hypervisor steal lost over half, since the hub makes every
/// worker wait for a stalled one), while 2-job calls of every survey
/// workload kept theirs.
int fleet_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(n / 2, 1, 4));
}

}  // namespace

RunReport run_survey(const Options& options) {
  const Kind kind = options.workload == "router_survey" ? Kind::kRouter
                    : options.workload == "ip_fleet_merged" ? Kind::kIpMerged
                                                            : Kind::kIp;
  const bool merged = kind == Kind::kIpMerged;
  const std::uint64_t seed = options.seed;
  const std::size_t count = batch_size(kind);
  const std::uint64_t corpus = kind == Kind::kRouter ? kRouterWorlds : kIpWorlds;

  RunReport report;
  report.workload = options.workload;
  report.seed = seed;
  report.traced = options.trace;
  report.jobs = fleet_jobs();
  report.window = kWindow;
  report.nproc = std::thread::hardware_concurrency();
  report.backend = "sim";
  const int jobs = report.jobs;

  // Set-up: the world and the scheduler a batch starts from, sampled
  // before every batch of the untraced run (so the samples span the run,
  // as the host's speed drifts). The production calls build their own
  // world internally; constructing one here times the same work.
  // Every timed production call runs on a scheduler of its own, as one
  // mmlpt_fleet job does, so set-up times what each call starts from.
  const auto build = [&] {
    if (kind == Kind::kRouter) {
      const auto config = router_config(world_seed(0), jobs);
      topo::SurveyWorld world(config.generator, config.distinct_diamonds,
                              config.seed);
    } else {
      topo::SurveyWorld world(topo::GeneratorConfig{}, kIpDistinct,
                              world_seed(0));
    }
    return std::make_unique<orchestrator::FleetScheduler>(
        fleet_config(jobs, seed, merged));
  };
  const auto time_set_up = [&] {
    const std::uint64_t start = now_ns();
    for (int r = 0; r < kSetupReps; ++r) (void)build();
    return now_ns() - start;
  };
  auto fleet = build();  // warm-up and quality batches

  // Merged batches are checked against the unmerged production path,
  // which runs once per world: its JSONL is the world's, whatever runs
  // beside it.
  orchestrator::FleetScheduler unmerged_fleet(fleet_config(jobs, seed, false));
  std::map<std::uint64_t, Batch> unmerged_by_world;
  const auto check_against_unmerged = [&](const Batch& batch,
                                          std::uint64_t world) {
    if (!merged) return;
    auto it = unmerged_by_world.find(world);
    if (it == unmerged_by_world.end()) {
      it = unmerged_by_world
               .emplace(world, production_batch(Kind::kIp, unmerged_fleet,
                                                world, jobs))
               .first;
    }
    const Batch& unmerged = it->second;
    report.check(unmerged.error.empty() && unmerged.order_error.empty() &&
                     unmerged.digest == batch.digest,
                 "ip_fleet_merged JSONL differs from ip_fleet's for world " +
                     std::to_string(world));
  };
  const auto budget_ns = static_cast<std::uint64_t>(options.seconds * 1e9);

  if (!options.trace) {
    // Each visit of a world is one sample of its rates; a world's figure
    // is the median over its visits (robust to a stall of the host during
    // one visit) and the run's is the median over worlds.
    struct WorldSamples {
      std::vector<double> rates, dest_rates, cpu_per_probe;
      double per_dest = 0;  ///< exact: the same on every visit
    };
    std::vector<WorldSamples> worlds(corpus);
    std::vector<double> setups;
    double cpu = 0, sys_cpu = 0;
    std::uint64_t wall_ns = 0, setup_ns = 0, batches = 0, quality_dests = 0,
                  topo_misses = 0, alias_misses = 0;
    for (std::uint64_t b = 0; b < kQualityWorlds; ++b) {
      const std::uint64_t world = world_seed(world_of(seed, b, corpus));
      const Batch batch = production_batch(kind, *fleet, world, jobs);
      if (!account(report, "warm-up world " + std::to_string(world), count,
                   batch.error, batch.order_error)) {
        return report;
      }
      check_against_unmerged(batch, world);
      const auto quality = recompose(kind == Kind::kRouter ? kind : Kind::kIp,
                                     unmerged_fleet, world, nullptr);
      report.check(quality.error.empty(), "recomposition threw: " + quality.error);
      report.check(quality.digest == batch.digest,
                   "recomposed JSONL differs from production for world " +
                       std::to_string(world));
      quality_dests += quality.dests;
      topo_misses += quality.topo_misses;
      alias_misses += quality.alias_misses;
    }
    for (std::uint64_t b = 0; b < corpus || wall_ns < budget_ns; ++b) {
      do {
        const std::uint64_t sample_ns = time_set_up();
        setup_ns += sample_ns;
        setups.push_back(static_cast<double>(sample_ns) / 1e9 / kSetupReps);
      } while (static_cast<double>(setup_ns) <
               kSetupShare * static_cast<double>(wall_ns));
      const std::uint64_t world = world_of(seed, b, corpus);
      fleet = build();
      const Batch batch =
          production_batch(kind, *fleet, world_seed(world), jobs);
      if (!account(report, "world " + std::to_string(world), count,
                   batch.error, batch.order_error)) {
        return report;
      }
      check_against_unmerged(batch, world_seed(world));
      const double batch_cpu = perfbench::cpu_us(batch.before, batch.after);
      const double probes = static_cast<double>(batch.probes);
      const double seconds = static_cast<double>(batch.wall_ns) / 1e9;
      auto& samples = worlds[world];
      samples.rates.push_back(probes / seconds);
      samples.dest_rates.push_back(static_cast<double>(batch.dests) / seconds);
      samples.cpu_per_probe.push_back(batch_cpu / probes);
      samples.per_dest = probes / static_cast<double>(batch.dests);
      wall_ns += batch.wall_ns;
      cpu += batch_cpu;
      sys_cpu += perfbench::sys_cpu_share(batch.before, batch.after) * batch_cpu;
      ++batches;
    }
    std::vector<double> rates, dest_rates, cpu_per_probe, per_dest;
    for (const auto& w : worlds) {
      rates.push_back(median(w.rates));
      dest_rates.push_back(median(w.dest_rates));
      cpu_per_probe.push_back(median(w.cpu_per_probe));
      per_dest.push_back(w.per_dest);
    }
    const double checked = std::max<double>(1.0, static_cast<double>(quality_dests));
    report.result = {
        {"setup_s", median(setups), "s", setups.size()},
        {"probes_per_s", median(rates), "1/s", corpus},
        {"cpu_us_per_probe", median(cpu_per_probe), "us", corpus},
        {"probes_per_dest", median(per_dest), "probes", corpus},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    report.extra = {
        {"dests_per_s", median(dest_rates), "1/s", corpus},
        {"topo_miss_share", static_cast<double>(topo_misses) / checked, "share",
         quality_dests},
        {"failed_share",
         static_cast<double>(report.failed) /
             static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
         "share", report.attempted},
        {"measured_s", static_cast<double>(wall_ns) / 1e9, "s"},
        {"batches", static_cast<double>(batches), "count"},
        {"sys_cpu_share", cpu > 0 ? sys_cpu / cpu : 0.0, "share"},
    };
    if (kind == Kind::kRouter) {
      report.extra.push_back({"alias_miss_share",
                              static_cast<double>(alias_misses) / checked,
                              "share", quality_dests});
    }
    report.notes.push_back(
        "rates and per-probe figures are medians over the " +
        std::to_string(corpus) + " corpus worlds of " +
        std::to_string(count) + " destinations of each world's median "
        "over its visits");
    return report;
  }

  // Traced run: after one untimed warm-up batch (see kQualityWorlds),
  // each batch runs untraced through the production entry point (the
  // wall-time reference for the tracing overhead, and the JSONL the
  // traced batch must reproduce), then traced through the recomposition;
  // each on a fresh scheduler, and the hub's counters are summed over
  // the traced batches' schedulers alone.
  const Batch warm_up = production_batch(
      kind, *fleet, world_seed(world_of(seed, 0, corpus)), jobs);
  if (!account(report, "warm-up batch", count, warm_up.error,
               warm_up.order_error)) {
    return report;
  }
  Tracer tracer;
  SpanSummary summary;
  SpanFile span_file(kSpanFileLimit);
  LayerFigures f;
  f.jobs = jobs;
  f.window = kWindow;
  std::uint64_t untraced_ns = 0, untraced_dests = 0, traced_ns = 0;
  double cpu = 0, sys_cpu = 0;
  for (std::uint64_t b = 0;
       b < corpus || untraced_ns + traced_ns < budget_ns; ++b) {
    const std::uint64_t world = world_seed(world_of(seed, b, corpus));
    fleet = build();
    const Batch untraced = production_batch(kind, *fleet, world, jobs);
    if (!account(report, "untraced batch " + std::to_string(b), count,
                 untraced.error, untraced.order_error)) {
      return report;
    }
    check_against_unmerged(untraced, world);
    untraced_ns += untraced.wall_ns;
    untraced_dests += untraced.dests;

    fleet = build();
    const rusage before = usage_now();
    const std::uint64_t start = now_ns();
    const auto batch = recompose(kind, *fleet, world, &tracer);
    const std::uint64_t end = now_ns();
    const rusage after = usage_now();
    if (!account(report, "traced batch " + std::to_string(b), count,
                 batch.error, batch.order_error)) {
      return report;
    }
    if (const auto* hub = fleet->hub()) {
      const auto stats = hub->stats();
      f.hub_bursts += static_cast<double>(stats.bursts);
      f.hub_probes += static_cast<double>(stats.probes);
      f.hub_merged_bursts += static_cast<double>(stats.merged_bursts);
    }
    report.check(batch.digest == untraced.digest,
                 "traced JSONL differs from the untraced JSONL for world " +
                     std::to_string(world));

    const auto spans = tracer.drain();
    // A worker is busy while it runs a task or the ordered join.
    std::vector<Interval> busy;
    for (const auto& span : spans) {
      if (span.layer == Layer::kDest || span.layer == Layer::kJoin) {
        busy.push_back({span.start, span.end});
      }
    }
    f.underfilled_ns += static_cast<double>(
        underfilled_time(std::move(busy), {start, end}, jobs));
    summary.add(spans);
    span_file.keep(spans);

    traced_ns += end - start;
    const double batch_cpu = perfbench::cpu_us(before, after);
    cpu += batch_cpu;
    sys_cpu += perfbench::sys_cpu_share(before, after) * batch_cpu;
    f.dests += static_cast<double>(batch.dests);
    f.probes += static_cast<double>(batch.probes);
    f.alias_probes += static_cast<double>(batch.alias_probes);
    f.alias_rounds += static_cast<double>(batch.alias_rounds);
    f.engine_submits += static_cast<double>(batch.engine_submits);
    f.engine_submitted += static_cast<double>(batch.engine_submitted);
  }

  const auto ns = [&](Layer layer) {
    return static_cast<double>(summary[layer].total_ns);
  };
  const auto self = [&](Layer layer) {
    return static_cast<double>(summary[layer].self_ns);
  };
  f.feeder_ns = ns(Layer::kFeeder);
  f.busy_ns = ns(Layer::kDest) + ns(Layer::kJoin);
  f.run_ns = static_cast<double>(traced_ns);
  f.hub_self_ns = self(Layer::kHub);
  f.sink_ns = ns(Layer::kSink);
  f.sim_ns = ns(Layer::kSim);
  f.sim_build_ns = ns(Layer::kSimBuild);
  f.tracer_self_ns = self(Layer::kTrace);
  f.multilevel_self_ns = self(Layer::kMultilevel);
  auto dest_ms = summary.root_ms;
  std::sort(dest_ms.begin(), dest_ms.end());
  f.dest_ms_p50 = percentile(dest_ms, 50);
  f.dest_ms_p99 = percentile(dest_ms, 99);
  f.json_ns = ns(Layer::kJson);
  f.merge_ns = ns(Layer::kMerge);
  f.sys_cpu_share = cpu > 0 ? sys_cpu / cpu : 0.0;
  f.traced_wall_per_unit_ns = static_cast<double>(traced_ns) / f.dests;
  f.untraced_wall_per_unit_ns =
      static_cast<double>(untraced_ns) / static_cast<double>(untraced_dests);
  f.root_self_ns = self(Layer::kDest) + self(Layer::kJoin);
  f.root_total_ns = f.busy_ns;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer != Layer::kDest && layer != Layer::kJoin) {
      f.named_self_ns += self(layer);
    }
  }
  f.cpu_us_per_probe = cpu / f.probes;
  report.result = layer_metrics(f);
  report.extra.push_back(
      {"trace.layer_sum_cpu_ratio", layer_sum_cpu_ratio(f), "ratio"});

  const auto tail = supported_tail_percentile(dest_ms.size());
  report.extra.push_back({"core.dest_samples",
                          static_cast<double>(dest_ms.size()), "count"});
  if (!tail || *tail < 99.0) {
    char supported[32] = "none";
    if (tail) std::snprintf(supported, sizeof supported, "p%g", *tail);
    report.notes.push_back("core.dest_ms_p99 rests on " +
                           std::to_string(dest_ms.size()) +
                           " samples; the highest percentile with 10 samples "
                           "beyond it is " + supported);
  }
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
