// In-memory span recording for the traced runs. Spans are recorded from
// the benchmark's own files, around each call into a program layer; the
// program's own trace-event recorder stays uninstalled.
//
// Each thread appends to a private buffer (no lock on the hot path); the
// parent of a span is whatever span the same thread has open. Buffers
// are drained between batches, when no worker runs, and reduced to
// per-layer totals; a sample of the spans is kept for the span file.
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arith.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "probe/transport_queue.h"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span names: one per layer boundary the benchmark times. A fleet
/// worker's time is covered by two roots per destination: kDest (the
/// task) and kJoin (its ordered on_result call, which the scheduler runs
/// on a worker thread). The wire's per-window root is kWindow.
enum class Layer : std::uint32_t {
  kDest,        ///< one fleet task (destination), worker side
  kJoin,        ///< one ordered on_result call, worker side
  kFeeder,      ///< survey::RouteFeeder::route / release
  kSimBuild,    ///< fakeroute::Simulator + SimulatedNetwork construction
  kSim,         ///< SimulatedNetwork submit / poll_completions
  kHub,         ///< FleetTransportHub::Channel submit / poll / close
  kTrace,       ///< core::run_trace_with_network
  kMultilevel,  ///< core::MultilevelTracer::run
  kJson,        ///< trace_to_json / multilevel_to_json + destination_line
  kSink,        ///< orchestrator::ResultSink::emit
  kMerge,       ///< survey accounting / router merge at join time
  kWindow,      ///< one closed-loop window on the real wire
  kBuild,       ///< net::build_udp_probe
  kSubmit,      ///< real backend submit
  kPoll,        ///< real backend poll_completions
  kParse,       ///< net::parse_reply
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int64_t dest = -1;  ///< destination (or window) index
  Layer layer = Layer::kDest;
  std::uint32_t items = 0;  ///< probes submitted / replies parsed
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened on construction, recorded on destruction. A null
  /// tracer makes it a no-op, so untraced code paths share the code.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer, std::int64_t dest,
          std::uint32_t items = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void add_items(std::uint32_t n) { items_ += n; }

   private:
    Tracer* tracer_;
    Layer layer_;
    std::int64_t dest_;
    std::uint32_t items_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t start_ = 0;
  };

  /// Move out every recorded span. Only call while no thread records.
  [[nodiscard]] std::vector<Span> drain();

 private:
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::uint64_t next_seq = 1;
    std::vector<std::uint64_t> open;  ///< ids of this thread's open spans
    std::vector<Span> spans;
  };
  ThreadBuffer& buffer();

  std::uint64_t generation_;
  mmlpt::Mutex mutex_;
  /// Registration and drain() lock; a thread appends to its own buffer
  /// unlocked (the buffer's address is stable: it is heap-owned).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      MMLPT_GUARDED_BY(mutex_);
};

/// Per-layer reduction of drained spans.
struct LayerTotals {
  std::uint64_t spans = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t items = 0;
};

struct SpanSummary {
  std::array<LayerTotals, kLayerCount> layers{};
  std::vector<double> root_ms;  ///< kDest durations, for percentiles
  /// Fold one batch of drained spans in (self times need every child of
  /// a span in the same batch: drain only when no span is open).
  void add(const std::vector<Span>& spans);
  [[nodiscard]] const LayerTotals& operator[](Layer layer) const {
    return layers[static_cast<std::size_t>(layer)];
  }
};

/// A TransportQueue that forwards to `inner` and times each call as a
/// span: submit under `submit_layer` (items = window size), poll under
/// `poll_layer`. Cancel and pending forward untimed.
class TimedQueue final : public mmlpt::probe::TransportQueue {
 public:
  TimedQueue(mmlpt::probe::TransportQueue& inner, Tracer* tracer,
             Layer submit_layer, Layer poll_layer, std::int64_t dest)
      : inner_(&inner),
        tracer_(tracer),
        submit_layer_(submit_layer),
        poll_layer_(poll_layer),
        dest_(dest) {}

  void submit(std::span<const mmlpt::probe::Datagram> window,
              mmlpt::probe::Ticket ticket,
              const mmlpt::probe::SubmitOptions& options) override;
  using TransportQueue::submit;
  [[nodiscard]] std::vector<mmlpt::probe::Completion> poll_completions()
      override;
  void cancel(mmlpt::probe::Ticket ticket) override { inner_->cancel(ticket); }
  [[nodiscard]] std::size_t pending() const override {
    return inner_->pending();
  }

  [[nodiscard]] std::uint64_t submits() const noexcept { return submits_; }
  [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }

 private:
  mmlpt::probe::TransportQueue* inner_;
  Tracer* tracer_;
  Layer submit_layer_;
  Layer poll_layer_;
  std::int64_t dest_;
  std::uint64_t submits_ = 0;
  std::uint64_t probes_ = 0;
};

/// Spans a traced run keeps for its span file.
inline constexpr std::size_t kSpanFileLimit = 200'000;

/// Writes spans as tab-separated lines (id, parent, dest, layer, thread,
/// start_ns, end_ns, items) with a header naming the columns.
class SpanFile {
 public:
  /// Keep at most `limit` spans; the rest are counted, not stored.
  explicit SpanFile(std::size_t limit) : limit_(limit) {}
  void keep(const std::vector<Span>& spans);
  /// Write the kept spans to `path`; throws std::runtime_error on failure.
  void write(const std::string& path) const;
  [[nodiscard]] std::size_t kept() const noexcept { return kept_.size(); }
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::size_t limit_;
  std::uint64_t seen_ = 0;
  std::vector<Span> kept_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
