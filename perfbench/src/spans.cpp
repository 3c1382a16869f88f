#include "spans.h"

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_generation{1};

/// The calling thread's buffer in the tracer of generation `generation`;
/// a thread that outlives one tracer re-registers with the next.
struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot tls_slot;

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kDest: return "dest";
    case Layer::kJoin: return "join";
    case Layer::kFeeder: return "survey.feeder";
    case Layer::kSimBuild: return "fakeroute.build";
    case Layer::kSim: return "fakeroute.sim";
    case Layer::kHub: return "orchestrator.hub";
    case Layer::kTrace: return "core.trace";
    case Layer::kMultilevel: return "core.multilevel";
    case Layer::kJson: return "core.json";
    case Layer::kSink: return "orchestrator.sink";
    case Layer::kMerge: return "survey.merge";
    case Layer::kWindow: return "probe.window";
    case Layer::kBuild: return "net.build";
    case Layer::kSubmit: return "probe.submit";
    case Layer::kPoll: return "probe.poll";
    case Layer::kParse: return "net.parse";
    case Layer::kCount: break;
  }
  return "?";
}

// relaxed: only the uniqueness of each tracer's generation matters.
Tracer::Tracer()
    : generation_(next_generation.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (tls_slot.generation == generation_) {
    return *static_cast<ThreadBuffer*>(tls_slot.buffer);
  }
  mmlpt::MutexLock lock(mutex_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->thread = static_cast<std::uint32_t>(buffers_.size());
  buffer->spans.reserve(4096);
  tls_slot = {generation_, buffer.get()};
  buffers_.push_back(std::move(buffer));
  return *buffers_.back();
}

std::vector<Span> Tracer::drain() {
  mmlpt::MutexLock lock(mutex_);
  std::vector<Span> all;
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->spans.size();
  all.reserve(total);
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

Tracer::Scope::Scope(Tracer* tracer, Layer layer, std::int64_t dest,
                     std::uint32_t items)
    : tracer_(tracer), layer_(layer), dest_(dest), items_(items) {
  if (tracer_ == nullptr) return;
  auto& buffer = tracer_->buffer();
  id_ = (static_cast<std::uint64_t>(buffer.thread) << 40) | buffer.next_seq++;
  parent_ = buffer.open.empty() ? 0 : buffer.open.back();
  buffer.open.push_back(id_);
  start_ = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::uint64_t end = now_ns();
  auto& buffer = tracer_->buffer();
  buffer.open.pop_back();
  buffer.spans.push_back(
      Span{id_, parent_, start_, end, dest_, layer_, items_, buffer.thread});
}

void SpanSummary::add(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  children.reserve(spans.size());
  for (const auto& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back({span.start, span.end});
    }
  }
  static const std::vector<Interval> kNone;
  for (const auto& span : spans) {
    auto& totals = layers[static_cast<std::size_t>(span.layer)];
    const auto it = children.find(span.id);
    ++totals.spans;
    totals.total_ns += span.end - span.start;
    totals.self_ns += self_time({span.start, span.end},
                                it == children.end() ? kNone : it->second);
    totals.items += span.items;
    if (span.layer == Layer::kDest) {
      root_ms.push_back(static_cast<double>(span.end - span.start) / 1e6);
    }
  }
}

void TimedQueue::submit(std::span<const mmlpt::probe::Datagram> window,
                        mmlpt::probe::Ticket ticket,
                        const mmlpt::probe::SubmitOptions& options) {
  Tracer::Scope span(tracer_, submit_layer_, dest_,
                     static_cast<std::uint32_t>(window.size()));
  ++submits_;
  probes_ += window.size();
  inner_->submit(window, ticket, options);
}

std::vector<mmlpt::probe::Completion> TimedQueue::poll_completions() {
  Tracer::Scope span(tracer_, poll_layer_, dest_);
  return inner_->poll_completions();
}

void SpanFile::keep(const std::vector<Span>& spans) {
  seen_ += spans.size();
  for (const auto& span : spans) {
    if (kept_.size() >= limit_) return;
    kept_.push_back(span);
  }
}

void SpanFile::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "# spans kept=%zu seen=%llu\n", kept_.size(),
               static_cast<unsigned long long>(seen_));
  std::fprintf(out, "id\tparent\tdest\tlayer\tthread\tstart_ns\tend_ns\titems\n");
  for (const auto& s : kept_) {
    std::fprintf(out, "%llx\t%llx\t%lld\t%s\t%u\t%llu\t%llu\t%u\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.dest), layer_name(s.layer), s.thread,
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end), s.items);
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
