#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace e2e {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};

std::int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// Per-thread buffers live in this registry, not in thread_local storage:
// the harness pool joins and destroys its threads after every batch, and
// the spans must outlive them.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

struct ThreadState {
  std::vector<Span>* buffer = nullptr;
  std::uint32_t thread = 0;
  std::uint64_t open = 0;
};

ThreadState& Local() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(std::make_unique<std::vector<Span>>());
    state.buffer = registry.buffers.back().get();
    state.thread = static_cast<std::uint32_t>(registry.buffers.size());
  }
  return state;
}

// The id of the span open on the calling thread (0 if none).
std::uint64_t CurrentSpan() { return TracingOn() ? Local().open : 0; }

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name) : ScopedSpan(name, CurrentSpan()) {}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent) {
  if (!TracingOn()) return;
  ThreadState& local = Local();
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent;
  span_.thread = local.thread;
  outer_ = local.open;
  local.open = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = NowNs();
  ThreadState& local = Local();
  local.open = outer_;
  local.buffer->push_back(span_);
}

std::vector<Span> CollectSpans() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<Span> all;
  for (const auto& buffer : registry.buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::map<std::string, SpanStats> ReduceSpans(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back({span.start_ns, span.end_ns});
    }
  }
  std::map<std::string, SpanStats> out;
  for (const Span& span : spans) {
    const std::int64_t duration = span.end_ns - span.start_ns;
    // Union of the children's intervals, clipped to the span: children on
    // other threads overlap each other, and a parent waiting on them is
    // covered once, not once per child.
    std::int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      std::int64_t reach = span.start_ns;
      for (const auto& [start, end] : kids) {
        const std::int64_t from = std::max(start, reach);
        const std::int64_t to = std::min(end, span.end_ns);
        if (to > from) {
          covered += to - from;
          reach = to;
        }
      }
    }
    SpanStats& stats = out[span.name];
    const double ms = static_cast<double>(duration) / 1e6;
    stats.durations_ms.push_back(ms);
    stats.total_ms += ms;
    stats.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace e2e
