// Host-time spans recorded from the benchmark's side of each call into a
// simulator layer. A span is (name, start, end, parent, thread); spans are
// kept in memory per thread and written out once, when the traced run ends.
//
// Recording is off unless SetTracing(true) was called: an untraced run
// constructs the same ScopedSpan objects, and each one costs a single
// branch.
#ifndef JGRE_E2EBENCH_SPANS_H_
#define JGRE_E2EBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  const char* name = "";  // static string: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t thread = 0;
};

void SetTracing(bool on);
bool TracingOn();

// Times its own lifetime. The parent is the span open on this thread unless
// given explicitly (a pool task names the span that submitted it).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, std::uint64_t parent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // 0 when tracing is off.
  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  std::uint64_t outer_ = 0;  // the thread's open span before this one
};

// Every span recorded so far, from every thread. Call only after the pool
// threads that recorded them have been joined.
std::vector<Span> CollectSpans();

// Per-name reduction of a span set.
struct SpanStats {
  std::vector<double> durations_ms;
  double total_ms = 0.0;
  // Duration minus the part of the span's interval its child spans cover.
  double self_ms = 0.0;
};
std::map<std::string, SpanStats> ReduceSpans(const std::vector<Span>& spans);

// Chrome-trace JSON ("X" events; parent in args). False if the write fails.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace e2e

#endif  // JGRE_E2EBENCH_SPANS_H_
