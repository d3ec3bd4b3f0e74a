// MetricsRegistry — named counters, gauges and histograms per simulation.
//
// Replaces the ad-hoc tallies each bench hand-rolled. Counters are additive
// int64s, gauges are merge-by-max doubles (peaks — the only gauge semantics
// the figures need), histograms reuse common/stats' Summary. Storage is
// std::map so iteration — and therefore every export — is in lexicographic
// name order: merged output is byte-stable regardless of insertion order.
//
// Per-task registries from a --jobs-wide bench run are combined with
// Merge() in submission order, keeping the determinism contract: the merged
// table is identical for any worker count.
#ifndef JGRE_OBS_METRICS_H_
#define JGRE_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.h"
#include "obs/event.h"

namespace jgre::obs {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = default;
  MetricsRegistry& operator=(const MetricsRegistry&) = default;

  // References are stable across later registrations (std::map nodes).
  std::int64_t& Counter(std::string_view name);
  double& Gauge(std::string_view name);
  Summary& Histogram(std::string_view name);

  // Raises `name` to at least `value` (gauges record peaks).
  void GaugeMax(std::string_view name, double value);

  // Folds `other` in: counters add, gauges take the max, histogram samples
  // append (in `other`'s sample order).
  void Merge(const MetricsRegistry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  const std::map<std::string, std::int64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Summary, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Summary, std::less<>> histograms_;
};

// EventSink that folds the event stream into a registry: per-category event
// counts plus the derived metrics the paper's figures care about (JGR peak,
// GC pause distribution, defense response delay, kill counts). Subscribing
// one of these is what `--metrics` does.
class MetricsSink : public EventSink {
 public:
  explicit MetricsSink(MetricsRegistry* registry);

  void OnEvent(const TraceEvent& event) override;

 private:
  MetricsRegistry* registry_;
  // Hot counters cached once; everything else is looked up on the (rare)
  // matching event.
  std::int64_t* jgr_adds_;
  std::int64_t* jgr_removes_;
  std::int64_t* ipc_calls_;
  double* jgr_peak_;
};

}  // namespace jgre::obs

#endif  // JGRE_OBS_METRICS_H_
