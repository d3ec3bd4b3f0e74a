#include "obs/metrics.h"

#include <algorithm>

namespace jgre::obs {

std::int64_t& MetricsRegistry::Counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), 0).first;
  }
  return it->second;
}

double& MetricsRegistry::Gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), 0.0).first;
  }
  return it->second;
}

Summary& MetricsRegistry::Histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Summary{}).first;
  }
  return it->second;
}

void MetricsRegistry::GaugeMax(std::string_view name, double value) {
  double& gauge = Gauge(name);
  gauge = std::max(gauge, value);
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) Counter(name) += value;
  for (const auto& [name, value] : other.gauges_) GaugeMax(name, value);
  for (const auto& [name, summary] : other.histograms_) {
    Summary& mine = Histogram(name);
    for (double sample : summary.samples()) mine.Add(sample);
  }
}

MetricsSink::MetricsSink(MetricsRegistry* registry)
    : registry_(registry),
      jgr_adds_(&registry->Counter("jgr.adds")),
      jgr_removes_(&registry->Counter("jgr.removes")),
      ipc_calls_(&registry->Counter("ipc.calls")),
      jgr_peak_(&registry->Gauge("jgr.peak")) {}

void MetricsSink::OnEvent(const TraceEvent& event) {
  switch (event.category) {
    case Category::kJgr:
      if (event.name == LabelIdOf(Label::kJgrAdd)) {
        ++*jgr_adds_;
        const double count_after = static_cast<double>(event.arg0);
        if (count_after > *jgr_peak_) *jgr_peak_ = count_after;
      } else if (event.name == LabelIdOf(Label::kJgrRemove)) {
        ++*jgr_removes_;
      } else if (event.name == LabelIdOf(Label::kJgrOverflow)) {
        ++registry_->Counter("jgr.overflows");
      }
      break;
    case Category::kIpc:
      ++*ipc_calls_;
      break;
    case Category::kGc:
      ++registry_->Counter("gc.runs");
      registry_->Counter("gc.freed_refs") += event.arg0;
      registry_->Histogram("gc.pause_us").Add(
          static_cast<double>(event.dur_us));
      break;
    case Category::kLmk:
      if (event.name == LabelIdOf(Label::kLmkKill)) {
        ++registry_->Counter("lmk.kills");
      } else if (event.name == LabelIdOf(Label::kProcessKill)) {
        ++registry_->Counter("proc.kills");
      } else if (event.name == LabelIdOf(Label::kSoftReboot)) {
        ++registry_->Counter("proc.soft_reboots");
      }
      break;
    case Category::kDefense:
      if (event.name == LabelIdOf(Label::kMonitorAlarm)) {
        ++registry_->Counter("defense.alarms");
      } else if (event.name == LabelIdOf(Label::kMonitorReport)) {
        ++registry_->Counter("defense.reports");
      } else if (event.name == LabelIdOf(Label::kIncidentIdentified)) {
        ++registry_->Counter("defense.incidents");
        registry_->Histogram("defense.response_delay_ms")
            .Add(static_cast<double>(event.arg1) / 1000.0);
      } else if (event.name == LabelIdOf(Label::kDefenseKill)) {
        ++registry_->Counter("defense.kills");
      } else if (event.name == LabelIdOf(Label::kIncidentRecovered)) {
        if (event.arg1 != 0) ++registry_->Counter("defense.recovered");
      }
      break;
  }
}

}  // namespace jgre::obs
