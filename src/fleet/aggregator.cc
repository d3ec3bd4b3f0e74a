#include "fleet/aggregator.h"

#include <algorithm>

namespace jgre::fleet {

DeviceProbe::DeviceProbe(obs::EventBus& bus, std::int32_t victim_pid)
    : bus_(bus), victim_pid_(victim_pid) {
  bus_.Subscribe(this, obs::MaskOf(obs::Category::kJgr) |
                           obs::MaskOf(obs::Category::kIpc));
}

void DeviceProbe::OnEvent(const obs::TraceEvent& event) {
  if (event.category == obs::Category::kIpc) {
    ++ipc_calls_;
  } else {
    switch (activity_.Fold(event, victim_pid_)) {
      case detect::JgrTable::kNone:
        return;
      case detect::JgrTable::kWeak:  // arg0 = weak count after the op
        peak_weak_jgr_ = std::max(peak_weak_jgr_,
                                  static_cast<std::uint64_t>(event.arg0));
        break;
      case detect::JgrTable::kStrong:
        break;
    }
  }
  window_.Push(event);
}

std::vector<obs::TraceEvent> DeviceProbe::Window() const {
  std::vector<obs::TraceEvent> out;
  out.reserve(window_.size());
  for (std::uint64_t i = window_.first_index(); i < window_.end_index(); ++i) {
    out.push_back(window_.At(i));
  }
  return out;
}

void FleetAggregator::Absorb(const DeviceOutcome& outcome) {
  ++devices_;
  ClassStats& stats = classes_[outcome.scenario_class];
  ++stats.devices;
  if (outcome.incident) ++stats.incidents;
  if (outcome.exhausted) {
    ++stats.exhausted;
    stats.tte_us.Add(static_cast<std::uint64_t>(outcome.time_to_exhaustion_us));
  }
  if (outcome.exhausted_within_horizon) ++stats.exhausted_within_horizon;
  if (outcome.attacker_killed) ++stats.attacker_kills;
  stats.ipc_calls += outcome.ipc_calls;
  stats.jgr_adds += outcome.jgr_adds;
  stats.denied_attacker_calls += outcome.denied_attacker_calls;
  stats.denied_benign_calls += outcome.denied_benign_calls;
  stats.benign_kills += outcome.benign_kills;
  if (outcome.attacker.stopped_by_denial) ++stats.denial_stops;
  stats.peak_jgr.Add(outcome.peak_jgr);
  for (const auto& [hunt, hits] : outcome.hunt_hits) {
    stats.hunt_hits[hunt] += hits;
  }
}

void FleetAggregator::ClassStats::Add(const ClassStats& other) {
  devices += other.devices;
  incidents += other.incidents;
  exhausted += other.exhausted;
  exhausted_within_horizon += other.exhausted_within_horizon;
  attacker_kills += other.attacker_kills;
  ipc_calls += other.ipc_calls;
  jgr_adds += other.jgr_adds;
  denied_attacker_calls += other.denied_attacker_calls;
  denied_benign_calls += other.denied_benign_calls;
  benign_kills += other.benign_kills;
  denial_stops += other.denial_stops;
  tte_us.Merge(other.tte_us);
  peak_jgr.Merge(other.peak_jgr);
  for (const auto& [hunt, hits] : other.hunt_hits) hunt_hits[hunt] += hits;
}

void FleetAggregator::MergeFrom(const FleetAggregator& other) {
  devices_ += other.devices_;
  for (const auto& [name, theirs] : other.classes_) classes_[name].Add(theirs);
}

namespace {

harness::Json SketchJson(const QuantileSketch& sketch) {
  harness::Json j = harness::Json::Object();
  j.Set("count", sketch.count());
  j.Set("min", sketch.min_value());
  j.Set("p50", sketch.Quantile(0.50));
  j.Set("p90", sketch.Quantile(0.90));
  j.Set("p99", sketch.Quantile(0.99));
  j.Set("max", sketch.max_value());
  return j;
}

double Rate(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

harness::Json FleetAggregator::StatsJson(const ClassStats& stats) {
  harness::Json j = harness::Json::Object();
  j.Set("devices", stats.devices);
  j.Set("incidents", stats.incidents);
  j.Set("incident_rate", Rate(stats.incidents, stats.devices));
  j.Set("exhausted", stats.exhausted);
  j.Set("exhausted_rate", Rate(stats.exhausted, stats.devices));
  j.Set("soft_reboot_within_horizon_rate",
        Rate(stats.exhausted_within_horizon, stats.devices));
  j.Set("attacker_kills", stats.attacker_kills);
  j.Set("ipc_calls", stats.ipc_calls);
  j.Set("jgr_adds", stats.jgr_adds);
  j.Set("denied_attacker_calls", stats.denied_attacker_calls);
  j.Set("denied_benign_calls", stats.denied_benign_calls);
  j.Set("benign_kills", stats.benign_kills);
  j.Set("denial_stops", stats.denial_stops);
  j.Set("time_to_exhaustion_us", SketchJson(stats.tte_us));
  j.Set("peak_jgr", SketchJson(stats.peak_jgr));
  harness::Json hunts = harness::Json::Object();
  for (const auto& [hunt, hits] : stats.hunt_hits) {
    hunts.Set(hunt, hits);
  }
  j.Set("hunt_hits", std::move(hunts));
  return j;
}

harness::Json FleetAggregator::ToJson() const {
  harness::Json doc = harness::Json::Object();
  doc.Set("devices", devices_);
  ClassStats overall;
  for (const auto& [name, stats] : classes_) overall.Add(stats);
  doc.Set("overall", StatsJson(overall));
  harness::Json classes = harness::Json::Object();
  for (const auto& [name, stats] : classes_) {
    classes.Set(name, StatsJson(stats));
  }
  doc.Set("scenario_classes", std::move(classes));
  return doc;
}

}  // namespace jgre::fleet
