#include "fleet/aggregator.h"

namespace jgre::fleet {

DeviceProbe::DeviceProbe(obs::EventBus& bus, std::int32_t victim_pid,
                         std::size_t ring_capacity)
    : bus_(bus), victim_pid_(victim_pid), ring_capacity_(ring_capacity) {
  bus_.Subscribe(this,
                 obs::MaskOf(obs::Category::kJgr) |
                     obs::MaskOf(obs::Category::kIpc),
                 /*pid_filter=*/-1, obs::Delivery::kBuffered);
}

void DeviceProbe::OnEvent(const obs::TraceEvent& event) {
  OnBatch(&event, 1);
}

void DeviceProbe::OnBatch(const obs::TraceEvent* events, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const obs::TraceEvent& event = events[i];
    if (event.category == obs::Category::kIpc) {
      ++ipc_calls_;
      Retain(event);
      continue;
    }
    if (event.category != obs::Category::kJgr || event.pid != victim_pid_) {
      continue;
    }
    // Weak-table mutations (arg0 = weak count) feed their own high-water
    // mark and never the strong-table activity trajectory.
    if (event.name == obs::LabelIdOf(obs::Label::kJgrWeakAdd) ||
        event.name == obs::LabelIdOf(obs::Label::kJgrWeakRemove)) {
      const std::uint64_t weak_after = static_cast<std::uint64_t>(event.arg0);
      if (weak_after > peak_weak_jgr_) peak_weak_jgr_ = weak_after;
      Retain(event);
      continue;
    }
    const std::uint64_t after = static_cast<std::uint64_t>(event.arg0);
    if (event.name == obs::LabelIdOf(obs::Label::kJgrAdd)) {
      ++jgr_adds_;
      ++activity_.adds;
    } else if (event.name == obs::LabelIdOf(obs::Label::kJgrRemove)) {
      ++activity_.removes;
    }
    if (after > peak_jgr_) peak_jgr_ = after;
    if (!saw_jgr_) {
      saw_jgr_ = true;
      activity_.first_count = after;
      activity_.first_ts_us = event.ts_us;
    }
    activity_.last_count = after;
    activity_.last_ts_us = event.ts_us;
    activity_.peak_count = peak_jgr_;
    Retain(event);
  }
}

void DeviceProbe::Retain(const obs::TraceEvent& event) {
  if (ring_capacity_ == 0) return;
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[ring_next_] = event;
  ring_next_ = (ring_next_ + 1) % ring_capacity_;
}

std::vector<obs::TraceEvent> DeviceProbe::Window() const {
  if (ring_.size() < ring_capacity_ || ring_next_ == 0) return ring_;
  std::vector<obs::TraceEvent> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_));
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
