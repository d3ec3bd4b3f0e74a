#include "detect/registry.h"

#include "common/strings.h"
#include "detect/hunts.h"

namespace jgre::detect {

std::string_view DataSourceName(DataSource source) {
  switch (source) {
    case DataSource::kCodeModel:
      return "code_model";
    case DataSource::kAnalysis:
      return "analysis";
    case DataSource::kTraceEvents:
      return "trace_events";
    case DataSource::kFuzzFindings:
      return "fuzz_findings";
    case DataSource::kDefender:
      return "defender";
    case DataSource::kProtocolGraph:
      return "protocol_graph";
  }
  return "?";
}

JgrTable JgrActivity::Fold(const obs::TraceEvent& event,
                           std::int32_t victim_pid) {
  if (event.category != obs::Category::kJgr || event.pid != victim_pid) {
    return JgrTable::kNone;
  }
  if (event.name == obs::LabelIdOf(obs::Label::kJgrWeakAdd) ||
      event.name == obs::LabelIdOf(obs::Label::kJgrWeakRemove)) {
    return JgrTable::kWeak;
  }
  const std::uint64_t after = static_cast<std::uint64_t>(event.arg0);
  if (events == 0) {
    first_count = after;
    first_ts_us = event.ts_us;
  }
  ++events;
  last_count = after;
  last_ts_us = event.ts_us;
  if (after > peak_count) peak_count = after;
  if (event.name == obs::LabelIdOf(obs::Label::kJgrAdd)) {
    ++adds;
  } else if (event.name == obs::LabelIdOf(obs::Label::kJgrRemove)) {
    ++removes;
  }
  return JgrTable::kStrong;
}

JgrActivity FoldJgrActivity(const obs::TraceEvent* events, std::size_t count,
                            std::int32_t victim_pid) {
  JgrActivity activity;
  for (std::size_t i = 0; i < count; ++i) {
    activity.Fold(events[i], victim_pid);
  }
  return activity;
}

Status HuntRegistry::Register(std::unique_ptr<Hunt> hunt) {
  if (hunt == nullptr) return InvalidArgument("HuntRegistry: null hunt");
  if (Find(hunt->id()) != nullptr) {
    return InvalidArgument(
        StrCat("HuntRegistry: duplicate hunt id '", hunt->id(), "'"));
  }
  hunts_.push_back(std::move(hunt));
  return Status::Ok();
}

const Hunt* HuntRegistry::Find(std::string_view id) const {
  for (const std::unique_ptr<Hunt>& hunt : hunts_) {
    if (hunt->id() == id) return hunt.get();
  }
  return nullptr;
}

std::vector<Detection> HuntRegistry::RunAll(
    const DataSources& sources, const Scope& scope,
    std::vector<HuntRunStats>* stats) const {
  const SourceMask available = sources.available();
  std::vector<Detection> out;
  for (const std::unique_ptr<Hunt>& hunt : hunts_) {
    HuntRunStats run;
    run.hunt = std::string(hunt->id());
    const SourceMask required = hunt->required_sources();
    run.missing = static_cast<SourceMask>(required & ~available);
    run.ran = run.missing == 0;
    if (run.ran) {
      std::vector<Detection> found = hunt->Run(sources, scope);
      run.detections = found.size();
      for (Detection& d : found) out.push_back(std::move(d));
    }
    if (stats != nullptr) stats->push_back(std::move(run));
  }
  return out;
}

HuntRegistry HuntRegistry::WithDefaultHunts() {
  HuntRegistry registry;
  // Ids are unique by construction; Register cannot fail here.
  (void)registry.Register(std::make_unique<SiftRuleHunt>());
  (void)registry.Register(std::make_unique<ExhaustionOracleHunt>());
  (void)registry.Register(std::make_unique<ProtocolChainHunt>());
  (void)registry.Register(std::make_unique<AlarmReportHunt>());
  (void)registry.Register(std::make_unique<SlowDripHunt>());
  (void)registry.Register(std::make_unique<DeathRecipientChurnHunt>());
  return registry;
}

}  // namespace jgre::detect
