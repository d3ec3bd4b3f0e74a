// Hunt — one detection strategy over whatever evidence a run produced.
//
// The registry pattern (hunt libraries like BLUESPAWN popularized it for
// host-based detection) adapted to the JGRE pipeline: each hunt declares the
// DataSources it needs — the static analysis report, the observed trace, the
// fuzz campaign's findings, the live defender — and the HuntRegistry
// schedules exactly the hunts whose requirements the run can satisfy. A
// static-only run executes the sift-rule hunt; a fleet device run executes
// the trace-driven hunts; a full census run executes all of them and fuses.
//
// Hunts are pure functions of their sources: same sources, same detections,
// in a deterministic order — the property that keeps BENCH_detect.json
// byte-identical for any --jobs.
#ifndef JGRE_DETECT_HUNT_H_
#define JGRE_DETECT_HUNT_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/protocol/protocol_graph.h"
#include "common/types.h"
#include "defense/jgre_defender.h"
#include "detect/catalog.h"
#include "detect/detection.h"
#include "fuzz/campaign.h"
#include "model/code_model.h"
#include "obs/event.h"

namespace jgre::detect {

// The evidence modalities a run can supply. A hunt's required_sources() is a
// mask over these; the registry runs a hunt iff every required bit is
// available.
enum class DataSource : std::uint8_t {
  kCodeModel = 0,   // model::CodeModel
  kAnalysis,        // analysis::AnalysisReport (taint summaries + witnesses)
  kTraceEvents,     // an observed TraceEvent window (+ JGR activity stats)
  kFuzzFindings,    // fuzz::Finding list from a campaign
  kDefender,        // live defense::JgreDefender (incident reports)
  kProtocolGraph,   // analysis::protocol::ProtocolGraph (cross-call chains)
};

using SourceMask = std::uint8_t;

constexpr SourceMask MaskOf(DataSource source) {
  return static_cast<SourceMask>(1u << static_cast<unsigned>(source));
}

std::string_view DataSourceName(DataSource source);

// What part of the system a run asks the hunts to look at. Empty sets admit
// everything — the default scope is the whole device.
struct Scope {
  std::set<std::string> services;  // service-manager names
  std::set<Uid> uids;              // suspected caller uids

  bool AdmitsService(const std::string& service) const {
    return services.empty() || services.count(service) > 0;
  }
  bool AdmitsUid(Uid uid) const { return uids.empty() || uids.count(uid) > 0; }
};

// Which of a victim runtime's reference tables a kJgr event mutated; kNone
// for other categories and other pids.
enum class JgrTable : std::uint8_t { kNone, kStrong, kWeak };

// Full-run aggregates over a victim runtime's JGR stream. The trace window
// handed to hunts is bounded (a ring of the most recent events), so rates
// and net growth are computed from these full-stream counters, never from
// the window — the window is provenance, not the measurement.
struct JgrActivity {
  std::int64_t adds = 0;
  std::int64_t removes = 0;
  std::uint64_t events = 0;       // strong-table events folded
  std::uint64_t first_count = 0;  // table size at the first observed event
  std::uint64_t last_count = 0;   // ... and at the last
  std::uint64_t peak_count = 0;
  TimeUs first_ts_us = 0;
  TimeUs last_ts_us = 0;

  // The one rule for which events count: folds `event` when it is one of
  // `victim_pid`'s strong-table kJgr events and returns the table it
  // mutated. Weak-table mutations carry the weak count in arg0, so they are
  // reported (kWeak) but never folded into the strong-table trajectory.
  JgrTable Fold(const obs::TraceEvent& event, std::int32_t victim_pid);

  bool empty() const { return adds == 0 && removes == 0; }
  std::int64_t net_growth() const {
    return static_cast<std::int64_t>(last_count) -
           static_cast<std::int64_t>(first_count);
  }
  DurationUs span_us() const {
    return last_ts_us > first_ts_us ? last_ts_us - first_ts_us : 0;
  }
  // Observed JGR creations per second of victim time (0 for an empty span).
  double adds_per_sec() const {
    const DurationUs span = span_us();
    return span == 0 ? 0.0
                     : static_cast<double>(adds) * 1e6 /
                           static_cast<double>(span);
  }
};

// Folds a victim's kJgr events into activity counters (tests and consumers
// without a streaming probe; the fleet's DeviceProbe folds the same events
// incrementally over the full run).
JgrActivity FoldJgrActivity(const obs::TraceEvent* events, std::size_t count,
                            std::int32_t victim_pid);

// Everything a run can hand to its hunts. Raw pointers are non-owning and
// may be null — available() reports which modalities are actually present,
// and the registry never runs a hunt whose requirements are missing.
struct DataSources {
  const model::CodeModel* code_model = nullptr;
  const analysis::AnalysisReport* analysis = nullptr;

  // The observed trace window (any categories; hunts filter) plus the
  // victim's full-stream JGR activity.
  const obs::TraceEvent* trace_events = nullptr;
  std::size_t trace_event_count = 0;
  JgrActivity jgr_activity;
  std::int32_t victim_pid = -1;
  std::string victim_name;

  const std::vector<fuzz::Finding>* fuzz_findings = nullptr;

  const defense::JgreDefender* defender = nullptr;

  // Cross-transaction dataflow graph built from the same analysis report.
  // Chains index into analysis->interfaces, so a run wiring `protocol` must
  // wire the matching `analysis` (the registry enforces this by mask).
  const analysis::protocol::ProtocolGraph* protocol = nullptr;

  // Resolves an interned descriptor id (the high half of a kIpc event's
  // type key) back to the interface string. Bound to the run's binder driver
  // when IPC attribution is possible.
  std::function<std::string(std::uint32_t)> descriptor_name;
  // Optional (descriptor, code) -> interface identity table. With it, trace
  // hunts accuse the same code-model ids the static/fuzz hunts use, so the
  // fuser can join across modalities; without it they key on
  // "<descriptor>#<code>".
  const InterfaceCatalog* catalog = nullptr;

  SourceMask available() const {
    SourceMask mask = 0;
    if (code_model != nullptr) mask |= MaskOf(DataSource::kCodeModel);
    if (analysis != nullptr) mask |= MaskOf(DataSource::kAnalysis);
    if (trace_events != nullptr) mask |= MaskOf(DataSource::kTraceEvents);
    if (fuzz_findings != nullptr) mask |= MaskOf(DataSource::kFuzzFindings);
    if (defender != nullptr) mask |= MaskOf(DataSource::kDefender);
    if (protocol != nullptr) mask |= MaskOf(DataSource::kProtocolGraph);
    return mask;
  }
};

// One detection strategy. Implementations are stateless between runs: Run()
// must be const and a pure function of (sources, scope).
class Hunt {
 public:
  virtual ~Hunt() = default;

  // Stable id, "<layer>.<name>" ("static.sift-rules", "followup.slow-drip").
  // Registry keys, fleet census counters, and JSON output all use it.
  virtual std::string_view id() const = 0;
  virtual std::string_view description() const = 0;
  virtual SourceMask required_sources() const = 0;

  virtual std::vector<Detection> Run(const DataSources& sources,
                                     const Scope& scope) const = 0;
};

}  // namespace jgre::detect

#endif  // JGRE_DETECT_HUNT_H_
