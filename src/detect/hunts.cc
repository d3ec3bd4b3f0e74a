#include "detect/hunts.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "common/strings.h"
#include "fuzz/oracle.h"

namespace jgre::detect {

namespace {

// Provenance slices are bounded so a detection stays a record, not a dump.
constexpr std::size_t kMaxSliceEvents = 64;

bool IsVictimJgr(const obs::TraceEvent& event, std::int32_t victim_pid) {
  return event.category == obs::Category::kJgr && event.pid == victim_pid;
}

bool IsVictimIpc(const obs::TraceEvent& event, std::int32_t victim_pid) {
  return event.category == obs::Category::kIpc && event.arg0 == victim_pid;
}

bool IsAppUid(std::int32_t uid) { return uid >= kFirstAppUid.value(); }

// The newest `kMaxSliceEvents` events satisfying `keep`, in stream order.
template <typename Pred>
TraceSlice TailSlice(const DataSources& sources, Pred keep) {
  TraceSlice slice;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < sources.trace_event_count; ++i) {
    if (keep(sources.trace_events[i])) ++matched;
  }
  std::size_t skip = matched > kMaxSliceEvents ? matched - kMaxSliceEvents : 0;
  for (std::size_t i = 0; i < sources.trace_event_count; ++i) {
    const obs::TraceEvent& event = sources.trace_events[i];
    if (!keep(event)) continue;
    if (skip > 0) {
      --skip;
      continue;
    }
    slice.events.push_back(event);
  }
  return slice;
}

// The app caller + IPC type pair dominating the victim-directed traffic in
// the observed window, plus the window's app-call total (for concentration).
struct DominantPair {
  std::int32_t uid = -1;
  std::uint64_t type_key = 0;
  std::int64_t calls = 0;
  std::int64_t total_app_calls = 0;

  bool valid() const { return uid >= 0; }
};

DominantPair FindDominantPair(const DataSources& sources,
                              std::int32_t only_uid = -1) {
  std::map<std::pair<std::int32_t, std::uint64_t>, std::int64_t> counts;
  DominantPair out;
  for (std::size_t i = 0; i < sources.trace_event_count; ++i) {
    const obs::TraceEvent& event = sources.trace_events[i];
    if (!IsVictimIpc(event, sources.victim_pid)) continue;
    if (!IsAppUid(event.uid)) continue;
    ++out.total_app_calls;
    if (only_uid >= 0 && event.uid != only_uid) continue;
    ++counts[{event.uid, static_cast<std::uint64_t>(event.arg1)}];
  }
  // Ordered map: ties resolve to the smallest (uid, type) deterministically.
  for (const auto& [pair, count] : counts) {
    if (count > out.calls) {
      out.uid = pair.first;
      out.type_key = pair.second;
      out.calls = count;
    }
  }
  return out;
}

// Names the accused interface from an IPC type key, through the catalog when
// one is wired up.
void AttributeInterface(const DataSources& sources, std::uint64_t type_key,
                        Detection* detection) {
  const std::uint32_t descriptor_id =
      static_cast<std::uint32_t>(type_key >> 32);
  const std::uint32_t code = static_cast<std::uint32_t>(type_key);
  std::string descriptor;
  if (sources.descriptor_name) descriptor = sources.descriptor_name(descriptor_id);
  const CatalogEntry* entry =
      sources.catalog != nullptr && !descriptor.empty()
          ? sources.catalog->Resolve(descriptor, code)
          : nullptr;
  if (entry != nullptr) {
    detection->interface_id = entry->interface_id;
    detection->service = entry->service;
    detection->method = entry->method;
    return;
  }
  detection->service =
      descriptor.empty() ? StrCat("descriptor:", descriptor_id) : descriptor;
  detection->method = StrCat("code", code);
}

// The victim's full-stream JGR activity: the precomputed counters when the
// run supplied them, else folded from the window itself.
JgrActivity ActivityOf(const DataSources& sources) {
  if (!sources.jgr_activity.empty()) return sources.jgr_activity;
  return FoldJgrActivity(sources.trace_events, sources.trace_event_count,
                         sources.victim_pid);
}

std::size_t AlarmThresholdOf(const DataSources& sources) {
  if (sources.defender != nullptr) {
    return sources.defender->config().monitor.alarm_threshold;
  }
  return defense::JgrMonitor::Config{}.alarm_threshold;
}

}  // namespace

// --- SiftRuleHunt ------------------------------------------------------------

std::vector<Detection> SiftRuleHunt::Run(const DataSources& sources,
                                         const Scope& scope) const {
  const analysis::AnalysisReport& report = *sources.analysis;
  std::vector<Detection> out;
  for (const std::size_t index : report.Candidates()) {
    const analysis::AnalyzedInterface& iface = report.interfaces[index];
    if (!scope.AdmitsService(iface.service)) continue;
    Detection d;
    d.hunt = std::string(id());
    d.interface_id = iface.id;
    d.service = iface.service;
    d.method = iface.method;
    d.witness = iface.witness;
    d.certainty =
        d.has_witness() ? Certainty::kStrong : Certainty::kHypothetical;
    d.note = StrCat("risky, unsifted",
                    iface.permission.empty()
                        ? std::string()
                        : StrCat(" (needs ", iface.permission, ")"));
    out.push_back(std::move(d));
  }
  return out;
}

// --- ExhaustionOracleHunt ----------------------------------------------------

std::vector<Detection> ExhaustionOracleHunt::Run(const DataSources& sources,
                                                 const Scope& scope) const {
  std::vector<Detection> out;
  for (const fuzz::Finding& finding : *sources.fuzz_findings) {
    if (!scope.AdmitsService(finding.service)) continue;
    Detection d;
    d.hunt = std::string(id());
    d.interface_id = finding.id;
    d.service = finding.service;
    d.method = finding.method;
    d.growth_per_call = finding.growth_per_call;
    d.certainty = Certainty::kConfirmed;
    d.note = finding.kind == fuzz::ExhaustionKind::kAbort
                 ? std::string("victim aborted during the confirmation probe")
                 : StrCat(fuzz::ExhaustionKindName(finding.kind),
                          " at the confirm bar");
    // The minimized homogeneous witness, replayable as-is.
    const int calls = std::max(finding.minimized_calls, 1);
    d.reproducer.calls.assign(static_cast<std::size_t>(calls),
                              finding.witness);
    out.push_back(std::move(d));
  }
  return out;
}

// --- ProtocolChainHunt -------------------------------------------------------

std::vector<Detection> ProtocolChainHunt::Run(const DataSources& sources,
                                              const Scope& scope) const {
  const analysis::AnalysisReport& report = *sources.analysis;
  const analysis::protocol::ProtocolGraph& graph = *sources.protocol;

  std::vector<Detection> out;
  std::set<std::size_t> accused;
  for (const analysis::protocol::ProtocolChain& chain : graph.chains()) {
    const std::size_t terminal = chain.entries.back();
    if (!accused.insert(terminal).second) continue;
    const analysis::AnalyzedInterface& sink = report.interfaces[terminal];
    if (!scope.AdmitsService(sink.service)) continue;

    Detection d;
    d.hunt = std::string(id());
    d.interface_id = sink.id;
    d.service = sink.service;
    d.method = sink.method;
    // The static chain as provenance: the minted domains hopped and the
    // entry path A → B → sink, plus the terminal's own taint witness down to
    // IndirectReferenceTable::Add.
    std::string path;
    for (std::size_t j = 0; j < chain.entries.size(); ++j) {
      if (j > 0) path += " \xe2\x86\x92 ";  // " → "
      path += report.interfaces[chain.entries[j]].id;
    }
    const analysis::protocol::ProtocolEdge& last =
        graph.edges()[chain.edge_ids.back()];
    d.note = StrCat("retains ", model::ValueKindName(last.kind), " minted by ",
                    chain.multi_service ? "another service" : "the same service",
                    ": ", path);
    d.witness = sink.witness;
    d.certainty = Certainty::kStrong;

    // Fuse with the campaign when the run supplies one: a confirmed finding
    // on the terminal upgrades the chain to a reproduced exhaustion.
    if (sources.fuzz_findings != nullptr) {
      for (const fuzz::Finding& finding : *sources.fuzz_findings) {
        if (finding.id != sink.id) continue;
        d.growth_per_call = finding.growth_per_call;
        d.reproducer.calls.assign(
            static_cast<std::size_t>(std::max(finding.minimized_calls, 1)),
            finding.witness);
        d.certainty = Certainty::kConfirmed;
        break;
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

// --- AlarmReportHunt ---------------------------------------------------------

std::vector<Detection> AlarmReportHunt::Run(const DataSources& sources,
                                            const Scope& scope) const {
  std::vector<Detection> out;
  for (const defense::JgreDefender::IncidentReport& incident :
       sources.defender->incidents()) {
    const defense::JgreDefender::ScoreEntry* top =
        incident.ranking.empty() ? nullptr : &incident.ranking.front();
    if (top != nullptr && !scope.AdmitsUid(top->uid)) continue;

    Detection d;
    d.hunt = std::string(id());
    // The alarm-to-report window of the victim's JGR stream (what the
    // monitor recorded), bounded to the newest events.
    d.trace = TailSlice(sources, [&](const obs::TraceEvent& event) {
      return IsVictimJgr(event, sources.victim_pid) &&
             event.ts_us >= incident.alarm_at &&
             (incident.reported_at == 0 || event.ts_us <= incident.reported_at);
    });
    if (d.trace.empty()) {
      // Window evicted from the ring: fall back to the newest victim JGR
      // events so the incident still carries observed evidence.
      d.trace = TailSlice(sources, [&](const obs::TraceEvent& event) {
        return IsVictimJgr(event, sources.victim_pid);
      });
    }
    // Attribution: the top-ranked caller's dominant IPC type.
    if (top != nullptr) {
      const DominantPair pair =
          FindDominantPair(sources, top->uid.value());
      if (pair.valid()) AttributeInterface(sources, pair.type_key, &d);
    }
    if (d.service.empty()) {
      d.service = incident.victim;
      d.method = "jgr-exhaustion";
    }
    d.certainty = d.has_trace() ? Certainty::kStrong : Certainty::kWeak;
    d.note = StrCat(
        "monitor alarm at ", incident.alarm_at, "us, reported at ",
        incident.reported_at, "us, ", incident.jgr_at_report, " JGRs",
        top == nullptr
            ? std::string()
            : StrCat("; top caller uid ", top->uid.value(), " (", top->package,
                     ", score ", top->score, ")"));
    out.push_back(std::move(d));
  }
  return out;
}

// --- SlowDripHunt ------------------------------------------------------------

std::vector<Detection> SlowDripHunt::Run(const DataSources& sources,
                                         const Scope& scope) const {
  // An incident means the monitor caught the attack — that is the alarm
  // hunt's detection, not a drip.
  if (sources.defender != nullptr &&
      !sources.defender->incidents().empty()) {
    return {};
  }
  const JgrActivity activity = ActivityOf(sources);
  const std::size_t alarm_threshold = AlarmThresholdOf(sources);
  if (activity.peak_count >= alarm_threshold) return {};  // not under the radar
  if (activity.span_us() < tuning_.min_span_us) return {};
  if (activity.net_growth() < tuning_.min_net_growth) return {};
  const double adds_per_sec = activity.adds_per_sec();
  if (adds_per_sec > tuning_.max_adds_per_sec) return {};  // a flood profile

  Detection d;
  d.hunt = std::string(id());
  const DominantPair pair = FindDominantPair(sources);
  if (pair.valid()) {
    if (!scope.AdmitsUid(Uid{pair.uid})) return {};
    AttributeInterface(sources, pair.type_key, &d);
  } else {
    d.service = sources.victim_name.empty() ? "victim" : sources.victim_name;
    d.method = "slow-drip";
  }
  if (!scope.AdmitsService(d.service)) return {};
  d.trace = TailSlice(sources, [&](const obs::TraceEvent& event) {
    return IsVictimJgr(event, sources.victim_pid);
  });
  d.certainty = activity.net_growth() >= tuning_.strong_net_growth
                    ? Certainty::kStrong
                    : Certainty::kWeak;
  d.note = StrCat("net +", activity.net_growth(), " JGRs over ",
                  activity.span_us() / 1'000'000, "s at ~",
                  static_cast<std::int64_t>(adds_per_sec),
                  " adds/s, peak ", activity.peak_count,
                  " under alarm threshold ", alarm_threshold);
  return {std::move(d)};
}

// --- DeathRecipientChurnHunt -------------------------------------------------

std::vector<Detection> DeathRecipientChurnHunt::Run(const DataSources& sources,
                                                    const Scope& scope) const {
  const JgrActivity activity = ActivityOf(sources);
  if (activity.adds < tuning_.min_adds) return {};
  const double remove_ratio =
      static_cast<double>(activity.removes) /
      static_cast<double>(activity.adds);
  if (remove_ratio < tuning_.min_remove_ratio) return {};
  const std::int64_t net = activity.net_growth();
  if (net > tuning_.max_net_growth || net < -tuning_.max_net_growth) {
    return {};
  }
  // The churn must be concentrated: one caller hammering one interface. A
  // benign population churns too, but spread across services. Concentration
  // is measured over the observed IPC window.
  const DominantPair pair = FindDominantPair(sources);
  if (!pair.valid() || pair.calls < tuning_.min_top_calls) return {};
  const double concentration =
      static_cast<double>(pair.calls) /
      static_cast<double>(pair.total_app_calls);
  if (concentration < tuning_.min_concentration) return {};
  if (!scope.AdmitsUid(Uid{pair.uid})) return {};

  Detection d;
  d.hunt = std::string(id());
  AttributeInterface(sources, pair.type_key, &d);
  if (!scope.AdmitsService(d.service)) return {};
  // Corroboration from the static layer: a member-slot (replace-single) or
  // death-linking interface makes the churn mechanism concrete.
  bool corroborated = false;
  if (sources.analysis != nullptr && !d.interface_id.empty()) {
    for (const analysis::AnalyzedInterface& iface :
         sources.analysis->interfaces) {
      if (iface.id != d.interface_id) continue;
      corroborated =
          iface.retention == analysis::taint::Retention::kMemberSlot ||
          iface.links_to_death;
      break;
    }
  }
  d.trace = TailSlice(sources, [&](const obs::TraceEvent& event) {
    return IsVictimJgr(event, sources.victim_pid) ||
           (IsVictimIpc(event, sources.victim_pid) &&
            event.uid == pair.uid &&
            static_cast<std::uint64_t>(event.arg1) == pair.type_key);
  });
  d.certainty = corroborated ? Certainty::kStrong : Certainty::kWeak;
  d.note = StrCat(activity.adds, " adds / ", activity.removes,
                  " removes (net ", net, "), uid ", pair.uid, " drove ",
                  pair.calls, " of ", pair.total_app_calls,
                  " observed app calls",
                  corroborated ? "; member-slot/death-link corroborated"
                               : "");
  return {std::move(d)};
}

}  // namespace jgre::detect
