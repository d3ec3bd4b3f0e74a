#include "defense/jgre_defender.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "services/activity_service.h"

namespace jgre::defense {

constexpr char kIpcLogPath[] = "/proc/jgre_ipc_log";

JgreDefender::JgreDefender(core::AndroidSystem* system, Config config)
    : system_(system), config_(config) {}

JgreDefender::JgreDefender(core::AndroidSystem* system)
    : JgreDefender(system, Config{}) {}

JgreDefender::~JgreDefender() {
  if (installed_) {
    system_->SetPumpExtension(nullptr);
    system_->SetPostRebootHook(nullptr);
    // Restore keeps procfs providers, and this one captures `this`.
    system_->kernel().procfs().Unregister(kIpcLogPath);
    hub_.reset();  // unsubscribes its kJgr route
    if (tap_ != nullptr) system_->kernel().bus().Unsubscribe(tap_.get());
  }
}

void JgreDefender::DetachMonitor(const std::string& name) {
  auto it = monitors_.find(name);
  if (it == monitors_.end()) return;
  if (hub_ != nullptr) hub_->Detach(it->second.get());
}

void JgreDefender::Install() {
  if (installed_) return;
  installed_ = true;
  // Extended binder driver: log every transaction (paper Fig 10's overhead).
  system_->driver().SetDefenseLogging(true);
  // Export the log through procfs, readable by system services only.
  system_->kernel().procfs().Register(
      kIpcLogPath,
      [this] { return system_->driver().RenderIpcLogProcfs(); },
      /*system_only=*/true);
  // The defender is a standalone system service in its own process — it must
  // survive a system_server abort to handle the incident that caused it.
  os::Kernel::ProcessConfig pc;
  pc.with_runtime = true;
  pc.boot_class_refs = 60;
  pc.memory_kb = 12 * 1024;
  pc.oom_score_adj = os::kPersistentProcAdj;
  defender_pid_ =
      system_->kernel().CreateProcess("jgre_defender", kSystemUid, pc);

  // The defender's IPC tap: every kernel-side transaction record arrives as
  // a bus event — no more polling the procfs log. The tap is a pure log, so
  // it rides the bus's buffered (batched) delivery; RankApps flushes the bus
  // before reading it.
  tap_ = std::make_unique<IpcTap>(config_.ipc_event_capacity);
  system_->kernel().bus().Subscribe(tap_.get(),
                                    obs::MaskOf(obs::Category::kIpc),
                                    /*pid_filter=*/-1, obs::Delivery::kBuffered);

  // One kJgr subscription for all monitors, routed by victim pid.
  hub_ = std::make_unique<JgrMonitorHub>(&system_->kernel().bus());
  AttachMonitors();
  system_->SetPumpExtension([this] { Check(); });
  system_->SetPostRebootHook([this] { AttachMonitors(); });
  JGRE_LOG(kInfo, "JgreDefender") << "installed (alarm="
                                  << config_.monitor.alarm_threshold
                                  << ", report="
                                  << config_.monitor.report_threshold << ")";
}

void JgreDefender::AttachMonitors() {
  // (Re-)attach to the current incarnation of each protected runtime: each
  // monitor gets a hub route for the victim pid's kJgr events. A soft reboot
  // gives system_server a new pid, so the route is rebuilt here by the
  // post-reboot hook.
  obs::EventBus& bus = system_->kernel().bus();
  auto attach = [this, &bus](const std::string& name, Pid victim_pid) {
    if (!victim_pid.valid()) return;
    // Drop the old route before the old monitor is destroyed by the map
    // assignment (also avoids double observation when AttachMonitors is
    // called redundantly).
    DetachMonitor(name);
    auto monitor = std::make_unique<JgrMonitor>(&system_->clock(), name,
                                                config_.monitor);
    monitor->set_source(obs::Source{&bus, victim_pid.value(), -1});
    hub_->Attach(victim_pid, monitor.get());
    monitors_[name] = std::move(monitor);
  };
  attach("system_server", system_->system_server_pid());
  for (const char* pkg : {"com.android.bluetooth", "com.svox.pico"}) {
    services::AppProcess* app = system_->FindApp(pkg);
    if (app != nullptr && app->alive()) attach(pkg, app->pid());
  }
}

JgrMonitor* JgreDefender::MonitorFor(const std::string& victim_name) {
  auto it = monitors_.find(victim_name);
  return it == monitors_.end() ? nullptr : it->second.get();
}

Pid JgreDefender::VictimPid(const std::string& victim_name) const {
  if (victim_name == "system_server") return system_->system_server_pid();
  services::AppProcess* app = system_->FindApp(victim_name);
  return app == nullptr ? Pid{} : app->pid();
}

std::size_t JgreDefender::VictimJgrCount(const std::string& victim_name) const {
  if (victim_name == "system_server") {
    return system_->SystemServerJgrCount();
  }
  services::AppProcess* app = system_->FindApp(victim_name);
  if (app == nullptr || !app->alive() || app->runtime() == nullptr) return 0;
  return app->runtime()->JgrCount();
}

void JgreDefender::Check() {
  for (auto& [name, monitor] : monitors_) {
    if (monitor->reported()) {
      RunIncident(name, monitor.get());
    }
  }
}

std::vector<JgreDefender::ScoreEntry> JgreDefender::RankApps(
    const JgrMonitor& monitor, Pid victim_pid, const ScoringParams& params,
    ScoringCost* cost) {
  // Score the trailing analysis window (see ScoringParams::analysis_window_us)
  // of the recording, never anything before the alarm.
  const TimeUs reference =
      monitor.reported() ? monitor.reported_at() : system_->clock().NowUs();
  TimeUs window_start = monitor.alarm_at();
  if (params.analysis_window_us > 0 &&
      reference > params.analysis_window_us &&
      reference - params.analysis_window_us > window_start) {
    window_start = reference - params.analysis_window_us;
  }

  // Phase 2, step 1: replay the captured IPC records. Per-app IPC events
  // targeting the victim since the alarm; system uids are exempt: the
  // defender only ever kills apps (LMK-style policy). The ranking reads the
  // defender's own bus-fed tap (kIpc events carry the exact MakeIpcTypeKey
  // packing in arg1), so Install() is a precondition. The tap is on
  // buffered delivery; drain staged events before reading the ring.
  if (tap_ == nullptr) return {};
  system_->kernel().bus().Flush();
  std::map<Uid, std::vector<IpcEvent>> calls_by_app;
  std::size_t parsed_records = 0;
  const RingBuffer<obs::TraceEvent>& ring = tap_->ring();
  for (std::uint64_t i = ring.first_index(); i < ring.end_index(); ++i) {
    const obs::TraceEvent& e = ring.At(i);
    ++parsed_records;
    if (e.ts_us < window_start) continue;
    if (e.arg0 != victim_pid.value()) continue;
    if (e.uid < kFirstAppUid.value()) continue;
    calls_by_app[Uid{e.uid}].push_back(
        IpcEvent{e.ts_us, static_cast<IpcTypeKey>(e.arg1)});
  }
  // Reading + parsing the records costs real time (part of the response
  // delay).
  system_->clock().AdvanceUs(static_cast<DurationUs>(parsed_records) *
                             config_.ipc_record_parse_us);

  std::vector<TimeUs> jgr_adds = monitor.AddTimes();
  jgr_adds.erase(std::remove_if(jgr_adds.begin(), jgr_adds.end(),
                                [window_start](TimeUs t) {
                                  return t < window_start;
                                }),
                 jgr_adds.end());
  system_->clock().AdvanceUs(static_cast<DurationUs>(
      jgr_adds.size() * config_.jgr_event_transfer_ns / 1000));

  std::vector<ScoreEntry> ranking;
  for (auto& [uid, events] : calls_by_app) {
    // Events arrive in log (time) order; JgreScoreForApp groups them by type
    // itself, so no pre-sort is needed.
    ScoringCost app_cost;
    ScoreEntry entry;
    entry.uid = uid;
    entry.score =
        JgreScoreForApp(events, jgr_adds, params, &app_cost, &workspace_);
    entry.ipc_calls = static_cast<std::int64_t>(events.size());
    auto pkg = system_->package_manager().GetPackageForUid(uid);
    entry.package = pkg.ok() ? pkg.value() : StrCat("uid:", uid.value());
    ranking.push_back(std::move(entry));
    system_->clock().AdvanceUs(static_cast<DurationUs>(
        app_cost.pairs * static_cast<std::int64_t>(config_.pair_cost_ns) /
        1000));
    if (cost != nullptr) {
      cost->ipc_events += app_cost.ipc_events;
      cost->jgr_events += app_cost.jgr_events;
      cost->pairs += app_cost.pairs;
      cost->range_ops += app_cost.range_ops;
    }
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const ScoreEntry& a, const ScoreEntry& b) {
              return a.score > b.score;
            });
  return ranking;
}

Status JgreDefender::ForceStop(const std::string& package) {
  // "am force-stop <pkg>": an IPC from the defender to the activity service.
  auto activity = system_->service_manager().GetService(
      services::ActivityService::kName, defender_pid_);
  if (!activity.ok()) return activity.status();
  binder::Parcel data;
  data.WriteInterfaceToken(services::ActivityService::kDescriptor);
  data.WriteString(package);
  binder::Parcel reply;
  return activity.value().binder->Transact(
      services::ActivityService::TRANSACTION_forceStopPackage, data, &reply);
}

void JgreDefender::RunIncident(const std::string& victim_name,
                               JgrMonitor* monitor) {
  IncidentReport report;
  report.victim = victim_name;
  report.alarm_at = monitor->alarm_at();
  report.reported_at = monitor->reported_at();
  report.jgr_at_report = VictimJgrCount(victim_name);

  const Pid victim_pid = VictimPid(victim_name);
  report.ranking =
      RankApps(*monitor, victim_pid, config_.scoring, &report.cost);
  report.identified_at = system_->clock().NowUs();
  JGRE_TRACE(&system_->kernel().bus(), obs::Category::kDefense,
             obs::MakeEvent(
                 obs::Category::kDefense, obs::Label::kIncidentIdentified,
                 report.identified_at, defender_pid_.value(),
                 kSystemUid.value(),
                 static_cast<std::int64_t>(report.ranking.size()),
                 static_cast<std::int64_t>(report.identified_at -
                                           report.reported_at)));

  // Phase 3: kill top-ranked apps until the victim's JGR table is healthy.
  for (const ScoreEntry& entry : report.ranking) {
    if (VictimJgrCount(victim_name) <= config_.recovery_target) break;
    if (static_cast<int>(report.killed_packages.size()) >=
        config_.max_kills_per_incident) {
      break;
    }
    if (entry.score < config_.min_kill_score) break;
    JGRE_LOG(kWarning, "JgreDefender")
        << "force-stopping " << entry.package << " (score " << entry.score
        << ") to recover " << victim_name;
    if (ForceStop(entry.package).ok()) {
      report.killed_packages.push_back(entry.package);
      JGRE_TRACE(&system_->kernel().bus(), obs::Category::kDefense,
                 obs::MakeEvent(obs::Category::kDefense,
                                obs::Label::kDefenseKill,
                                system_->clock().NowUs(),
                                defender_pid_.value(), kSystemUid.value(),
                                entry.uid.value(), entry.score));
      // Death notifications dropped the service-side holds; GC reclaims the
      // JGRs they pinned.
      system_->CollectAllGarbage();
    }
  }
  report.recovered_at = system_->clock().NowUs();
  report.jgr_after_recovery = VictimJgrCount(victim_name);
  report.recovered = report.jgr_after_recovery <= config_.recovery_target;
  JGRE_TRACE(&system_->kernel().bus(), obs::Category::kDefense,
             obs::MakeEvent(
                 obs::Category::kDefense, obs::Label::kIncidentRecovered,
                 report.recovered_at, defender_pid_.value(),
                 kSystemUid.value(),
                 static_cast<std::int64_t>(report.jgr_after_recovery),
                 report.recovered ? 1 : 0));
  monitor->Reset();
  // Drop the consumed window (including events staged during the recovery
  // kills): the next incident scores fresh records only.
  if (tap_ != nullptr) {
    system_->kernel().bus().Flush();
    tap_->Clear();
  }
  JGRE_LOG(kWarning, "JgreDefender")
      << victim_name << ": incident handled, killed "
      << report.killed_packages.size() << " app(s), JGR "
      << report.jgr_at_report << " -> " << report.jgr_after_recovery;
  incidents_.push_back(std::move(report));
}

void JgreDefender::SaveState(snapshot::Serializer& out) const {
  out.Marker(0x44454631);  // "DEF1"
  out.Bool(installed_);
  if (!installed_) return;
  out.U64(monitors_.size());
  for (const auto& [name, monitor] : monitors_) {  // map: name order
    out.Str(name);
    monitor->SaveState(out);
  }
  tap_->SaveState(out);
}

void JgreDefender::RestoreState(snapshot::Deserializer& in) {
  in.Marker(0x44454631);
  const bool was_installed = in.Bool();
  if (!in.ok()) return;
  if (was_installed != installed_) {
    in.Fail("checkpoint and restore target disagree on defender install");
    return;
  }
  if (!installed_) return;
  const std::uint64_t monitor_count = in.U64();
  if (monitor_count != monitors_.size()) {
    in.Fail("checkpoint monitor census differs from the installed defender");
    return;
  }
  for (std::uint64_t i = 0; i < monitor_count && in.ok(); ++i) {
    const std::string name = in.Str();
    auto it = monitors_.find(name);
    if (it == monitors_.end()) {
      in.Fail(StrCat("checkpoint has a monitor for '", name,
                     "' this defender lacks"));
      return;
    }
    it->second->RestoreState(in);
  }
  tap_->RestoreState(in);
}

}  // namespace jgre::defense
