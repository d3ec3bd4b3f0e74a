// JgreDefender — the paper's three-phase JGRE countermeasure (§V).
//
// Phase 1 (capture): JgrMonitors attached to the runtimes worth protecting
// (system_server and binder-exposing prebuilt apps) record JGR add/remove
// timestamps once the count passes the alarm threshold and raise a flag at
// the report threshold.
//
// Phase 2 (rank): the defender — a standalone system-uid service, so it
// survives a system_server abort — reads the kernel's IPC log from
// /proc/jgre_ipc_log (unforgeable by apps), correlates each app's calls with
// the victim's JGR creations via Algorithm 1, and ranks apps by jgre_score.
//
// Phase 3 (recover): like the low memory killer, it kills top-ranked apps
// ("am force-stop", issued through the activity service) until the victim's
// JGR count returns to a normal value — killing a process releases all JGRs
// it pinned, via death notification + GC.
#ifndef JGRE_DEFENSE_JGRE_DEFENDER_H_
#define JGRE_DEFENSE_JGRE_DEFENDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/android_system.h"
#include "defense/jgr_monitor.h"
#include "defense/monitor_hub.h"
#include "defense/scoring.h"

namespace jgre::defense {

class JgreDefender {
 public:
  struct Config {
    JgrMonitor::Config monitor;
    ScoringParams scoring;
    // Recovery stops once the victim's JGR count is back under this
    // (Observation 1: benign steady state is 1,000–3,000).
    std::size_t recovery_target = 3500;
    // Apps with a score below this are never killed (benign noise floor).
    std::int64_t min_kill_score = 64;
    int max_kills_per_incident = 8;
    // Analysis cost model (virtual time): reading and parsing the procfs
    // log, transferring the runtime's JGR records, and the per-pair
    // vote work of Algorithm 1.
    DurationUs ipc_record_parse_us = 2;
    DurationUs jgr_event_transfer_ns = 500;
    DurationUs pair_cost_ns = 400;
  };

  struct ScoreEntry {
    Uid uid;
    std::string package;
    std::int64_t score = 0;
    std::int64_t ipc_calls = 0;
  };

  struct IncidentReport {
    std::string victim;
    TimeUs alarm_at = 0;       // JGR recording started (alarm threshold)
    TimeUs reported_at = 0;    // defender notified (report threshold)
    TimeUs identified_at = 0;  // ranking complete
    TimeUs recovered_at = 0;   // victim back under recovery_target
    std::size_t jgr_at_report = 0;
    std::size_t jgr_after_recovery = 0;
    std::vector<ScoreEntry> ranking;           // descending by score
    std::vector<std::string> killed_packages;
    ScoringCost cost;
    bool recovered = false;

    DurationUs response_delay_us() const { return identified_at - reported_at; }
    DurationUs total_delay_us() const { return recovered_at - alarm_at; }
  };

  JgreDefender(core::AndroidSystem* system, Config config);
  JgreDefender(core::AndroidSystem* system);
  ~JgreDefender();

  // Turns the defense on: extended binder driver logging, procfs export,
  // monitors on the protected runtimes, pump hook, post-reboot re-attach.
  void Install();

  // Ranks apps against the given victim monitor state without killing
  // anything (used by benches that only need Fig 8/9 scores). `params`
  // overrides the configured scoring parameters. Requires Install(): the
  // ranking reads the kernel's IPC log (/proc/jgre_ipc_log, system-readable
  // only) from the first record no incident has scored yet.
  std::vector<ScoreEntry> RankApps(const JgrMonitor& monitor,
                                   Pid victim_pid,
                                   const ScoringParams& params,
                                   ScoringCost* cost = nullptr);

  const std::vector<IncidentReport>& incidents() const { return incidents_; }
  const Config& config() const { return config_; }
  JgrMonitor* MonitorFor(const std::string& victim_name);
  bool installed() const { return installed_; }

 private:
  void AttachMonitors();
  void DetachMonitor(const std::string& name);
  void Check();
  void RunIncident(const std::string& victim_name, JgrMonitor* monitor);
  std::size_t VictimJgrCount(const std::string& victim_name) const;
  Pid VictimPid(const std::string& victim_name) const;
  Status ForceStop(const std::string& package);

  core::AndroidSystem* system_;
  Config config_;
  bool installed_ = false;
  Pid defender_pid_;
  // victim name ("system_server", "com.android.bluetooth", ...) -> monitor.
  std::map<std::string, std::unique_ptr<JgrMonitor>> monitors_;
  // One kJgr subscription routing to the monitors by pid (see monitor_hub.h).
  std::unique_ptr<JgrMonitorHub> hub_;
  // Seq of the first kernel IPC log record no incident has scored: set at
  // Install() and moved past each handled incident, so the next ranking
  // never re-reads a scored window (nor the recovery kills' own calls).
  std::uint64_t unscored_seq_ = 0;
  std::vector<IncidentReport> incidents_;
  // Reusable scoring buffers (vote column, grouping scratch) shared across
  // apps and incidents.
  ScoringWorkspace workspace_;
};

}  // namespace jgre::defense

#endif  // JGRE_DEFENSE_JGRE_DEFENDER_H_
