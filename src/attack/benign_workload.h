// BenignWorkload — the paper's top-N Google Play population + MonkeyRunner.
//
// Used for Observation 1 / Fig 4 (the benign JGR baseline stays between
// ~1,000 and ~3,000 while the LMK keeps the process count bounded) and as the
// background noise in the defense experiments (Figs 8/9). Benign apps differ
// from the attacker in exactly the ways that matter: they register a bounded
// number of listeners, *reuse* their binder objects, unregister or die
// normally, and mostly issue query traffic.
#ifndef JGRE_ATTACK_BENIGN_WORKLOAD_H_
#define JGRE_ATTACK_BENIGN_WORKLOAD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/android_system.h"

namespace jgre::attack {

class BenignWorkload {
 public:
  struct Options {
    int app_count = 100;
    // MonkeyRunner: "for each app, we run it for two minutes and then switch
    // it to a background process by simulating pressing the HOME button".
    DurationUs per_app_foreground_us = 120'000'000;
    DurationUs interaction_period_us = 400'000;
    std::uint64_t seed = 7;
    // Package name prefix ("<prefix>%03d"). Warmup populations use a
    // distinct prefix so their packages never collide with the main benign
    // population installed later in the same simulation.
    std::string package_prefix = "com.top.app";
  };

  BenignWorkload(core::AndroidSystem* system, Options options);

  // Installs com.top.app000..NNN with a mix of normal permissions.
  void InstallAll();

  // Runs one monkey pass over all installed apps: launch (or relaunch if the
  // LMK killed it), interact in the foreground, press HOME. `sampler`, when
  // set, is invoked roughly every `sample_period_us` of virtual time — Fig 4
  // uses it to record (JGR size, process count).
  void RunMonkeySession(const std::function<void(TimeUs)>& sampler,
                        DurationUs sample_period_us);
  void RunMonkeySession() { RunMonkeySession(nullptr, 0); }

  // A benign-but-chatty loop: `calls` query-style IPC invocations that create
  // no retained JGRs (the "benign app [that] generates a large number of
  // invulnerable IPC calls" in the colluding-attack experiment).
  void ChattyQueryLoop(services::AppProcess* app, int calls,
                       DurationUs gap_us);

  // One interaction burst for app `index` (relaunching it if the LMK took
  // it); used by experiment drivers that interleave benign traffic with an
  // attack instead of running whole monkey sessions.
  void InteractOnce(std::size_t index);

  const std::vector<std::string>& packages() const { return packages_; }

 private:
  struct AppBehavior {
    bool uses_clipboard = false;
    bool uses_content_observer = false;
    bool uses_toasts = false;
    bool uses_wifi_lock = false;
    bool uses_telephony = false;
    bool uses_audio_queries = false;
    // Long-lived binders this incarnation registered (reused, never leaked).
    std::shared_ptr<binder::BBinder> content_observer;
    std::shared_ptr<binder::BBinder> phone_state_listener;
    Pid registered_for_pid;  // registrations die with the process
  };

  void Interact(services::AppProcess* app, AppBehavior& behavior);
  void EnsureRegistrations(services::AppProcess* app, AppBehavior& behavior);

  // The app at `index`, relaunched first if its process died; null when the
  // relaunch fails.
  services::AppProcess* LiveApp(std::size_t index);

  core::AndroidSystem* system_;
  Options options_;
  Rng rng_;
  std::vector<std::string> packages_;
  // Index-aligned with packages_: each package's current AppProcess, which
  // the system owns. RelaunchApp replaces a package's AppProcess, and only
  // LiveApp relaunches the workload's packages, so it refreshes its entry.
  std::vector<services::AppProcess*> apps_;
  std::vector<AppBehavior> behaviors_;
};

}  // namespace jgre::attack

#endif  // JGRE_ATTACK_BENIGN_WORKLOAD_H_
