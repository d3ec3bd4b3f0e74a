#include "experiment/experiment.h"

#include <algorithm>
#include <limits>
#include <string>

namespace jgre::experiment {

namespace {

// kHorizon's idle step once the attacker has finished.
constexpr DurationUs kIdleStrideUs = 10'000;

bool AllIssuersDead(core::AndroidSystem& system,
                    const attack::AttackStrategy& attacker) {
  for (const std::string& package : attacker.attacker_packages()) {
    services::AppProcess* app = system.FindApp(package);
    if (app != nullptr && app->alive()) return false;
  }
  return true;
}

}  // namespace

DriveResult Drive(sim::DeviceSim& device, attack::AttackStrategy* attacker,
                  StopRule rule, TimeUs deadline_us,
                  const StepObserver& on_step) {
  core::AndroidSystem& system = device.system();
  SimClock& clock = system.clock();
  const defense::JgreDefender* defender = device.defender();
  const bool first_incident = rule == StopRule::kFirstIncident;
  const std::int64_t reboots_before = system.soft_reboots();
  const TimeUs start = clock.NowUs();

  bool attacking = attacker != nullptr;
  while (clock.NowUs() < deadline_us) {
    if (first_incident && defender != nullptr &&
        !defender->incidents().empty()) {
      break;
    }
    if (attacking) {
      const TimeUs step_start = clock.NowUs();
      const int calls_before = attacker->stats().calls_issued;
      attacking = attacker->Step(system);
      if (on_step && attacker->stats().calls_issued != calls_before) {
        on_step(step_start);
      }
      if (!attacking && first_incident) break;
    } else if (first_incident) {
      const TimeUs next = std::min(device.NextBenignDue(), deadline_us);
      if (next > clock.NowUs()) clock.AdvanceUs(next - clock.NowUs());
    } else {
      clock.AdvanceUs(kIdleStrideUs);
    }
    device.PumpBenign();
    if (system.soft_reboots() > reboots_before) break;
  }

  DriveResult result;
  result.soft_rebooted = system.soft_reboots() > reboots_before;
  result.incident = defender != nullptr && !defender->incidents().empty();
  result.attacker_killed =
      attacker != nullptr && AllIssuersDead(system, *attacker);
  result.virtual_duration_us = clock.NowUs() - start;
  return result;
}

DefendedAttackResult Experiment::RunDefendedAttack() {
  DefendedAttackResult result;
  attack::AttackStrategy* attacker = device_.attacker();
  if (attacker == nullptr) return result;
  const DriveResult drive = Drive(device_, attacker, StopRule::kFirstIncident,
                                  std::numeric_limits<TimeUs>::max());
  result.attacker_calls = attacker->stats().calls_issued;
  result.attacker_killed = drive.attacker_killed;
  result.soft_rebooted = drive.soft_rebooted;
  result.virtual_duration_us = drive.virtual_duration_us;
  if (drive.incident) {
    result.incident = true;
    result.report = device_.defender()->incidents().front();
  }
  return result;
}

}  // namespace jgre::experiment
