// The one scenario drive loop, and the Fig 8 defended attack built on it.
//
// Every scenario has the shape of the paper's Fig 8: an attacker floods a
// vulnerable interface while benign apps run, and the defender (if any)
// detects, ranks and kills it. Drive() is the only loop that runs that
// shape. Each turn it steps the attack::AttackStrategy, fires the benign
// interactions that are due, and checks for a soft reboot. Its callers
// differ only in the StopRule: Experiment::RunDefendedAttack (Fig 8) and
// the undefended floods of Figs 3, 5 and 6 and Table IV use kFirstIncident;
// fleet::RunDeviceScenario drives every fleet device under the rule its
// spec carries, kFirstIncident for a census device and kHorizon for an
// arms::MatrixRunner cell.
//
//   sim::DeviceSpec spec;
//   spec.WithSeed(42).WithBenignApps(10).WithAttack(vuln).WithDefense();
//   auto device = sim::DeviceFactory(spec).CreateDevice();
//   auto result = experiment::Experiment(*device).RunDefendedAttack();
#ifndef JGRE_EXPERIMENT_EXPERIMENT_H_
#define JGRE_EXPERIMENT_EXPERIMENT_H_

#include <functional>

#include "attack/strategy.h"
#include "common/types.h"
#include "defense/jgre_defender.h"
#include "sim/device.h"

namespace jgre::experiment {

// When a drive ends before its deadline.
enum class StopRule {
  // Census and Fig 8: at the defender's first incident, or when the
  // attacker finishes. Without an attacker only benign apps act, so the
  // clock skips ahead from one benign interaction to the next.
  kFirstIncident,
  // Arms matrix: the defender's recovery is part of what is measured, so
  // only a soft reboot ends the drive early. Once the attacker finishes,
  // the device idles in 10 ms steps.
  kHorizon,
};

struct DriveResult {
  bool soft_rebooted = false;    // the victim table overflowed
  bool incident = false;         // the defender raised an incident
  bool attacker_killed = false;  // none of the attacker's apps is alive
  DurationUs virtual_duration_us = 0;
};

// Called after every attacker step that issued a call, with the virtual
// time the step started: a bench samples the victim (Fig 3's curve and
// peak) or times the call (Figs 5 and 6) here.
using StepObserver = std::function<void(TimeUs step_start_us)>;

// Steps `attacker` (null: benign apps only), already set up on `device`,
// until `rule` says stop, the device soft-reboots, or the virtual clock
// reaches `deadline_us`.
DriveResult Drive(sim::DeviceSim& device, attack::AttackStrategy* attacker,
                  StopRule rule, TimeUs deadline_us,
                  const StepObserver& on_step = {});

struct DefendedAttackResult {
  bool incident = false;
  defense::JgreDefender::IncidentReport report;
  int attacker_calls = 0;
  bool attacker_killed = false;
  bool soft_rebooted = false;
  DurationUs virtual_duration_us = 0;
};

class Experiment {
 public:
  explicit Experiment(sim::DeviceSim& device) : device_(device) {}

  // Drives the device's own attacker with interleaved benign traffic until
  // the defender raises an incident, the attacker dies, the device
  // soft-reboots, or the call budget (spec().max_attacker_calls()) runs out.
  DefendedAttackResult RunDefendedAttack();

 private:
  sim::DeviceSim& device_;
};

}  // namespace jgre::experiment

#endif  // JGRE_EXPERIMENT_EXPERIMENT_H_
