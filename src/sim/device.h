// The unified per-device simulation API.
//
// DeviceFactory is the ONE construction path every consumer goes through —
// the experiment scenario driver, harness::BranchRunner (and through it the
// fleet census, the defense matrix and the fuzzer's CampaignRunner):
//
//   sim::DeviceSpec spec;
//   spec.WithSeed(42).WithBenignApps(10).WithAttack(vuln).WithDefense();
//   sim::DeviceFactory factory(spec);
//   std::unique_ptr<sim::DeviceSim> device = factory.CreateDevice();
//
// A census device or a matrix cell describes its attacker and its defense
// as data instead: WithAttack(attack::AttackPlan) names a registry strategy
// and WithDefense(defense::DefenseConfig) sets the defender's thresholds and
// a mitigation stack, so every attacker and every stack of a grid is built
// here too.
//
// A DeviceSim owns ALL per-device state: the AndroidSystem (and with it the
// per-device kernel, binder driver, EventBus, and label interner), the
// installed defender, the trace/metrics sinks, the benign workload plus its
// interaction schedule, the mitigation stack, and the attacker. Nothing is
// aliased between two DeviceSims — two devices can be built, run, and
// destroyed on different threads with no shared mutable state, which is
// what lets the fleet layer run hundreds of heterogeneous devices across
// the work-stealing pool.
//
// Seed derivation (identical to the historical builder): the system boots
// with `seed`, the warmup workload draws from `seed + 3`; the scenario phase
// draws from `scenario_seed` (default: `seed`) — benign workload from
// `scenario_seed + 1`, the interaction scheduler from `scenario_seed + 2`.
// Splitting the scenario seed from the boot seed is what lets many fleet
// devices share one warmed boot image (same boot seed → same snapshot) while
// still running decorrelated scenarios.
//
// The build is split at the checkpoint boundary: BootPrefix() boots the
// device and runs the shared warmup workload to the quiescent state
// snapshot::SystemSnapshot captures, and CreateDeviceOn(system) completes
// the scenario on any such system — freshly built or restored from a
// checkpoint. CreateDevice() is CreateDeviceOn(BootPrefix()).
//
// A DeviceSim runs one scenario. Destroying it tears down everything it
// installed (attacker, mitigation stack, workloads, sinks, defender) and
// then hands its system to the SystemPool it came from, which restores that
// system in place for the next device of the same prefix key; a system from
// no pool is deleted.
#ifndef JGRE_SIM_DEVICE_H_
#define JGRE_SIM_DEVICE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/benign_workload.h"
#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/android_system.h"
#include "defense/jgre_defender.h"
#include "defense/mitigation.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace jgre::sim {

// Declarative description of one simulated device plus its scenario. Pure
// data; DeviceFactory is the only thing that turns a spec into live state.
class DeviceSpec {
 public:
  DeviceSpec& WithSeed(std::uint64_t seed) {
    seed_ = seed;
    return *this;
  }
  // Decorrelates the scenario phase (benign workload, interaction schedule)
  // from the boot/warmup seed. Defaults to the boot seed, preserving the
  // historical single-seed behavior byte-for-byte.
  DeviceSpec& WithScenarioSeed(std::uint64_t seed) {
    scenario_seed_ = seed;
    return *this;
  }
  // Base system configuration; its seed is overridden by WithSeed.
  DeviceSpec& WithSystemConfig(const core::SystemConfig& config) {
    system_config_ = config;
    return *this;
  }
  DeviceSpec& WithBenignApps(int count) {
    benign_apps_ = count;
    return *this;
  }
  // The device's own attacker: a flood of `vuln` from attack_package(),
  // idling `think_time_us` after each call, for max_attacker_calls() calls
  // and never giving up on denials.
  DeviceSpec& WithAttack(const attack::VulnSpec& vuln,
                         DurationUs think_time_us = 0) {
    vuln_ = vuln;
    attack_think_time_us_ = think_time_us;
    attack_plan_.name.clear();
    return *this;
  }
  // The device's own attacker built by attack::MakeStrategy(plan), or none
  // for a plan named "". Device construction throws if the registry has no
  // such strategy or its Setup fails.
  DeviceSpec& WithAttack(const attack::AttackPlan& plan) {
    vuln_.reset();
    attack_plan_ = plan;
    return *this;
  }
  DeviceSpec& WithDefense(bool enabled = true) {
    defense_ = enabled;
    return *this;
  }
  // One defense point: the defender at the config's thresholds if it has
  // one, plus its mitigation stack.
  DeviceSpec& WithDefense(const defense::DefenseConfig& config) {
    defense_ = config.defender;
    if (config.defender) {
      defender_config_.monitor.alarm_threshold = config.alarm_threshold;
      defender_config_.monitor.report_threshold = config.report_threshold;
    }
    mitigations_ = config.mitigations;
    return *this;
  }
  DeviceSpec& WithDefenderConfig(const defense::JgreDefender::Config& config) {
    defense_ = true;
    defender_config_ = config;
    return *this;
  }
  DeviceSpec& WithThresholds(std::size_t alarm, std::size_t report) {
    defense_ = true;
    defender_config_.monitor.alarm_threshold = alarm;
    defender_config_.monitor.report_threshold = report;
    return *this;
  }
  DeviceSpec& WithMaxAttackerCalls(int calls) {
    max_attacker_calls_ = calls;
    return *this;
  }
  // Buffer TraceEvents of the masked categories for Chrome-trace export.
  DeviceSpec& WithTrace(obs::CategoryMask mask = obs::kAllCategories) {
    trace_ = true;
    trace_mask_ = mask;
    return *this;
  }
  // Fold the event stream into a MetricsRegistry (DeviceSim::metrics()).
  DeviceSpec& WithMetrics() {
    metrics_ = true;
    return *this;
  }
  // Shared warmup prefix: after boot, run one benign monkey session over
  // `apps` apps (each foregrounded for `foreground_us`, package prefix
  // "com.warm.app", seed + 3), then stop them all and collect garbage —
  // leaving the device at the populated-but-quiescent state BranchRunner
  // checkpoints. `interaction_period_us` overrides the monkey's event
  // period (0 = the workload default) for denser warmup streams.
  DeviceSpec& WithWarmup(int apps, DurationUs foreground_us = 120'000'000,
                         DurationUs interaction_period_us = 0) {
    warmup_apps_ = apps;
    warmup_foreground_us_ = foreground_us;
    warmup_interaction_period_us_ = interaction_period_us;
    return *this;
  }

  std::uint64_t seed() const { return seed_; }
  std::uint64_t scenario_seed() const {
    return scenario_seed_.value_or(seed_);
  }
  const core::SystemConfig& system_config() const { return system_config_; }
  int benign_apps() const { return benign_apps_; }
  const std::optional<attack::VulnSpec>& vuln() const { return vuln_; }
  DurationUs attack_think_time_us() const { return attack_think_time_us_; }
  // Named "" unless WithAttack(plan) set a strategy.
  const attack::AttackPlan& attack_plan() const { return attack_plan_; }
  std::string attack_package() const {
    return std::string(attack::kFloodPackage);
  }
  bool defense() const { return defense_; }
  const defense::JgreDefender::Config& defender_config() const {
    return defender_config_;
  }
  const defense::MitigationSettings& mitigations() const {
    return mitigations_;
  }
  int max_attacker_calls() const { return max_attacker_calls_; }
  bool trace() const { return trace_; }
  obs::CategoryMask trace_mask() const { return trace_mask_; }
  bool metrics() const { return metrics_; }
  int warmup_apps() const { return warmup_apps_; }
  DurationUs warmup_foreground_us() const { return warmup_foreground_us_; }
  DurationUs warmup_interaction_period_us() const {
    return warmup_interaction_period_us_;
  }

 private:
  std::uint64_t seed_ = 42;
  std::optional<std::uint64_t> scenario_seed_;
  core::SystemConfig system_config_;
  int benign_apps_ = 0;
  std::optional<attack::VulnSpec> vuln_;
  DurationUs attack_think_time_us_ = 0;
  attack::AttackPlan attack_plan_{.name = ""};
  bool defense_ = false;
  defense::JgreDefender::Config defender_config_;
  defense::MitigationSettings mitigations_;
  int max_attacker_calls_ = 60'000;
  bool trace_ = false;
  obs::CategoryMask trace_mask_ = obs::kAllCategories;
  bool metrics_ = false;
  int warmup_apps_ = 0;
  DurationUs warmup_foreground_us_ = 120'000'000;
  DurationUs warmup_interaction_period_us_ = 0;
};

// Hash over exactly the fields that shape BootPrefix() output: the boot
// seed, the system configuration, and the warmup workload. Two specs with
// equal prefix keys build byte-identical quiescent systems, so a snapshot of
// one is a valid reset/clone image for the other — the property the fleet
// layer uses to serve hundreds of heterogeneous devices from a handful of
// warmed boot images.
std::uint64_t PrefixKey(const DeviceSpec& spec);

// Takes back systems whose device finished (harness::BranchRunner).
class SystemPool {
 public:
  // `key` is the PrefixKey of the image the system was restored to. The
  // system may be in any state, soft-rebooted included.
  virtual void HandBack(std::uint64_t key,
                        std::unique_ptr<core::AndroidSystem> system) = 0;

 protected:
  ~SystemPool() = default;
};

// Deleter that hands a system back to its pool, or deletes it without one.
struct ReturnToPool {
  SystemPool* pool = nullptr;
  std::uint64_t key = 0;
  void operator()(core::AndroidSystem* system) const;
};
using PooledSystem = std::unique_ptr<core::AndroidSystem, ReturnToPool>;

// One live simulated device. Owns every piece of per-device state; never
// shares interned tables, observability sinks, or RNG streams with another
// DeviceSim. Runs one scenario; its system goes back to its pool after.
class DeviceSim {
 public:
  ~DeviceSim();

  DeviceSim(const DeviceSim&) = delete;
  DeviceSim& operator=(const DeviceSim&) = delete;

  core::AndroidSystem& system() { return *system_; }
  obs::EventBus& bus() { return system_->kernel().bus(); }
  const DeviceSpec& spec() const { return spec_; }
  // Null unless the corresponding With* was configured. The attacker is
  // already set up (its apps installed).
  defense::JgreDefender* defender() { return defender_.get(); }
  const defense::MitigationStack* mitigations() const {
    return mitigations_.get();
  }
  attack::AttackStrategy* attacker() { return attacker_.get(); }
  attack::BenignWorkload* benign() { return benign_.get(); }
  // The trace/metrics sinks (null unless WithTrace/WithMetrics).
  obs::TraceBuffer* trace() { return trace_.get(); }
  obs::MetricsRegistry* metrics() { return metrics_.get(); }
  // Fires every benign interaction that is due and re-arms it 20-150 ms
  // out, drawing from the same scenario stream (scenario_seed + 2) as the
  // initial schedule.
  void PumpBenign();
  // The earliest scheduled benign interaction; the largest TimeUs when the
  // device has no benign apps.
  TimeUs NextBenignDue() const;

  // Serializes the trace buffer as Chrome-trace JSON (process names resolved
  // against the kernel's process table). False if tracing is off or the
  // write fails.
  bool WriteChromeTrace(const std::string& path);

 private:
  friend class DeviceFactory;
  DeviceSim(const DeviceSpec& spec, PooledSystem system);
  // The last setup step, run on a constructed device so that a throw
  // destroys it whole.
  void InstallAttacker();

  DeviceSpec spec_;
  Rng rng_;
  // Declared first, so destroyed (handed back) after everything installed
  // on it has been torn down.
  PooledSystem system_;
  std::unique_ptr<defense::JgreDefender> defender_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::MetricsSink> metrics_sink_;
  std::unique_ptr<attack::BenignWorkload> benign_;
  std::vector<TimeUs> next_benign_;  // index-aligned with benign_->packages()
  std::unique_ptr<defense::MitigationStack> mitigations_;
  std::unique_ptr<attack::AttackStrategy> attacker_;
};

// THE construction path. Fixes the setup order once (boot → warmup →
// defender install → observability subscriptions → benign workload +
// schedule → mitigation stack → attacker setup) so every consumer shares it
// byte-for-byte. A census probe or any other sink a caller subscribes comes
// after all of it.
class DeviceFactory {
 public:
  explicit DeviceFactory(DeviceSpec spec) : spec_(std::move(spec)) {}

  // Builds just the shared prefix: a booted (and warmed-up) quiescent
  // system, before any defense/benign/attacker setup. This is the state
  // snapshot::SystemSnapshot captures and the fleet layer clones.
  std::unique_ptr<core::AndroidSystem> BootPrefix() const;

  // Completes the scenario on an existing prefix system — the output of
  // BootPrefix(), or a system restored from a checkpoint of one. The system
  // must have been built from this spec's boot seed and system config. A
  // pooled system goes back to its pool when the device is destroyed.
  // Throws std::runtime_error if the spec's attacker cannot be set up.
  std::unique_ptr<DeviceSim> CreateDeviceOn(PooledSystem system) const;
  std::unique_ptr<DeviceSim> CreateDeviceOn(
      std::unique_ptr<core::AndroidSystem> system) const {
    return CreateDeviceOn(PooledSystem(system.release()));
  }

  // Boots the device and performs the whole setup sequence.
  std::unique_ptr<DeviceSim> CreateDevice() const {
    return CreateDeviceOn(BootPrefix());
  }

  const DeviceSpec& spec() const { return spec_; }

 private:
  DeviceSpec spec_;
};

}  // namespace jgre::sim

#endif  // JGRE_SIM_DEVICE_H_
