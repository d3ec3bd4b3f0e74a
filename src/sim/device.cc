#include "sim/device.h"

#include <algorithm>
#include <limits>

#include "obs/chrome_trace.h"
#include "snapshot/serializer.h"

namespace jgre::sim {

std::uint64_t PrefixKey(const DeviceSpec& spec) {
  // Every field that BootPrefix() reads. Byte-stable encoding via the
  // checkpoint serializer so the key is identical across runs and machines.
  snapshot::Serializer out;
  out.U64(spec.seed());
  out.U64(core::ConfigFingerprint(spec.system_config()));
  out.I64(spec.warmup_apps());
  out.I64(spec.warmup_foreground_us());
  out.I64(spec.warmup_interaction_period_us());
  return out.Hash();
}

std::unique_ptr<core::AndroidSystem> DeviceFactory::BootPrefix() const {
  core::SystemConfig sys_config = spec_.system_config();
  sys_config.seed = spec_.seed();
  auto system = std::make_unique<core::AndroidSystem>(sys_config);
  system->Boot();
  if (spec_.warmup_apps() > 0) {
    attack::BenignWorkload::Options options;
    options.app_count = spec_.warmup_apps();
    options.per_app_foreground_us = spec_.warmup_foreground_us();
    if (spec_.warmup_interaction_period_us() > 0) {
      options.interaction_period_us = spec_.warmup_interaction_period_us();
    }
    options.seed = spec_.seed() + 3;
    options.package_prefix = "com.warm.app";
    attack::BenignWorkload warmup(system.get(), options);
    warmup.InstallAll();
    warmup.RunMonkeySession();
    // Back to quiescent: stop every warmup app (releasing its service-side
    // registrations via death notification), free the stopped apps'
    // runtimes, and reclaim the JGRs they pinned, so the checkpoint boundary
    // is a near-baseline device whose image holds live runtimes only.
    for (const std::string& package : warmup.packages()) {
      system->StopApp(package);
    }
    system->kernel().ReapDeadProcesses();
    system->CollectAllGarbage();
  }
  return system;
}

void ReturnToPool::operator()(core::AndroidSystem* system) const {
  std::unique_ptr<core::AndroidSystem> owned(system);
  if (pool != nullptr) pool->HandBack(key, std::move(owned));
}

std::unique_ptr<DeviceSim> DeviceFactory::CreateDeviceOn(
    PooledSystem system) const {
  return std::unique_ptr<DeviceSim>(new DeviceSim(spec_, std::move(system)));
}

DeviceSim::DeviceSim(const DeviceSpec& spec, PooledSystem system)
    : spec_(spec), rng_(spec.scenario_seed() + 2), system_(std::move(system)) {
  if (spec_.defense()) {
    defender_ = std::make_unique<defense::JgreDefender>(
        system_.get(), spec_.defender_config());
    defender_->Install();
  }
  // Pure sinks: subscribing them never advances the virtual clock, so a
  // traced run is event-for-event identical to an untraced one. Both ride
  // buffered delivery — the trace()/metrics() accessors flush before reads.
  if (spec_.trace()) {
    trace_ = std::make_unique<obs::TraceBuffer>();
    bus().Subscribe(trace_.get(), spec_.trace_mask(), /*pid_filter=*/-1,
                    obs::Delivery::kBuffered);
  }
  if (spec_.metrics()) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_sink_ = std::make_unique<obs::MetricsSink>(metrics_.get());
    bus().Subscribe(metrics_sink_.get(), obs::kAllCategories,
                    /*pid_filter=*/-1, obs::Delivery::kBuffered);
  }

  attack::BenignWorkload::Options benign_options;
  benign_options.app_count = spec_.benign_apps();
  benign_options.seed = spec_.scenario_seed() + 1;
  benign_ = std::make_unique<attack::BenignWorkload>(system_.get(),
                                                     benign_options);
  if (spec_.benign_apps() > 0) {
    benign_->InstallAll();
    next_benign_.resize(benign_->packages().size());
    for (TimeUs& t : next_benign_) {
      t = system_->clock().NowUs() + rng_.UniformU64(150'000);
    }
  }

  if (spec_.vuln().has_value()) {
    attack::AttackPlan plan;
    plan.max_calls = spec_.max_attacker_calls();
    plan.stop_after_consecutive_denials = 0;
    plan.think_time_us = spec_.attack_think_time_us();
    attacker_ =
        attack::MakeFlood(plan, *spec_.vuln(), spec_.attack_package());
    if (!attacker_->Setup(*system_).ok()) attacker_.reset();
  }
}

void DeviceSim::PumpBenign() {
  const TimeUs now = system_->clock().NowUs();
  for (std::size_t i = 0; i < next_benign_.size(); ++i) {
    if (now >= next_benign_[i]) {
      benign_->InteractOnce(i);
      next_benign_[i] =
          system_->clock().NowUs() + 20'000 + rng_.UniformU64(130'000);
    }
  }
}

TimeUs DeviceSim::NextBenignDue() const {
  return next_benign_.empty()
             ? std::numeric_limits<TimeUs>::max()
             : *std::min_element(next_benign_.begin(), next_benign_.end());
}

DeviceSim::~DeviceSim() {
  if (trace_ != nullptr) bus().Unsubscribe(trace_.get());
  if (metrics_sink_ != nullptr) bus().Unsubscribe(metrics_sink_.get());
}

obs::TraceBuffer* DeviceSim::trace() {
  if (trace_ != nullptr) bus().Flush();
  return trace_.get();
}

obs::MetricsRegistry* DeviceSim::metrics() {
  if (metrics_ != nullptr) bus().Flush();
  return metrics_.get();
}

bool DeviceSim::WriteChromeTrace(const std::string& path) {
  if (trace_ == nullptr) return false;
  bus().Flush();  // drain staged events into the trace ring
  auto resolver = [this](std::int32_t pid) -> std::string {
    const os::Process* p = system_->kernel().FindProcess(Pid{pid});
    return p == nullptr ? std::string() : p->name;
  };
  return obs::WriteChromeTraceFile(path, bus(), *trace_, resolver);
}

}  // namespace jgre::sim
