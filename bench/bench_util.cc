#include "bench_util.h"

#include "sim/device.h"

namespace jgre::bench {

experiment::DriveResult DriveFlood(sim::DeviceSim& device,
                                   const experiment::StepObserver& on_step) {
  constexpr DurationUs kHorizonUs = 4'000'000'000ULL;
  return experiment::Drive(device, device.attacker(),
                           experiment::StopRule::kFirstIncident,
                           device.system().clock().NowUs() + kHorizonUs,
                           on_step);
}

experiment::StepObserver TimeOkCalls(sim::DeviceSim& device,
                                     Summary* exec_times_us) {
  return [&device, exec_times_us, calls_ok = 0](TimeUs step_start_us) mutable {
    const int ok = device.attacker()->stats().calls_ok;
    if (ok > calls_ok) {
      exec_times_us->Add(
          static_cast<double>(device.system().clock().NowUs() - step_start_us));
    }
    calls_ok = ok;
  };
}

bool WriteDefendedAttackTrace(const attack::VulnSpec& vuln,
                              std::uint64_t seed, int benign_apps,
                              const std::string& path) {
  sim::DeviceSpec spec;
  spec.WithSeed(seed)
      .WithBenignApps(benign_apps)
      .WithAttack(vuln)
      .WithDefense()
      .WithTrace();
  auto device = sim::DeviceFactory(spec).CreateDevice();
  (void)experiment::Experiment(*device).RunDefendedAttack();
  return device->WriteChromeTrace(path);
}

}  // namespace jgre::bench
