// bench_table4_prebuilt_apps — regenerates Table IV: the three vulnerable
// IPC interfaces in the two prebuilt apps (PicoTts, Bluetooth). Attacks on
// these abort the *app's* runtime (its own 51,200-entry table), not
// system_server — the device survives, the app dies, and the flood stops.
#include <cstdio>

#include "attack/vuln_registry.h"
#include "bench_util.h"
#include "sim/device.h"

using namespace jgre;

int main() {
  bench::PrintBanner("TABLE IV", "Vulnerable prebuilt core apps");
  std::printf("\n%-24s %-38s %10s %12s %12s %s\n", "App", "Interface",
              "calls", "app aborted", "soft reboot", "duration");
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    if (vuln.victim != attack::VictimKind::kPrebuiltApp) continue;
    sim::DeviceSpec spec;
    spec.WithAttack(vuln).WithMaxAttackerCalls(bench::kOverflowMaxCalls);
    auto device = sim::DeviceFactory(spec).CreateDevice();
    core::AndroidSystem& system = device->system();
    const experiment::DriveResult drive = bench::DriveFlood(*device);
    std::printf("%-24s %-38s %10d %12s %12s %6.1f s\n",
                vuln.victim_package.c_str(), vuln.interface.c_str(),
                device->attacker()->stats().calls_issued,
                system.VictimDown(vuln.victim_package) ? "YES" : "no",
                system.soft_reboots() > 0 ? "YES" : "no",
                drive.virtual_duration_us / 1e6);
  }
  std::printf("\nEvery app that extends android.speech.tts.TextToSpeechService"
              " inherits the vulnerable setCallback default implementation "
              "(incl. Google TTS, §IV.D).\n");
  return 0;
}
