// colluding_defense — §V.C's hardest scenario: four colluding malicious apps
// each abuse a different vulnerable interface while a benign-but-chatty app
// floods the system with harmless IPC. Algorithm 1 must rank all four
// attackers above the benign app and the defender must recover the system.
//
//   ./build/examples/colluding_defense
#include <cstdio>
#include <vector>

#include "attack/benign_workload.h"
#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "common/rng.h"
#include "core/android_system.h"
#include "defense/jgre_defender.h"

using namespace jgre;

int main() {
  core::AndroidSystem system;
  system.Boot();
  defense::JgreDefender defender(&system);
  defender.Install();

  // Four colluding attackers on four different vulnerable interfaces.
  const std::vector<std::pair<const char*, const char*>> targets = {
      {"clipboard", "addPrimaryClipChangedListener"},
      {"audio", "startWatchingRoutes"},
      {"wifi", "acquireWifiLock"},
      {"mount", "registerListener"},
  };
  std::vector<std::unique_ptr<attack::AttackStrategy>> attackers;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const attack::VulnSpec* vuln =
        attack::FindVulnerability(targets[i].first, targets[i].second);
    attackers.push_back(attack::MakeFlood(
        attack::AttackPlan{}, *vuln,
        std::string("com.colluder.app") + std::to_string(i)));
    if (!attackers.back()->Setup(system).ok()) return 1;
    std::printf("colluder %zu -> %s.%s (uid %d)\n", i, vuln->service.c_str(),
                vuln->interface.c_str(),
                attackers.back()->attacker_uids().front().value());
  }

  // A benign app that is merely noisy (query traffic, no retained JGRs).
  attack::BenignWorkload::Options benign_options;
  benign_options.app_count = 1;
  attack::BenignWorkload benign(&system, benign_options);
  benign.InstallAll();
  services::AppProcess* chatty = system.FindApp(benign.packages().front());

  // Interleave: each colluder runs its own tight loop (with its natural
  // timing jitter); the benign app fires queries at random 0–100 ms
  // intervals, as in the paper's experiment.
  Rng rng(123);
  TimeUs benign_next = system.clock().NowUs();
  int rounds = 0;
  while (defender.incidents().empty() && rounds < 30000) {
    for (auto& attacker : attackers) {
      (void)attacker->Step(system);  // a killed colluder issues nothing
      system.clock().AdvanceUs(rng.UniformU64(1500));
    }
    if (system.clock().NowUs() >= benign_next && chatty != nullptr &&
        chatty->alive()) {
      benign.ChattyQueryLoop(chatty, 1, 0);
      benign_next = system.clock().NowUs() + rng.UniformU64(100'000);
    }
    ++rounds;
  }

  if (defender.incidents().empty()) {
    std::printf("no incident detected after %d rounds\n", rounds);
    return 1;
  }
  const auto& incident = defender.incidents().front();
  std::printf("\nincident after %d rounds; app ranking by jgre_score:\n",
              rounds);
  for (const auto& entry : incident.ranking) {
    std::printf("  %-22s uid=%d score=%lld ipc_calls=%lld\n",
                entry.package.c_str(), entry.uid.value(),
                static_cast<long long>(entry.score),
                static_cast<long long>(entry.ipc_calls));
  }
  std::printf("killed: ");
  for (const auto& pkg : incident.killed_packages) {
    std::printf("%s ", pkg.c_str());
  }
  std::printf("\nJGR %zu -> %zu (recovered=%s); benign app alive: %s\n",
              incident.jgr_at_report, incident.jgr_after_recovery,
              incident.recovered ? "yes" : "no",
              chatty != nullptr && chatty->alive() ? "yes" : "no");
  return incident.recovered ? 0 : 1;
}
