// Shared helpers for the experiment harnesses under bench/.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation. Device construction lives in src/sim (DeviceFactory), the
// scenario driver in src/experiment, and the parallel plumbing in
// src/harness (RunOrdered/BranchRunner); this header keeps only the
// presentation and flood-driving helpers the benches share.
#ifndef JGRE_BENCH_BENCH_UTIL_H_
#define JGRE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "attack/vuln_registry.h"
#include "common/stats.h"
#include "experiment/experiment.h"

namespace jgre::bench {

inline void PrintBanner(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

// Call budget of an undefended flood driven to overflow (Figs 3 and 5,
// Table IV).
constexpr int kOverflowMaxCalls = 200'000;

// Drives `device`'s own flood (sim::DeviceSpec::WithAttack) until it
// finishes, the device soft-reboots, or 4,000 s of virtual time pass — the
// slowest interface overflows in ~1,900 s. `on_step` sees every call.
experiment::DriveResult DriveFlood(
    sim::DeviceSim& device, const experiment::StepObserver& on_step = {});

// A DriveFlood observer that adds the virtual duration of every successful
// call of `device`'s flood to `exec_times_us` (Figs 5 and 6).
experiment::StepObserver TimeOkCalls(sim::DeviceSim& device,
                                     Summary* exec_times_us);

// Runs one defended attack against `vuln` with full tracing subscribed and
// writes the Chrome-trace JSON timeline to `path`. Returns false if the
// write fails. The simulation is independent of any other run in the bench,
// so the emitted bytes only depend on (vuln, seed, benign_apps).
bool WriteDefendedAttackTrace(const attack::VulnSpec& vuln,
                              std::uint64_t seed, int benign_apps,
                              const std::string& path);

}  // namespace jgre::bench

#endif  // JGRE_BENCH_BENCH_UTIL_H_
