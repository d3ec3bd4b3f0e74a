// Kernel — simulated Linux kernel: process lifecycle, memory accounting,
// procfs, death notification, and soft-reboot semantics.
//
// Key behaviours the paper depends on:
// * a runtime abort (JGR overflow) kills the owning process;
// * killing `system_server` (the critical process hosting nearly all system
//   services and their shared 51,200-entry JGR table) soft-reboots Android;
// * process death releases every kernel-side resource: binder nodes get death
//   notifications (subscribed by the binder driver), memory is returned, and
//   the runtime with all its JGR entries disappears — which is why killing
//   the attacker is a complete recovery (defense phase 3) and why the LMK
//   keeps the benign JGR baseline low (Observation 1 / Fig 4).
#ifndef JGRE_OS_KERNEL_H_
#define JGRE_OS_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/event_bus.h"
#include "os/process.h"
#include "os/procfs.h"
#include "snapshot/serializer.h"

namespace jgre::os {

class LowMemoryKiller;

class Kernel {
 public:
  struct Config {
    std::int64_t total_ram_kb = 2 * 1024 * 1024;  // Nexus 5X: 2 GB
    std::uint64_t seed = 1;
  };

  Kernel();
  explicit Kernel(Config config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  SimClock& clock() { return clock_; }
  ProcFs& procfs() { return procfs_; }
  Rng& rng() { return rng_; }
  // The simulation-wide observability bus. Every runtime the kernel creates
  // publishes into it; the defense, trace buffers and metrics sinks
  // subscribe to it.
  obs::EventBus& bus() { return bus_; }
  const obs::EventBus& bus() const { return bus_; }

  // --- Process lifecycle ---------------------------------------------------

  struct ProcessConfig {
    bool with_runtime = true;
    std::size_t boot_class_refs = 180;  // WellKnownClasses baseline
    std::size_t max_global_refs = rt::kGlobalsMax;
    std::int64_t memory_kb = 40 * 1024;
    int oom_score_adj = kForegroundAppAdj;
    bool critical = false;
  };

  Pid CreateProcess(const std::string& name, Uid uid);
  Pid CreateProcess(const std::string& name, Uid uid,
                    const ProcessConfig& config);

  // Kills a process: fires death listeners and drops its memory. The runtime
  // (all its JGR entries with it) stays until ReapDeadProcesses frees it.
  // Idempotent.
  void KillProcess(Pid pid, const std::string& reason);

  Process* FindProcess(Pid pid);
  const Process* FindProcess(Pid pid) const;
  bool IsAlive(Pid pid) const;

  // All live processes (stable pid order).
  std::vector<Pid> LivePids() const;
  // Calls `visit(const Process&)` for each live process in ascending pid
  // order, reading the table in place. `visit` must not create or kill
  // processes; a loop that may (GC callbacks can) iterates LivePids().
  template <typename Visit>
  void ForEachLiveProcess(Visit&& visit) const {
    for (const auto& proc : processes_) {
      if (proc->alive) visit(*proc);
    }
  }
  std::vector<Pid> LivePidsForUid(Uid uid) const;
  std::size_t LiveProcessCount() const { return live_count_; }

  void SetOomScoreAdj(Pid pid, int adj);
  void SetProcessMemory(Pid pid, std::int64_t memory_kb);

  // --- File descriptors (§VI: the non-JGR exhaustible resource) -------------

  // Allocates `count` fds in `pid`'s table. Fails with kResourceExhausted at
  // RLIMIT_NOFILE; a *critical* process that exhausts its table dies (fd
  // starvation makes system_server abort in practice), soft-rebooting the
  // device — the same detonation as a JGR overflow, on a resource the JGRE
  // defense does not watch.
  Status AllocFds(Pid pid, int count);
  void ReleaseFds(Pid pid, int count);
  int OpenFdCount(Pid pid) const;

  std::int64_t UsedMemoryKb() const { return used_memory_kb_; }
  std::int64_t FreeMemoryKb() const {
    return config_.total_ram_kb - used_memory_kb_;
  }

  // --- Death notification ---------------------------------------------------

  using DeathListener = std::function<void(Pid, const std::string& reason)>;
  // Listener survives for the kernel's lifetime (binder driver, LMK, core).
  void AddDeathListener(DeathListener listener);

  // --- Soft reboot ------------------------------------------------------------

  // Invoked when a critical process dies. The core facade uses this to model
  // Android's soft reboot (zygote restarts system_server).
  // A critical-process death does not restart the system from inside the
  // dying call stack; it records a pending soft reboot which the core facade
  // consumes between transactions (zygote restarting system_server).
  std::optional<std::string> TakePendingSoftReboot();
  bool HasPendingSoftReboot() const { return pending_soft_reboot_.has_value(); }
  std::int64_t soft_reboot_count() const { return soft_reboot_count_; }

  // Frees the runtimes of dead processes. Must only be called between
  // transactions (the facade's pump), never from inside a dying call stack.
  void ReapDeadProcesses();

  // --- LMK -------------------------------------------------------------------

  // Installed by the core facade; consulted whenever memory grows.
  void SetLowMemoryKiller(std::unique_ptr<LowMemoryKiller> lmk);
  LowMemoryKiller* lmk() { return lmk_.get(); }

  // Checkpointing: clock, RNG, bus interner, and the whole process table
  // (including each process's runtime state) round-trip. Restore overwrites
  // the table in place, whatever processes the kernel ran since: record i
  // takes the image's record i, keeping its runtime (restored over) when the
  // process name, uid and table cap match the image and building one (with
  // its abort handler) otherwise; records past the image's count are
  // destroyed. Death listeners, procfs providers, and the LMK instance are
  // wiring owned by the facade and survive untouched.
  void SaveState(snapshot::Serializer& out) const;
  void RestoreState(snapshot::Deserializer& in);

 private:
  void CheckMemoryPressure();
  // Restores the image's record `index` over `proc`; false if the stream
  // failed.
  bool RestoreProcess(snapshot::Deserializer& in, std::size_t index,
                      Process& proc);

  Config config_;
  SimClock clock_;
  ProcFs procfs_;
  Rng rng_;
  // Declared before processes_: runtimes hold a Source pointing at the bus,
  // so it must outlive them.
  obs::EventBus bus_;

  // Pids are dense (1, 2, 3, ...) and processes are never erased — dead ones
  // only lose their runtime — so the process table is a flat vector indexed
  // by pid - 1. unique_ptr keeps Process* stable across table growth
  // (FindProcess results are held across calls that create processes).
  std::int32_t next_pid_ = 1;
  std::vector<std::unique_ptr<Process>> processes_;
  std::size_t live_count_ = 0;
  std::int64_t used_memory_kb_ = 0;

  std::vector<DeathListener> death_listeners_;
  std::optional<std::string> pending_soft_reboot_;
  std::int64_t soft_reboot_count_ = 0;
  std::unique_ptr<LowMemoryKiller> lmk_;
};

}  // namespace jgre::os

#endif  // JGRE_OS_KERNEL_H_
