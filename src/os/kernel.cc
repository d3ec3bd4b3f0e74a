#include "os/kernel.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "os/lmk.h"

namespace jgre::os {

Kernel::Kernel() : Kernel(Config{}) {}

Kernel::Kernel(Config config) : config_(config), rng_(config.seed) {}

Kernel::~Kernel() = default;

Pid Kernel::CreateProcess(const std::string& name, Uid uid) {
  return CreateProcess(name, uid, ProcessConfig{});
}

Pid Kernel::CreateProcess(const std::string& name, Uid uid,
                          const ProcessConfig& config) {
  const Pid pid{next_pid_++};
  Process proc;
  proc.pid = pid;
  proc.uid = uid;
  proc.name = name;
  proc.critical = config.critical;
  proc.oom_score_adj = config.oom_score_adj;
  proc.memory_kb = config.memory_kb;
  proc.start_time_us = clock_.NowUs();
  if (config.with_runtime) {
    rt::Runtime::Config rt_config;
    rt_config.name = StrCat(name, "(", pid.value(), ")");
    rt_config.max_global_refs = config.max_global_refs;
    rt_config.boot_class_refs = config.boot_class_refs;
    rt_config.obs = obs::Source{&bus_, pid.value(), uid.value()};
    proc.runtime = std::make_unique<rt::Runtime>(&clock_, rt_config);
    // JGR table overflow aborts the runtime, which kills the process.
    proc.runtime->SetAbortHandler([this, pid](const std::string& reason) {
      KillProcess(pid, StrCat("runtime abort: ", reason));
    });
  }
  used_memory_kb_ += proc.memory_kb;
  ++live_count_;
  assert(static_cast<std::size_t>(pid.value()) == processes_.size() + 1);
  processes_.push_back(std::make_unique<Process>(std::move(proc)));
  CheckMemoryPressure();
  return pid;
}

void Kernel::KillProcess(Pid pid, const std::string& reason) {
  Process* found = FindProcess(pid);
  if (found == nullptr || !found->alive) return;
  Process& proc = *found;
  proc.alive = false;
  used_memory_kb_ -= proc.memory_kb;
  --live_count_;
  JGRE_LOG(kInfo, "kernel") << "killed " << proc.name << " pid="
                            << pid.value() << ": " << reason;
  JGRE_TRACE(&bus_, obs::Category::kLmk,
             obs::MakeEvent(obs::Category::kLmk, obs::Label::kProcessKill,
                            clock_.NowUs(), pid.value(), proc.uid.value(),
                            proc.oom_score_adj, proc.critical ? 1 : 0));
  // Death notification (binder driver fans this out to death recipients).
  for (const DeathListener& listener : death_listeners_) {
    listener(pid, reason);
  }
  if (proc.critical) {
    ++soft_reboot_count_;
    pending_soft_reboot_ = reason;
    JGRE_TRACE(&bus_, obs::Category::kLmk,
               obs::MakeEvent(obs::Category::kLmk, obs::Label::kSoftReboot,
                              clock_.NowUs(), pid.value(), proc.uid.value()));
  }
}

Process* Kernel::FindProcess(Pid pid) {
  const std::int32_t id = pid.value();
  if (id < 1 || id >= next_pid_) return nullptr;
  return processes_[static_cast<std::size_t>(id - 1)].get();
}

const Process* Kernel::FindProcess(Pid pid) const {
  const std::int32_t id = pid.value();
  if (id < 1 || id >= next_pid_) return nullptr;
  return processes_[static_cast<std::size_t>(id - 1)].get();
}

bool Kernel::IsAlive(Pid pid) const {
  const Process* p = FindProcess(pid);
  return p != nullptr && p->alive;
}

std::vector<Pid> Kernel::LivePids() const {
  std::vector<Pid> pids;
  pids.reserve(live_count_);
  ForEachLiveProcess([&](const Process& proc) { pids.push_back(proc.pid); });
  return pids;
}

std::vector<Pid> Kernel::LivePidsForUid(Uid uid) const {
  std::vector<Pid> pids;
  for (const auto& proc : processes_) {
    if (proc->alive && proc->uid == uid) pids.push_back(proc->pid);
  }
  return pids;
}

void Kernel::SetOomScoreAdj(Pid pid, int adj) {
  if (Process* p = FindProcess(pid); p != nullptr && p->alive) {
    p->oom_score_adj = adj;
  }
}

void Kernel::SetProcessMemory(Pid pid, std::int64_t memory_kb) {
  Process* p = FindProcess(pid);
  if (p == nullptr || !p->alive) return;
  used_memory_kb_ += memory_kb - p->memory_kb;
  p->memory_kb = memory_kb;
  CheckMemoryPressure();
}

Status Kernel::AllocFds(Pid pid, int count) {
  Process* p = FindProcess(pid);
  if (p == nullptr || !p->alive) {
    return FailedPrecondition("process is dead");
  }
  if (p->open_fds + count > p->fd_limit) {
    if (p->critical) {
      // system_server cannot survive fd starvation: binder, input and
      // storage paths all abort on EMFILE.
      KillProcess(pid, "too many open files (EMFILE)");
    }
    return ResourceExhausted(
        StrCat(p->name, ": too many open files (limit ", p->fd_limit, ")"));
  }
  p->open_fds += count;
  return Status::Ok();
}

void Kernel::ReleaseFds(Pid pid, int count) {
  Process* p = FindProcess(pid);
  if (p == nullptr || !p->alive) return;
  p->open_fds = std::max(0, p->open_fds - count);
}

int Kernel::OpenFdCount(Pid pid) const {
  const Process* p = FindProcess(pid);
  return (p == nullptr || !p->alive) ? 0 : p->open_fds;
}

void Kernel::AddDeathListener(DeathListener listener) {
  death_listeners_.push_back(std::move(listener));
}

void Kernel::SetLowMemoryKiller(std::unique_ptr<LowMemoryKiller> lmk) {
  lmk_ = std::move(lmk);
}

std::optional<std::string> Kernel::TakePendingSoftReboot() {
  auto pending = std::move(pending_soft_reboot_);
  pending_soft_reboot_.reset();
  return pending;
}

void Kernel::ReapDeadProcesses() {
  for (auto& proc : processes_) {
    if (!proc->alive && proc->runtime != nullptr) {
      proc->runtime.reset();  // JGR tables and heap disappear with the process
    }
  }
}

void Kernel::SaveState(snapshot::Serializer& out) const {
  out.Marker(0x4B524E31);  // "KRN1"
  clock_.SaveState(out);
  rng_.SaveState(out);
  bus_.SaveState(out);
  out.I64(next_pid_);
  out.U64(processes_.size());
  for (const auto& p : processes_) {  // index order == ascending pids
    const Process& proc = *p;
    out.I64(proc.pid.value());
    out.I64(proc.uid.value());
    out.Str(proc.name);
    out.Bool(proc.alive);
    out.Bool(proc.critical);
    out.I64(proc.oom_score_adj);
    out.I64(proc.memory_kb);
    out.I64(proc.open_fds);
    out.I64(proc.fd_limit);
    out.U64(proc.start_time_us);
    out.Bool(proc.runtime != nullptr);
    if (proc.runtime != nullptr) {
      out.U64(proc.runtime->vm().MaxGlobals());
      proc.runtime->SaveState(out);
    }
  }
  out.U64(live_count_);
  out.I64(used_memory_kb_);
  out.Bool(pending_soft_reboot_.has_value());
  if (pending_soft_reboot_.has_value()) out.Str(*pending_soft_reboot_);
  out.I64(soft_reboot_count_);
  out.Bool(lmk_ != nullptr);
  if (lmk_ != nullptr) lmk_->SaveState(out);
}

void Kernel::RestoreState(snapshot::Deserializer& in) {
  // Bytes a process record takes at least: pid, uid, an empty name, two
  // flags, five integers and the runtime flag.
  constexpr std::size_t kMinProcessRecordBytes = 8 + 8 + 8 + 2 + 5 * 8 + 1;
  in.Marker(0x4B524E31);
  clock_.RestoreState(in);
  rng_.RestoreState(in);
  bus_.RestoreState(in);
  const std::int64_t next_pid = in.I64();
  const std::uint64_t count = in.U64();
  std::size_t restored = 0;
  std::size_t alive = 0;
  if (in.NeedRecords(count, kMinProcessRecordBytes)) {
    if (next_pid < 1 || static_cast<std::uint64_t>(next_pid) != count + 1) {
      in.Fail("process table size disagrees with the pid cursor");
    }
    // Record i is restored over the table's record i, which usually holds
    // the same process already.
    for (; restored < count && in.ok(); ++restored) {
      if (restored == processes_.size()) {
        processes_.push_back(std::make_unique<Process>());
      }
      if (!RestoreProcess(in, restored, *processes_[restored])) break;
      alive += processes_[restored]->alive ? 1 : 0;
    }
  }
  // Records past the image's count, or from a record that failed on, are
  // destroyed, and next_pid_ tracks what the table holds, so FindProcess
  // stays in bounds even if the stream failed part-way.
  processes_.resize(restored);
  next_pid_ = static_cast<std::int32_t>(restored) + 1;
  live_count_ = static_cast<std::size_t>(in.U64());
  if (in.ok() && live_count_ != alive) {
    in.Fail("live process count disagrees with the process table");
  }
  used_memory_kb_ = in.I64();
  if (in.Bool()) {
    pending_soft_reboot_ = in.Str();
  } else {
    pending_soft_reboot_.reset();
  }
  soft_reboot_count_ = in.I64();
  const bool has_lmk = in.Bool();
  if (has_lmk && lmk_ != nullptr) {
    lmk_->RestoreState(in);
  } else if (has_lmk) {
    in.Fail("checkpoint has LMK state but no LMK is installed");
  }
}

bool Kernel::RestoreProcess(snapshot::Deserializer& in, std::size_t index,
                            Process& proc) {
  const Pid pid{static_cast<std::int32_t>(in.I64())};
  if (static_cast<std::uint64_t>(pid.value()) != index + 1) {
    in.Fail("process table pids are not dense");
    return false;
  }
  const Uid uid{static_cast<std::int32_t>(in.I64())};
  const std::string_view name = in.StrView();
  const bool alive = in.Bool();
  const bool critical = in.Bool();
  const int oom_score_adj = static_cast<int>(in.I64());
  const std::int64_t memory_kb = in.I64();
  const int open_fds = static_cast<int>(in.I64());
  const int fd_limit = static_cast<int>(in.I64());
  const TimeUs start_time_us = in.U64();
  if (in.Bool()) {
    const std::size_t max_global_refs = static_cast<std::size_t>(in.U64());
    // A runtime's name, obs source and table caps follow from its process's
    // name, pid and uid and the image's cap: when those match, the runtime
    // this record holds is overwritten rather than rebuilt.
    const bool reuse = proc.runtime != nullptr && proc.name == name &&
                       proc.uid == uid &&
                       proc.runtime->vm().MaxGlobals() == max_global_refs;
    if (!reuse && in.ok()) {
      rt::Runtime::Config rt_config;
      rt_config.name = StrCat(name, "(", pid.value(), ")");
      rt_config.max_global_refs = max_global_refs;
      rt_config.boot_class_refs = 0;  // RestoreState replaces everything
      rt_config.obs = obs::Source{&bus_, pid.value(), uid.value()};
      proc.runtime = std::make_unique<rt::Runtime>(&clock_, rt_config);
      proc.runtime->SetAbortHandler([this, pid](const std::string& reason) {
        KillProcess(pid, StrCat("runtime abort: ", reason));
      });
    }
    if (proc.runtime != nullptr) proc.runtime->RestoreState(in);
  } else {
    proc.runtime.reset();
  }
  proc.pid = pid;
  proc.uid = uid;
  proc.name.assign(name);
  proc.alive = alive;
  proc.critical = critical;
  proc.oom_score_adj = oom_score_adj;
  proc.memory_kb = memory_kb;
  proc.open_fds = open_fds;
  proc.fd_limit = fd_limit;
  proc.start_time_us = start_time_us;
  return in.ok();
}

void Kernel::CheckMemoryPressure() {
  if (lmk_ != nullptr) lmk_->CheckPressure();
}

}  // namespace jgre::os
