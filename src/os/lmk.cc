#include "os/lmk.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "os/kernel.h"

namespace jgre::os {

std::vector<LowMemoryKiller::Level> LowMemoryKiller::DefaultLevels() {
  // minfree in kB; adj bands per ProcessList.updateOomLevels for ~2 GB RAM.
  return {
      {kCachedAppMaxAdj, 184320},   // 180 MB -> empty/cached apps
      {kCachedAppMinAdj, 147456},   // 144 MB
      {kServiceBAdj, 129024},       // 126 MB
      {kPreviousAppAdj, 110592},    // 108 MB
      {kPerceptibleAppAdj, 92160},  // 90 MB
      {kVisibleAppAdj, 73728},      // 72 MB
  };
}

LowMemoryKiller::LowMemoryKiller(Kernel* kernel, std::vector<Level> levels)
    : kernel_(kernel), levels_(std::move(levels)) {
  // Keep levels sorted most-aggressive (largest minfree) first so the scan
  // finds the loosest violated threshold.
  std::sort(levels_.begin(), levels_.end(),
            [](const Level& a, const Level& b) {
              return a.minfree_kb > b.minfree_kb;
            });
}

Pid LowMemoryKiller::SelectVictim(int min_adj) const {
  Pid victim;
  int best_adj = min_adj - 1;
  std::int64_t best_rss = -1;
  kernel_->ForEachLiveProcess([&](const Process& p) {
    if (p.critical || p.oom_score_adj < min_adj) return;
    // Higher adj loses first; among equals the largest RSS frees the most.
    if (p.oom_score_adj > best_adj ||
        (p.oom_score_adj == best_adj && p.memory_kb > best_rss)) {
      victim = p.pid;
      best_adj = p.oom_score_adj;
      best_rss = p.memory_kb;
    }
  });
  return victim;
}

int LowMemoryKiller::CheckPressure() {
  int kills = 0;
  // Re-evaluate after every kill: freeing a big process can clear several
  // levels at once.
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (const Level& level : levels_) {
      if (kernel_->FreeMemoryKb() >= level.minfree_kb) continue;
      const Pid victim = SelectVictim(level.min_adj);
      if (!victim.valid()) continue;  // nothing killable at this band
      const Process* p = kernel_->FindProcess(victim);
      JGRE_LOG(kInfo, "lowmemorykiller")
          << "Killing '" << p->name << "' (" << victim.value()
          << "), adj " << p->oom_score_adj << ", to free " << p->memory_kb
          << "kB; free " << kernel_->FreeMemoryKb() << "kB below "
          << level.minfree_kb << "kB";
      JGRE_TRACE(&kernel_->bus(), obs::Category::kLmk,
                 obs::MakeEvent(obs::Category::kLmk, obs::Label::kLmkKill,
                                kernel_->clock().NowUs(), victim.value(),
                                -1, p->oom_score_adj, p->memory_kb));
      kernel_->KillProcess(victim, "lowmemorykiller");
      ++total_kills_;
      ++kills;
      progressed = true;
      break;  // restart the level scan with fresh free-memory numbers
    }
  }
  return kills;
}

}  // namespace jgre::os
