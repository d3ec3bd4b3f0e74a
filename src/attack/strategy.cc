#include "attack/strategy.h"

#include <deque>
#include <optional>

#include "binder/parcel.h"
#include "common/strings.h"
#include "services/misc_system_services.h"
#include "services/weak_watch_service.h"

namespace jgre::attack {

namespace {

// Idle stride while a strategy is parked (sub_alarm_drip below its ceiling
// with nothing to do): long enough to not dominate the cell's step count,
// short enough to keep the benign schedule responsive.
constexpr DurationUs kParkIdleUs = 10'000;

// The system-server target `plan.vuln_id` names (kChurnVulnId included),
// or null. Scans the registry in place: SystemServerVulnerabilities()
// copies it.
const VulnSpec* ResolveVuln(const AttackPlan& plan) {
  if (plan.vuln_id == kChurnVulnId) return &ChurnAttackSpec();
  for (const VulnSpec& vuln : AllVulnerabilities()) {
    if (vuln.victim != VictimKind::kSystemServer) continue;
    if (plan.vuln_id != 0 ? vuln.id == plan.vuln_id
                          : vuln.permission.empty()) {
      return &vuln;
    }
  }
  return nullptr;
}

Status NoTarget(std::string_view strategy, const AttackPlan& plan) {
  return NotFound(StrCat(strategy, ": no vulnerability ", plan.vuln_id));
}

// One Code-Snippet 2 call of `vuln` from `app` over `client`, which is
// resolved on first use and again after DEAD_OBJECT (a soft reboot
// re-registers every service).
Status CallVuln(services::AppProcess& app, const VulnSpec& vuln,
                services::IpcClient& client) {
  if (!client.valid()) {
    auto resolved = app.GetService(vuln.service, vuln.descriptor);
    if (!resolved.ok()) return resolved.status();
    client = std::move(resolved).value();
  }
  Status status = client.Call(
      vuln.code, [&](binder::Parcel& p) { vuln.write_args(app, p); });
  if (status.code() == StatusCode::kUnavailable) {
    client = services::IpcClient();
  }
  return status;
}

// ------------------------------------------------------------------- flood

class FloodStrategy : public AttackStrategy {
 public:
  // `vuln` unset: resolve plan.vuln_id against the registry at Setup.
  FloodStrategy(AttackPlan plan, std::optional<VulnSpec> vuln,
                std::string package)
      : AttackStrategy(std::move(plan)),
        vuln_(std::move(vuln)),
        package_(std::move(package)) {}

  std::string_view id() const override { return "flood"; }

  Status Setup(core::AndroidSystem& system) override {
    if (!vuln_) {
      const VulnSpec* target = ResolveVuln(plan_);
      if (target == nullptr) return NoTarget("flood", plan_);
      vuln_ = *target;
    }
    app_ = InstallAttackApp(&system, package_, *vuln_);
    if (app_ == nullptr) return Internal("flood: install failed");
    return Status::Ok();
  }

  bool Step(core::AndroidSystem& system) override {
    if (!app_->alive() || stats_.calls_issued >= plan_.max_calls) return false;
    // An app-hosted victim that aborted is gone for good: nothing is left
    // to exhaust. (A system_server overflow soft-reboots instead, which
    // ends the drive.)
    if (vuln_->victim != VictimKind::kSystemServer &&
        system.VictimDown(vuln_->victim_package)) {
      return false;
    }
    const bool keep_going = Record(CallVuln(*app_, *vuln_, client_));
    if (plan_.think_time_us > 0) system.clock().AdvanceUs(plan_.think_time_us);
    return keep_going;
  }

  std::vector<Uid> attacker_uids() const override { return {app_->uid()}; }
  std::vector<std::string> attacker_packages() const override {
    return {app_->package()};
  }

 private:
  std::optional<VulnSpec> vuln_;
  std::string package_;
  services::AppProcess* app_ = nullptr;
  services::IpcClient client_;
};

// ---------------------------------------------------------- sub_alarm_drip

// Drips references in at `target_adds_per_sec` and parks once the victim
// table sits `alarm_margin` below the assumed alarm threshold — never fast
// enough for rate detectors, never high enough for the occupancy alarm. At
// large caps this cannot exhaust; the point is the capacity it silently
// holds hostage, and whether the follow-up hunts see it anyway.
class SubAlarmDripStrategy : public AttackStrategy {
 public:
  explicit SubAlarmDripStrategy(AttackPlan plan)
      : AttackStrategy(std::move(plan)) {}

  std::string_view id() const override { return "sub_alarm_drip"; }

  Status Setup(core::AndroidSystem& system) override {
    vuln_ = ResolveVuln(plan_);
    if (vuln_ == nullptr) return NoTarget("drip", plan_);
    jgrs_per_call_ = vuln_->jgrs_per_call > 0 ? vuln_->jgrs_per_call : 2;
    app_ = InstallAttackApp(&system, "com.arms.drip", *vuln_);
    if (app_ == nullptr) return Internal("drip: install failed");
    return Status::Ok();
  }

  bool Step(core::AndroidSystem& system) override {
    if (!app_->alive() || stats_.calls_issued >= plan_.max_calls) return false;
    const std::size_t ceiling =
        plan_.assumed_alarm_threshold > plan_.alarm_margin
            ? plan_.assumed_alarm_threshold - plan_.alarm_margin
            : 0;
    if (system.SystemServerJgrCount() + jgrs_per_call_ >= ceiling) {
      // Parked under the radar: hold what we have, stay quiet.
      system.clock().AdvanceUs(kParkIdleUs);
      return true;
    }
    if (!Record(CallVuln(*app_, *vuln_, client_))) return false;
    // Pace so adds/sec lands on target including the call's own duration.
    if (plan_.target_adds_per_sec > 0) {
      system.clock().AdvanceUs(static_cast<DurationUs>(
          1e6 * jgrs_per_call_ / plan_.target_adds_per_sec));
    }
    return true;
  }

  std::vector<Uid> attacker_uids() const override { return {app_->uid()}; }
  std::vector<std::string> attacker_packages() const override {
    return {app_->package()};
  }

 private:
  const VulnSpec* vuln_ = nullptr;
  services::AppProcess* app_ = nullptr;
  services::IpcClient client_;
  int jgrs_per_call_ = 2;
};

// -------------------------------------------------- uid_rotation_colluders

// K apps, K UIDs, one interface: each colluder issues `rotation_burst` calls
// then hands off. Any per-UID budget B stops a single app at B refs; K
// colluders jointly acquire K*B — past the table cap for realistic B.
class UidRotationStrategy : public AttackStrategy {
 public:
  explicit UidRotationStrategy(AttackPlan plan)
      : AttackStrategy(std::move(plan)) {}

  std::string_view id() const override { return "uid_rotation_colluders"; }

  Status Setup(core::AndroidSystem& system) override {
    vuln_ = ResolveVuln(plan_);
    if (vuln_ == nullptr) return NoTarget("rotation", plan_);
    const int count = plan_.colluders > 0 ? plan_.colluders : 1;
    for (int k = 0; k < count; ++k) {
      services::AppProcess* app =
          InstallAttackApp(&system, StrCat("com.arms.c", k), *vuln_);
      if (app == nullptr) return Internal("rotation: install failed");
      apps_.push_back(app);
    }
    clients_.resize(apps_.size());
    return Status::Ok();
  }

  bool Step(core::AndroidSystem& system) override {
    (void)system;
    if (stats_.calls_issued >= plan_.max_calls) return false;
    // Rotate past dead colluders (and on burst exhaustion).
    for (std::size_t tried = 0; tried < apps_.size(); ++tried) {
      if (apps_[current_]->alive() && burst_left_ > 0) break;
      current_ = (current_ + 1) % apps_.size();
      burst_left_ = plan_.rotation_burst > 0 ? plan_.rotation_burst : 1;
    }
    if (!apps_[current_]->alive()) return false;  // every issuer is dead
    --burst_left_;
    return Record(CallVuln(*apps_[current_], *vuln_, clients_[current_]));
  }

  std::vector<Uid> attacker_uids() const override {
    std::vector<Uid> uids;
    for (const services::AppProcess* app : apps_) uids.push_back(app->uid());
    return uids;
  }
  std::vector<std::string> attacker_packages() const override {
    std::vector<std::string> packages;
    for (const services::AppProcess* app : apps_) {
      packages.push_back(app->package());
    }
    return packages;
  }

 private:
  const VulnSpec* vuln_ = nullptr;
  std::vector<services::AppProcess*> apps_;
  std::vector<services::IpcClient> clients_;  // index-aligned with apps_
  std::size_t current_ = 0;
  int burst_left_ = 0;
};

// ---------------------------------------------------- death_recipient_churn

// startWatchingMode/stopWatchingMode over a sliding window of fresh
// callbacks. Net growth between GCs is ~the window, but the *transient*
// acquisition rate (2 JGRs per register) outruns the periodic GC at small
// caps — and the add/remove balance stays under add-rate alarms.
class DeathRecipientChurnStrategy : public AttackStrategy {
 public:
  explicit DeathRecipientChurnStrategy(AttackPlan plan)
      : AttackStrategy(std::move(plan)) {}

  std::string_view id() const override { return "death_recipient_churn"; }

  Status Setup(core::AndroidSystem& system) override {
    app_ = system.InstallApp("com.arms.dchurn");
    if (app_ == nullptr) return Internal("dchurn: install failed");
    auto client = app_->GetService(services::AppOpsService::kName,
                                   services::AppOpsService::kDescriptor);
    if (!client.ok()) return client.status();
    client_ = std::move(client).value();
    return Status::Ok();
  }

  bool Step(core::AndroidSystem& system) override {
    if (!app_->alive() || stats_.calls_issued >= plan_.max_calls) return false;
    std::shared_ptr<binder::BBinder> fresh =
        app_->NewBinder("com.arms.dchurn.callback");
    const Status registered = client_.Call(
        services::AppOpsService::TRANSACTION_startWatchingMode,
        [&fresh](binder::Parcel& p) {
          p.WriteInt32(0);
          p.WriteString("android:monitor_location");
          p.WriteStrongBinder(fresh);
        });
    const bool keep_going = Record(registered);
    window_.push_back(std::move(fresh));
    if (static_cast<int>(window_.size()) > std::max(plan_.churn_window, 1)) {
      std::shared_ptr<binder::BBinder> oldest = std::move(window_.front());
      window_.pop_front();
      (void)client_.Call(
          services::AppOpsService::TRANSACTION_stopWatchingMode,
          [&oldest](binder::Parcel& p) { p.WriteStrongBinder(oldest); });
      // Drop the app-side object too, or 40k cycles of JavaBBinders pile up
      // in the attacker's own table.
      system.driver().ReleaseNode(oldest->node());
    }
    system.clock().AdvanceUs(plan_.churn_think_us);
    return keep_going;
  }

  std::vector<Uid> attacker_uids() const override { return {app_->uid()}; }
  std::vector<std::string> attacker_packages() const override {
    return {app_->package()};
  }

 private:
  services::AppProcess* app_ = nullptr;
  services::IpcClient client_;
  std::deque<std::shared_ptr<binder::BBinder>> window_;
};

// ----------------------------------------------------------- weakref_churn

// Watches a fresh binder per call through WeakWatchService and unwatches
// only (1 - leak_fraction) of them. Released app-side nodes let the victim
// GC reclaim the proxy (strong ref + cache weak ref) — but the service's
// explicit weak-global slot survives until DeleteWeakGlobalRef, so the weak
// table grows while the strong table the §V monitor watches stays flat.
class WeakrefChurnStrategy : public AttackStrategy {
 public:
  explicit WeakrefChurnStrategy(AttackPlan plan)
      : AttackStrategy(std::move(plan)) {}

  std::string_view id() const override { return "weakref_churn"; }

  Status Setup(core::AndroidSystem& system) override {
    // The weak-table surface is not a boot service: add it (and weak-event
    // emission) only on this cell's device, leaving pinned censuses alone.
    service_ = system.driver().MakeBinder<services::WeakWatchService>(
        system.system_server_pid());
    JGRE_RETURN_IF_ERROR(system.service_manager().AddService(
        services::WeakWatchService::kName, service_, kSystemUid));
    if (rt::Runtime* victim = system.system_runtime(); victim != nullptr) {
      victim->vm().SetWeakEventEmission(true);
    }
    app_ = system.InstallApp("com.arms.weak");
    if (app_ == nullptr) return Internal("weakref: install failed");
    auto client = app_->GetService(services::WeakWatchService::kName,
                                   services::WeakWatchService::kDescriptor);
    if (!client.ok()) return client.status();
    client_ = std::move(client).value();
    return Status::Ok();
  }

  bool Step(core::AndroidSystem& system) override {
    if (!app_->alive() || stats_.calls_issued >= plan_.max_calls) return false;
    std::shared_ptr<binder::BBinder> fresh =
        app_->NewBinder("com.arms.weak.cb");
    const Status watched = client_.Call(
        services::WeakWatchService::TRANSACTION_watchWeak,
        [&fresh](binder::Parcel& p) { p.WriteStrongBinder(fresh); });
    const bool keep_going = Record(watched);
    window_.push_back(std::move(fresh));
    while (window_.size() > 2) {
      std::shared_ptr<binder::BBinder> oldest = std::move(window_.front());
      window_.pop_front();
      ++recycled_;
      const std::int64_t leak_target = static_cast<std::int64_t>(
          plan_.leak_fraction * static_cast<double>(recycled_));
      if (leaked_ < leak_target) {
        ++leaked_;  // "forget" the unwatch: the weak slot stays occupied
      } else {
        (void)client_.Call(
            services::WeakWatchService::TRANSACTION_unwatchWeak,
            [&oldest](binder::Parcel& p) { p.WriteStrongBinder(oldest); });
      }
      system.driver().ReleaseNode(oldest->node());
    }
    system.clock().AdvanceUs(plan_.churn_think_us);
    return keep_going;
  }

  std::vector<Uid> attacker_uids() const override { return {app_->uid()}; }
  std::vector<std::string> attacker_packages() const override {
    return {app_->package()};
  }

 private:
  services::AppProcess* app_ = nullptr;
  std::shared_ptr<services::WeakWatchService> service_;
  services::IpcClient client_;
  std::deque<std::shared_ptr<binder::BBinder>> window_;
  std::int64_t recycled_ = 0;
  std::int64_t leaked_ = 0;
};

}  // namespace

bool AttackStrategy::Record(const Status& status) {
  ++stats_.calls_issued;
  if (status.ok()) {
    ++stats_.calls_ok;
    stats_.consecutive_denied = 0;
    return true;
  }
  if (status.code() == StatusCode::kLimitExceeded) {
    ++stats_.calls_denied;
    ++stats_.consecutive_denied;
    if (plan_.stop_after_consecutive_denials > 0 &&
        stats_.consecutive_denied >= plan_.stop_after_consecutive_denials) {
      stats_.stopped_by_denial = true;
      return false;
    }
    return true;
  }
  ++stats_.calls_failed;
  stats_.consecutive_denied = 0;
  return true;
}

const std::vector<std::string>& KnownStrategies() {
  static const std::vector<std::string> names = {
      "flood", "sub_alarm_drip", "uid_rotation_colluders",
      "death_recipient_churn", "weakref_churn"};
  return names;
}

std::unique_ptr<AttackStrategy> MakeStrategy(const AttackPlan& plan) {
  if (plan.name == "flood") {
    return std::make_unique<FloodStrategy>(plan, std::nullopt,
                                           std::string(kFloodPackage));
  }
  if (plan.name == "sub_alarm_drip") {
    return std::make_unique<SubAlarmDripStrategy>(plan);
  }
  if (plan.name == "uid_rotation_colluders") {
    return std::make_unique<UidRotationStrategy>(plan);
  }
  if (plan.name == "death_recipient_churn") {
    return std::make_unique<DeathRecipientChurnStrategy>(plan);
  }
  if (plan.name == "weakref_churn") {
    return std::make_unique<WeakrefChurnStrategy>(plan);
  }
  return nullptr;
}

std::unique_ptr<AttackStrategy> MakeFlood(const AttackPlan& plan,
                                          const VulnSpec& vuln,
                                          std::string package) {
  return std::make_unique<FloodStrategy>(plan, vuln, std::move(package));
}

}  // namespace jgre::attack
