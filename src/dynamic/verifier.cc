#include "dynamic/verifier.h"

#include <cmath>

#include "common/log.h"
#include "common/strings.h"
#include "core/android_system.h"
#include "core/market_apps.h"
#include "services/app.h"
#include "services/ipc_client.h"

namespace jgre::dynamic {

namespace {

// Javapoet-style payload synthesis: defaults per parameter kind, fresh
// Binder objects for callback parameters, and — for the adversarial probe —
// the "android" spoof in every string slot.
void WriteProbeArgs(const model::JavaMethodModel& method,
                    services::AppProcess& app, binder::Parcel& parcel,
                    bool adversarial) {
  for (services::ArgKind kind : method.args) {
    switch (kind) {
      case services::ArgKind::kInt32:
        parcel.WriteInt32(1);
        break;
      case services::ArgKind::kInt64:
        parcel.WriteInt64(1);
        break;
      case services::ArgKind::kBool:
        parcel.WriteBool(true);
        break;
      case services::ArgKind::kString:
        parcel.WriteString(adversarial ? "android" : app.package());
        break;
      case services::ArgKind::kByteArray:
        parcel.WriteByteArray(16);
        break;
      case services::ArgKind::kBinder:
        parcel.WriteStrongBinder(app.NewBinder("ProbeCallback"));
        break;
    }
  }
}

std::string DescriptorOf(const model::JavaMethodModel& method) {
  // Method ids are "<interface descriptor>.<name>".
  return method.id.substr(0, method.id.size() - method.name.size() - 1);
}

}  // namespace

JgreVerifier::JgreVerifier() : JgreVerifier(VerifyOptions{}) {}

JgreVerifier::JgreVerifier(VerifyOptions options) : options_(options) {}

Verdict JgreVerifier::RunProbe(const analysis::AnalyzedInterface& iface,
                               const model::JavaMethodModel& method,
                               bool adversarial) {
  Verdict verdict;
  verdict.id = iface.id;
  verdict.service = iface.service;
  verdict.method = iface.method;

  core::SystemConfig config;
  config.seed = options_.seed;
  core::AndroidSystem system(config);
  system.Boot();
  if (iface.app_hosted && !iface.prebuilt_app) {
    core::InstallThirdPartyVulnerableApps(system);
  }
  if (!system.service_manager().HasService(iface.service)) {
    verdict.skip_reason = StrCat("no live implementation of service '",
                                 iface.service, "' to probe");
    return verdict;
  }
  std::set<std::string> permissions;
  if (!iface.permission.empty()) permissions.insert(iface.permission);
  services::AppProcess* probe =
      system.InstallApp("com.jgre.probe", permissions);

  auto client = probe->GetService(iface.service, DescriptorOf(method));
  if (!client.ok()) {
    verdict.skip_reason = client.status().ToString();
    return verdict;
  }

  const std::string victim = iface.app_hosted ? iface.package : "";

  system.CollectAllGarbage();
  const std::size_t baseline = system.JgrCountOf(victim);
  verdict.tested = true;

  for (int i = 0; i < options_.max_calls; ++i) {
    Status status = client.value().Call(
        iface.transaction_code, [&](binder::Parcel& p) {
          WriteProbeArgs(method, *probe, p, adversarial);
        });
    ++verdict.calls_issued;
    if (status.code() == StatusCode::kPermissionDenied) {
      verdict.skip_reason = status.ToString();
      break;
    }
    if ((i + 1) % options_.gc_every_calls == 0) {
      // DDMS-triggered GC: transient references must not count as growth.
      system.CollectAllGarbage();
    }
    if (system.VictimDown(victim)) {
      verdict.victim_aborted = true;
      verdict.exploitable = true;
      break;
    }
    // Early exit: growth already flat after the probe window => bounded.
    if (i + 1 == options_.probe_calls) {
      system.CollectAllGarbage();
      const double growth = (static_cast<double>(system.JgrCountOf(victim)) -
                             static_cast<double>(baseline)) /
                            static_cast<double>(i + 1);
      if (growth < options_.growth.bounded_jgr_per_call) break;
    }
  }
  if (!verdict.victim_aborted && verdict.calls_issued > 0) {
    system.CollectAllGarbage();
    verdict.jgr_growth_per_call =
        (static_cast<double>(system.JgrCountOf(victim)) -
         static_cast<double>(baseline)) /
        static_cast<double>(verdict.calls_issued);
    verdict.exploitable =
        verdict.jgr_growth_per_call >= options_.growth.exploitable_jgr_per_call;
  }
  return verdict;
}

Verdict JgreVerifier::Verify(const analysis::AnalyzedInterface& iface,
                             const model::CodeModel& model) {
  const model::JavaMethodModel* method = model.FindJavaMethod(iface.id);
  if (method == nullptr) {
    Verdict verdict;
    verdict.id = iface.id;
    verdict.skip_reason = "method missing from code model";
    return verdict;
  }
  Verdict verdict = RunProbe(iface, *method, /*adversarial=*/false);
  if (!verdict.exploitable && verdict.tested &&
      iface.constraint_trusts_caller) {
    // The server-side cap held against the honest probe, but it trusts a
    // caller-supplied value — retry with the "android" spoof (§IV.C.2).
    Verdict spoofed = RunProbe(iface, *method, /*adversarial=*/true);
    if (spoofed.exploitable) {
      spoofed.bypassed_constraint = true;
      return spoofed;
    }
  }
  return verdict;
}

std::vector<Verdict> JgreVerifier::VerifyAll(
    const analysis::AnalysisReport& report, const model::CodeModel& model) {
  std::vector<Verdict> verdicts;
  for (const std::size_t index : report.Candidates()) {
    verdicts.push_back(Verify(report.interfaces[index], model));
    const Verdict& v = verdicts.back();
    JGRE_LOG(kInfo, "verifier")
        << v.service << "." << v.method << ": "
        << (v.exploitable ? "EXPLOITABLE" : "bounded") << " ("
        << v.calls_issued << " calls, " << v.jgr_growth_per_call
        << " JGR/call" << (v.bypassed_constraint ? ", constraint bypassed" : "")
        << ")";
  }
  return verdicts;
}

}  // namespace jgre::dynamic
