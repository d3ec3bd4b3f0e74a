#include "analysis/pipeline.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "analysis/taint/engine.h"
#include "common/strings.h"

namespace jgre::analysis {

using model::BodyFact;
using model::CodeModel;
using model::JavaMethodModel;

// --- Step 1 -------------------------------------------------------------------

IpcMethodSet ExtractIpcMethods(const CodeModel& model) {
  IpcMethodSet out;
  std::set<std::string> service_names;
  for (const model::ServiceRegistration& reg : model.registrations) {
    service_names.insert(reg.service_name);
    if (reg.registrar ==
        model::ServiceRegistration::Registrar::kNativeAddService) {
      ++out.native_service_registrations;
    }
  }
  out.services_registered = static_cast<int>(service_names.size());
  std::set<std::string> app_service_names;
  for (const model::AppServiceModel& app : model.app_services) {
    app_service_names.insert(app.service_name);
  }
  for (const auto& [id, method] : model.java_methods) {
    if (!method.overrides_aidl || method.service.empty()) continue;
    if (service_names.count(method.service) > 0) {
      out.service_methods.push_back(id);
    } else if (app_service_names.count(method.service) > 0) {
      out.app_methods.push_back(id);
    }
  }
  return out;
}

// --- Step 2 -------------------------------------------------------------------

namespace {

// Counts simple JNI-entry→Add paths in the (acyclic) native call graph.
int CountPathsToSink(const CodeModel& model, const std::string& from,
                     std::map<std::string, int>* memo) {
  if (from == model::kJgrSinkFunction) return 1;
  if (auto it = memo->find(from); it != memo->end()) return it->second;
  (*memo)[from] = 0;  // cycle guard
  const auto node = model.native_methods.find(from);
  int paths = 0;
  if (node != model.native_methods.end()) {
    for (const std::string& callee : node->second.callees) {
      paths += CountPathsToSink(model, callee, memo);
    }
  }
  (*memo)[from] = paths;
  return paths;
}

}  // namespace

JgrEntrySet ExtractJgrEntries(const CodeModel& model) {
  JgrEntrySet out;
  std::map<std::string, int> memo;
  std::map<std::string, bool> native_reaches;
  for (const auto& [name, native] : model.native_methods) {
    if (!native.is_jni_entry) continue;
    const int paths = CountPathsToSink(model, name, &memo);
    if (paths == 0) continue;
    out.native_paths_total += paths;
    if (native.runtime_init_only) {
      // Reachable only during Runtime::Init (class caching etc.) — a third-
      // party app can never drive these, so they are filtered (§III.B.1).
      out.native_paths_init_only += paths;
    } else {
      out.native_paths_exploitable += paths;
      native_reaches[name] = true;
    }
  }
  // Map surviving native entries back to Java via registerNativeMethods.
  for (const model::JniRegistration& reg : model.jni_registrations) {
    if (native_reaches.count(reg.native_method) > 0) {
      out.java_entries.insert(reg.java_method);
    }
  }
  return out;
}

// --- Step 3 -------------------------------------------------------------------

std::string_view ProtectionClassName(ProtectionClass protection) {
  switch (protection) {
    case ProtectionClass::kUnprotected:
      return "unprotected";
    case ProtectionClass::kHelperGuard:
      return "helper_guard";
    case ProtectionClass::kServerConstraint:
      return "server_constraint";
  }
  return "unknown";
}

std::string_view SiftReasonName(SiftReason reason) {
  switch (reason) {
    case SiftReason::kNone:
      return "none";
    case SiftReason::kRule1ThreadOnly:
      return "rule1_thread_only";
    case SiftReason::kRule2Transient:
      return "rule2_transient";
    case SiftReason::kRule3ReadOnlyKey:
      return "rule3_read_only_key";
    case SiftReason::kRule4MemberSlot:
      return "rule4_member_slot";
    case SiftReason::kSignaturePermission:
      return "signature_permission";
  }
  return "?";
}

std::string SiftReasonText(SiftReason reason, std::string_view via) {
  // The historical report texts, byte-for-byte: the census gate and the
  // analysis-report JSON still compare/emit these strings.
  std::string_view text;
  bool takes_via = false;
  switch (reason) {
    case SiftReason::kNone:
      return "";
    case SiftReason::kRule1ThreadOnly:
      text = "rule 1: only Thread.nativeCreate, reference released immediately";
      break;
    case SiftReason::kRule2Transient:
      text = "rule 2: binder used inside the call only; collected by GC";
      takes_via = true;
      break;
    case SiftReason::kRule3ReadOnlyKey:
      text =
          "rule 3: binder only used as a read-only key into Map/Set/"
          "RemoteCallbackList";
      takes_via = true;
      break;
    case SiftReason::kRule4MemberSlot:
      text = "rule 4: member variable, previous binder revoked on the next "
             "call";
      takes_via = true;
      break;
    case SiftReason::kSignaturePermission:
      text =
          "permission map: signature-level permission, unreachable from "
          "third-party apps";
      break;
  }
  if (takes_via && !via.empty()) return StrCat(text, " (via ", via, ")");
  return std::string(text);
}

namespace {

// The sifter (§III.C, Fig 1 step 3) over a risky interface's taint summary:
// rule 1, then rules 2-4 over the transitive retention kind, then the
// signature-permission filter. kNone leaves the interface a candidate.
SiftReason Sift(const AnalyzedInterface& iface,
                const taint::MethodSummary& summary) {
  // Rule 1: thread creation is the only JGR entry reached (its native side
  // releases the reference before returning), and no binder is received.
  if (summary.reaches_only_thread_create() && !iface.takes_binder) {
    return SiftReason::kRule1ThreadOnly;
  }
  switch (summary.retention) {
    case taint::Retention::kTransient:
      return SiftReason::kRule2Transient;
    case taint::Retention::kReadOnlyKey:
      return SiftReason::kRule3ReadOnlyKey;
    case taint::Retention::kMemberSlot:
      return SiftReason::kRule4MemberSlot;
    case taint::Retention::kCollection:
    case taint::Retention::kNone:
      break;  // retained (or nothing known): not discharged by rules 2-4
  }
  // Permission filter: interfaces third-party apps cannot call at all.
  if (iface.permission_level == model::PermissionLevel::kSignature) {
    return SiftReason::kSignaturePermission;
  }
  return SiftReason::kNone;
}

}  // namespace

AnalysisReport RunAnalysis(const CodeModel& model) {
  AnalysisReport report;
  report.ipc_methods = ExtractIpcMethods(model);
  report.jgr_entries = ExtractJgrEntries(model);

  taint::TaintEngine engine(&model, report.jgr_entries.java_entries);
  engine.Run();
  report.engine_stats = engine.stats();

  std::map<std::string, const model::AppServiceModel*> app_by_service;
  for (const model::AppServiceModel& app : model.app_services) {
    app_by_service[app.service_name] = &app;
  }
  std::map<std::string, const model::HelperGuard*> guard_by_method;
  for (const model::HelperGuard& guard : model.helper_guards) {
    guard_by_method[guard.guarded_method] = &guard;
  }

  auto analyze = [&](const std::string& id, bool app_hosted) {
    const JavaMethodModel& method = *model.FindJavaMethod(id);
    AnalyzedInterface iface;
    iface.id = id;
    iface.service = method.service;
    iface.method = method.name;
    iface.transaction_code = method.transaction_code;
    iface.permission = method.permission;
    iface.permission_level = model.LevelOf(method.permission);
    iface.app_hosted = app_hosted;
    if (app_hosted) {
      if (auto it = app_by_service.find(method.service);
          it != app_by_service.end()) {
        iface.package = it->second->package;
        iface.prebuilt_app = it->second->prebuilt;
      }
    }
    // The strong-binder transmission scenarios (§III.C.2):
    // Parcel.nativeReadStrongBinder never shows up in the IPC method's own
    // call graph — it runs in the generated onTransact stub — so any method
    // that *receives* a Binder/IInterface (directly, in a container, array or
    // list) is treated as reaching it.
    iface.takes_binder = method.HasBinderParam();

    const taint::MethodSummary& summary = *engine.SummaryOf(id);
    iface.reaches_jgr_entry = summary.reaches_jgr_entry();
    iface.risky = iface.reaches_jgr_entry || iface.takes_binder;
    iface.retention = summary.retention;
    iface.retention_via = summary.retention_via;
    iface.links_to_death = summary.links_to_death;
    iface.mints_session = summary.mints_session;
    if (iface.risky) iface.sift_reason = Sift(iface, summary);
    // Protection classification (§IV.C) — from code-level guard facts.
    if (auto it = guard_by_method.find(id); it != guard_by_method.end()) {
      iface.protection = ProtectionClass::kHelperGuard;
      iface.helper_class = it->second->helper_class;
    } else if (method.HasFact(BodyFact::kPerProcessConstraint)) {
      iface.protection = ProtectionClass::kServerConstraint;
      iface.constraint_trusts_caller =
          method.HasFact(BodyFact::kConstraintTrustsCallerInput);
    }
    if (iface.risky && !iface.sifted_out()) {
      iface.witness = engine.WitnessFor(id, iface.takes_binder);
    }
    report.interfaces.push_back(std::move(iface));
  };
  for (const std::string& id : report.ipc_methods.service_methods) {
    analyze(id, /*app_hosted=*/false);
  }
  for (const std::string& id : report.ipc_methods.app_methods) {
    analyze(id, /*app_hosted=*/true);
  }
  std::sort(report.interfaces.begin(), report.interfaces.end(),
            [](const AnalyzedInterface& a, const AnalyzedInterface& b) {
              return std::tie(a.service, a.transaction_code) <
                     std::tie(b.service, b.transaction_code);
            });
  return report;
}

std::vector<std::string> ExtractOtherResourceRisks(const CodeModel& model) {
  std::vector<std::string> out;
  for (const auto& [id, method] : model.java_methods) {
    if (!method.overrides_aidl || method.service.empty()) continue;
    if (method.HasFact(BodyFact::kRetainsFileDescriptor)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> AnalysisReport::Candidates() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < interfaces.size(); ++i) {
    if (interfaces[i].risky && !interfaces[i].sifted_out()) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> AnalysisReport::CandidatesWithProtection(
    ProtectionClass protection) const {
  std::vector<std::size_t> out;
  for (const std::size_t i : Candidates()) {
    if (interfaces[i].protection == protection) out.push_back(i);
  }
  return out;
}

}  // namespace jgre::analysis
