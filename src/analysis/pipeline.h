// The four-step JGRE analysis pipeline (paper §III, Fig 1).
//
//   IPC method extractor  →  JGR entry extractor  →  vulnerable IPC detector
//   (taint engine + sifter) →  [dynamic verification, in src/dynamic]
//
// Step 3 runs on the summary-based interprocedural taint engine
// (src/analysis/taint): per-method summaries are propagated bottom-up over
// the Java call graph to a fixpoint and stitched through the JNI bridge into
// the native graph, so retention annotated on a helper deep in the call
// chain surfaces at the IPC entry, and every risky verdict carries a
// concrete witness path down to IndirectReferenceTable::Add. One sifter
// decides each risky interface's SiftReason from its summary: rule 1, rules
// 2-4, then the signature-permission filter.
#ifndef JGRE_ANALYSIS_PIPELINE_H_
#define JGRE_ANALYSIS_PIPELINE_H_

#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/taint/summary.h"
#include "analysis/taint/witness.h"
#include "model/code_model.h"

namespace jgre::analysis {

// --- Step 1: IPC method extractor (§III.A) -----------------------------------

struct IpcMethodSet {
  // Methods reachable via ServiceManager registrations (system services).
  std::vector<std::string> service_methods;
  // Methods exposed by app-hosted services (prebuilt apps, market apps),
  // including default implementations inherited from abstract base services.
  std::vector<std::string> app_methods;
  int services_registered = 0;
  int native_service_registrations = 0;
};

IpcMethodSet ExtractIpcMethods(const model::CodeModel& model);

// --- Step 2: JGR entry extractor (§III.B) -----------------------------------

struct JgrEntrySet {
  // Java methods whose JNI targets reach IndirectReferenceTable::Add.
  std::set<std::string> java_entries;
  int native_paths_total = 0;       // paper: 147
  int native_paths_init_only = 0;   // paper: 67 filtered
  int native_paths_exploitable = 0; // paper: 80 remain
};

JgrEntrySet ExtractJgrEntries(const model::CodeModel& model);

// --- Step 3: vulnerable IPC detector + sifter (§III.C) ------------------------

enum class ProtectionClass {
  kUnprotected,
  kHelperGuard,       // client-side only (Table II)
  kServerConstraint,  // per-process constraint in the service (Table III)
};

// Short machine-readable slug ("unprotected", "helper_guard", ...).
std::string_view ProtectionClassName(ProtectionClass protection);

// Why the sifter discharged a risky interface. Typed so downstream
// consumers (the detect hunts, the fuser, tests) key on the enum; the
// free-form report text is derived via SiftReasonText and never compared.
enum class SiftReason {
  kNone = 0,             // not sifted: still a candidate (or never risky)
  kRule1ThreadOnly,      // only Thread.nativeCreate; released immediately
  kRule2Transient,       // used inside the call only; collected by GC
  kRule3ReadOnlyKey,     // read-only Map/Set/RemoteCallbackList key
  kRule4MemberSlot,      // member slot, previous binder revoked on next call
  kSignaturePermission,  // unreachable from third-party apps
};

// Short machine-readable slug ("none", "rule1_thread_only", ...).
std::string_view SiftReasonName(SiftReason reason);

// The paper's free-form reason text, byte-identical to the strings the
// reports have always carried. Rules 2-4 append " (via <callee>)" when the
// deciding retention came from a callee (`via` non-empty); rule 1 and the
// permission filter never carry provenance. kNone yields "".
std::string SiftReasonText(SiftReason reason, std::string_view via = {});

struct AnalyzedInterface {
  std::string id;          // java method id
  std::string service;
  std::string method;
  std::uint32_t transaction_code = 0;
  std::string permission;
  model::PermissionLevel permission_level = model::PermissionLevel::kNone;

  bool reaches_jgr_entry = false;  // call graph hits a Java JGR entry
  bool takes_binder = false;       // strong-binder transmission scenarios
  bool risky = false;
  SiftReason sift_reason = SiftReason::kNone;  // set for risky interfaces

  // Summary-derived facts: the interface's transitive retention kind, the
  // callee that supplied it ("" = the entry's own body), and the evidence
  // chain for risky verdicts.
  taint::Retention retention = taint::Retention::kNone;
  std::string retention_via;
  bool links_to_death = false;
  bool mints_session = false;
  taint::WitnessPath witness;  // non-empty iff risky && !sifted_out()

  ProtectionClass protection = ProtectionClass::kUnprotected;
  std::string helper_class;              // for kHelperGuard
  bool constraint_trusts_caller = false; // enqueueToast's flaw

  bool app_hosted = false;
  bool prebuilt_app = false;
  std::string package;  // for app-hosted methods

  // A sift rule or the permission filter discharged this risky interface.
  bool sifted_out() const { return sift_reason != SiftReason::kNone; }

  // The report string for this interface's sift verdict ("" when unsifted).
  std::string sift_reason_text() const {
    return SiftReasonText(sift_reason, retention_via);
  }
};

struct AnalysisReport {
  IpcMethodSet ipc_methods;
  JgrEntrySet jgr_entries;
  std::vector<AnalyzedInterface> interfaces;  // every IPC method, annotated
  taint::EngineStats engine_stats;

  // Risky, unsifted interfaces — the candidates for dynamic verification —
  // as indices into `interfaces`. Indices (not pointers) so the result stays
  // valid across report copies/moves and never dangles when taken from a
  // temporary report.
  std::vector<std::size_t> Candidates() const;
  // Subset of Candidates() with the given protection class.
  std::vector<std::size_t> CandidatesWithProtection(
      ProtectionClass protection) const;

  int total_services() const { return ipc_methods.services_registered; }
};

// Summary-based engine analysis: every risky, unsifted interface carries a
// witness path ending at the JGR sink.
AnalysisReport RunAnalysis(const model::CodeModel& model);

// §VI extension: IPC methods that retain *other* exhaustible resources
// (file descriptors) — invisible to the JGR-centric pipeline above, but
// findable with the same methodology applied to a different sink.
std::vector<std::string> ExtractOtherResourceRisks(
    const model::CodeModel& model);

}  // namespace jgre::analysis

#endif  // JGRE_ANALYSIS_PIPELINE_H_
