// CodeModel — the intermediate representation the static analysis runs on.
//
// Plays the role of the compiled AOSP classes the paper feeds to SOOT plus
// the native sources it feeds to a call-graph extractor (§III): classes and
// methods with parameter types, *code-level body facts* (does a method retain
// its binder argument, and how), call edges, JNI registrations, the native
// call graph down to IndirectReferenceTable::Add, service-manager
// registrations, and a PScout-style permission map. The model records what
// the code does — never verdicts; vulnerable/protected/safe is derived by the
// pipeline in src/analysis and confirmed by src/dynamic.
#ifndef JGRE_MODEL_CODE_MODEL_H_
#define JGRE_MODEL_CODE_MODEL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "services/registry_service.h"  // services::ArgKind (parcel layout)

namespace jgre::model {

// Canonical frame names the analyses key on: the native JGR sink every
// witness path must terminate at, and the Java-level JGR entry methods with
// special sift/witness semantics. Single source of truth for src/analysis —
// the corpus spells them out because it *is* the modeled code.
inline constexpr std::string_view kJgrSinkFunction =
    "art::IndirectReferenceTable::Add";
inline constexpr std::string_view kThreadCreateEntry =
    "java.lang.Thread.nativeCreate";
inline constexpr std::string_view kLinkToDeathEntry =
    "android.os.Binder.linkToDeath";
inline constexpr std::string_view kReadStrongBinderEntry =
    "android.os.Parcel.nativeReadStrongBinder";
inline constexpr std::string_view kWriteStrongBinderEntry =
    "android.os.Parcel.nativeWriteStrongBinder";

// What a method's body does with its binder-typed inputs — the facts the
// paper's sifter rules (§III.C.3) and protection study (§IV.C) key on.
enum class BodyFact {
  // Retention patterns:
  kStoresParamInCollection,   // map/list member: retained until removal/death
  kStoresParamInMemberSlot,   // single field: replaced on the next call (rule 4)
  kUsesParamTransiently,      // local use only; GC reclaims it (rule 2)
  kUsesParamAsReadOnlyKey,    // read-only Map/Set/RCL lookup (rule 3)
  // Additional JGR sources:
  kLinksToDeath,              // Binder.linkToDeath → JavaDeathRecipient JGR
  kCreatesServerSession,      // mints + retains a server-side binder per call
  kOnlyCreatesThread,         // only Thread.nativeCreate (rule 1)
  // Server-side guards:
  kPerProcessConstraint,       // counts/limits registrations per process
  kConstraintTrustsCallerInput,  // ...but the check keys on a caller-supplied
                                 // value (enqueueToast's pkg parameter)
  // §VI: other exhaustible resources (the JGRE pipeline deliberately ignores
  // this; ExtractOtherResourceRisks surfaces it as future work).
  kRetainsFileDescriptor,
};

enum class PermissionLevel { kNone, kNormal, kDangerous, kSignature };

std::string_view PermissionLevelName(PermissionLevel level);

// What a value minted or consumed by an IPC entry *is* for cross-transaction
// protocol purposes (BinderCracker-style dependency-aware fuzzing): the kind
// plus the mint domain it belongs to ("audio.session", "tts.engine-slot").
// A consumer argument matches a producer return iff the kinds agree and the
// domains are equal.
enum class ValueKind {
  kOpaque,        // no cross-call meaning (the default for every argument)
  kToken,         // service-minted capability token handed back to the caller
  kId,            // service-minted numeric identity
  kBinderHandle,  // service-minted strong binder (session objects)
};

std::string_view ValueKindName(ValueKind kind);

struct ValueModel {
  ValueKind kind = ValueKind::kOpaque;
  std::string domain;  // "" = no protocol meaning

  bool minted() const { return kind != ValueKind::kOpaque && !domain.empty(); }
};

// A Java-side method (IPC entry or framework-internal helper).
struct JavaMethodModel {
  std::string id;       // unique: "android.content.IClipboard.addPrimary..."
  std::string clazz;    // implementing class
  std::string name;     // method name (with signature suffix if overloaded)
  // For IPC entries: the service-manager name and transaction code.
  std::string service;
  std::uint32_t transaction_code = 0;
  bool overrides_aidl = false;   // AIDL-defined or IInterface override
  std::vector<services::ArgKind> args;
  std::set<BodyFact> facts;
  std::vector<std::string> callees;  // ids of Java methods this one calls
  std::string permission;            // required permission ("" = none)
  // Protocol facts (def/use half-edges the ProtocolGraph joins): what the
  // entry returns to its caller, and where each argument's value comes from.
  ValueModel returns;
  std::vector<ValueModel> arg_provenance;  // parallel to args; may be shorter

  bool HasFact(BodyFact fact) const { return facts.count(fact) > 0; }
  // Provenance of argument `index`, defaulting to opaque when undeclared.
  ValueModel ProvenanceOf(std::size_t index) const {
    return index < arg_provenance.size() ? arg_provenance[index] : ValueModel{};
  }
  bool HasBinderParam() const {
    for (services::ArgKind a : args) {
      if (a == services::ArgKind::kBinder) return true;
    }
    return false;
  }
};

// A native function node in the native call graph.
struct NativeMethodModel {
  std::string name;                  // "android::ibinderForJavaObject"
  std::vector<std::string> callees;  // native call edges
  bool is_jni_entry = false;         // registered via registerNativeMethods
  bool runtime_init_only = false;    // only reachable during Runtime::Init
};

// registerNativeMethods: Java method <-> native entry.
struct JniRegistration {
  std::string java_method;   // id in java_methods
  std::string native_method; // name in native_methods
};

// ServiceManager.addService / publishBinderService / native addService.
struct ServiceRegistration {
  enum class Registrar { kAddService, kPublishBinderService, kNativeAddService };
  std::string service_name;
  std::string implementing_class;
  Registrar registrar = Registrar::kAddService;
};

// A prebuilt/third-party app exposing IPC (directly or by extending an
// abstract base service like android.speech.tts.TextToSpeechService).
struct AppServiceModel {
  std::string package;
  std::string service_name;       // how callers reach it
  std::string implementing_class;
  std::string base_class;         // non-empty when inherited from a base
  bool prebuilt = false;          // AOSP prebuilt vs market app
};

// A client-side guard in a service helper class (Table II).
struct HelperGuard {
  enum class Kind { kCap, kMultiplexedTransport };
  std::string helper_class;   // "android.net.wifi.WifiManager"
  std::string guarded_method; // id of the guarded IPC method
  Kind kind = Kind::kMultiplexedTransport;
  int cap = 0;                // for kCap (MAX_ACTIVE_LOCKS = 50)
};

struct CodeModel {
  std::map<std::string, JavaMethodModel> java_methods;
  std::map<std::string, NativeMethodModel> native_methods;
  std::vector<JniRegistration> jni_registrations;
  std::vector<ServiceRegistration> registrations;
  std::vector<AppServiceModel> app_services;
  std::vector<HelperGuard> helper_guards;
  // PScout-style permission map: permission -> protection level.
  std::map<std::string, PermissionLevel> permission_levels;

  const JavaMethodModel* FindJavaMethod(const std::string& id) const;
  JavaMethodModel* MutableJavaMethod(const std::string& id);
  PermissionLevel LevelOf(const std::string& permission) const;
};

}  // namespace jgre::model

#endif  // JGRE_MODEL_CODE_MODEL_H_
