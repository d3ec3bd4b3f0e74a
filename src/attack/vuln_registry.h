// VulnRegistry — the 57 JGRE vulnerabilities of §IV as executable payloads.
//
// One VulnSpec per vulnerable IPC interface: 44 unprotected (Table I), 9
// helper-protected-but-bypassable (Table II), the flawed enqueueToast
// (Table III), and 3 in prebuilt apps (Table IV); Table V's third-party app
// interfaces live in a separate list since those apps are only present when a
// bench installs them. Every payload follows Code-Snippet 2: talk to the
// binder interface directly, fresh `new Binder()` per call, bypassing any
// helper-class guard.
#ifndef JGRE_ATTACK_VULN_REGISTRY_H_
#define JGRE_ATTACK_VULN_REGISTRY_H_

#include <functional>
#include <string>
#include <vector>

#include "binder/parcel.h"
#include "services/app.h"

namespace jgre::core {
class AndroidSystem;
}  // namespace jgre::core

namespace jgre::attack {

enum class Protection {
  kNone,             // Table I: no guard anywhere
  kHelperClass,      // Table II: client-side helper guard only
  kPerProcessFlawed, // Table III's "No" row: server guard with a bypass
};

enum class VictimKind {
  kSystemServer,   // shared JGR table; overflow soft-reboots the device
  kPrebuiltApp,    // overflow aborts the hosting app process
  kThirdPartyApp,  // Table V
};

struct VulnSpec {
  int id = 0;                 // stable 1-based index (Fig 3/8 x-axis order)
  std::string service;        // service-manager name
  std::string interface;      // Java method name
  std::string descriptor;     // binder interface descriptor
  std::uint32_t code = 0;     // transaction code
  std::string permission;     // required permission ("" = none)
  Protection protection = Protection::kNone;
  VictimKind victim = VictimKind::kSystemServer;
  std::string victim_package;  // for app victims; "" for system_server
  // JGRs pinned in the victim per successful call (proxy + death recipient
  // [+ session]); used by benches to predict call budgets.
  int jgrs_per_call = 2;
  // Writes one attack invocation's arguments (fresh binder every time).
  std::function<void(services::AppProcess&, binder::Parcel&)> write_args;
};

// 54 system-service vulnerabilities + 3 prebuilt-app vulnerabilities.
const std::vector<VulnSpec>& AllVulnerabilities();

// The 54 against system services only (Fig 3 population).
std::vector<VulnSpec> SystemServerVulnerabilities();

// Table V: vulnerable third-party apps (victim_package must be installed and
// its service registered by the caller).
const std::vector<VulnSpec>& ThirdPartyVulnerabilities();

// Sentinel VulnSpec::id of the synthetic churn target: not a registry
// vulnerability (replace-single slots are sift rule 4's *non*-exploitable
// class), but flooding one with fresh binders churns the victim's JGR table
// — every call adds a reference and evicts the previous one, so net growth
// stays ~zero while table bandwidth burns. The follow-up death-churn hunt
// exists to catch exactly this profile. AttackPlan::vuln_id resolves it.
inline constexpr int kChurnVulnId = -1;

// The spec behind kChurnVulnId: flood a generic safe service's setCallback
// (member-variable slot) with a fresh callback binder per call.
const VulnSpec& ChurnAttackSpec();

// Lookup by "service.interface" (e.g. "wifi.acquireWifiLock").
const VulnSpec* FindVulnerability(const std::string& service,
                                  const std::string& interface);

// Installs an attack app pre-granted whatever permission `vuln` demands.
services::AppProcess* InstallAttackApp(core::AndroidSystem* system,
                                       const std::string& package,
                                       const VulnSpec& vuln);

}  // namespace jgre::attack

#endif  // JGRE_ATTACK_VULN_REGISTRY_H_
