// RegistryServiceBase — declarative base for AOSP-style binder services.
//
// Most system services are compositions of a handful of retention patterns;
// which pattern a method uses decides whether it is JGRE-vulnerable:
//
// * kRegister        — retain the callback until unregister/death
//                      (vulnerable: unbounded per caller);
// * kSession         — kRegister plus a per-call server-side session binder
//                      (vulnerable, ~3 JGRs per call in the host);
// * kRegisterPerProcess — at most one retained callback per calling process
//                      (the *correct* per-process constraint of Table III);
// * kReplaceSingle   — a single member-variable slot, each call replaces the
//                      previous binder (sift rule 4: not vulnerable);
// * kTransient       — the binder is used within the call and not retained
//                      (sift rules 2/3: GC reclaims it, not vulnerable);
// * kUnregister / kQuery — bookkeeping and reads.
//
// Concrete services declare their interfaces as MethodSpecs (code, argument
// layout, permission, cost profile, pattern, registry) and inherit dispatch.
// Handwritten services (clipboard, wifi, notification, ...) show the same
// logic in full; this base keeps the remaining ~25 services faithful without
// 25 copies of the switch statement.
#ifndef JGRE_SERVICES_REGISTRY_SERVICE_H_
#define JGRE_SERVICES_REGISTRY_SERVICE_H_

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "services/system_service.h"

namespace jgre::services {

enum class ArgKind { kInt32, kInt64, kBool, kString, kByteArray, kBinder, kFd };

enum class MethodKind {
  kQuery,
  kRegister,
  kUnregister,
  kSession,
  kRegisterPerProcess,
  kReplaceSingle,
  kTransient,
  // Dups and retains the caller's file descriptors without ever closing them
  // (§VI: a resource-exhaustion bug the JGRE pipeline is structurally blind
  // to — no binder is retained and no JGR is created).
  kConsumeFd,
  // Cross-transaction protocol pair (BinderCracker-style): kMintToken replies
  // with a service-minted 64-bit capability token; kRegisterGated retains its
  // callback binder only when the leading int64 argument is a token this
  // service minted earlier — otherwise the call is rejected and nothing is
  // retained. Exercised by protocol-analysis tests, not by the AOSP corpus.
  kMintToken,
  kRegisterGated,
};

struct MethodSpec {
  std::uint32_t code = 0;
  std::string method;                   // Java-level method name
  MethodKind kind = MethodKind::kQuery;
  std::vector<ArgKind> args;            // parcel layout after the token
  int registry = 0;                     // which callback list / slot
  const char* permission = nullptr;     // nullptr => no permission required
  CostProfile cost{};
  // Cross-call protocol declaration, mirrored into the code model by the
  // corpus: the mint domain of the value this method's reply carries
  // ("" = none; kSession and kMintToken methods get a default domain) and,
  // parallel to args, the mint domain each argument consumes ("" = opaque).
  std::string mints{};
  std::vector<std::string> consumes{};
};

class RegistryServiceBase : public SystemService {
 public:
  Status OnTransact(std::uint32_t code, const binder::Parcel& data,
                    binder::Parcel* reply,
                    const binder::CallContext& ctx) override;

  std::size_t RegistryCount(int registry) const;
  std::size_t SessionCount(int registry) const;
  std::int64_t ConsumedFds(int registry) const;
  const std::vector<MethodSpec>& methods() const { return methods_; }
  Pid host_pid() const { return host_pid_; }

  void SaveState(snapshot::Serializer& out) const override;
  void RestoreState(snapshot::Deserializer& in) override;

 protected:
  // `host_pid` is the process whose runtime retains state (system_server for
  // framework services, the app process for prebuilt-app services).
  RegistryServiceBase(SystemContext* sys, std::string service_name,
                      std::string descriptor, Pid host_pid,
                      std::vector<std::string> registry_names,
                      std::vector<MethodSpec> methods);

 private:
  struct Registry {
    std::unique_ptr<binder::RemoteCallbackList> callbacks;
    // client callback node -> server-side session binder node (kSession).
    std::map<NodeId, NodeId> sessions;
    // per-process single registration (kRegisterPerProcess).
    std::map<Pid, NodeId> per_process;
    // single replaceable slot (kReplaceSingle).
    NodeId single_slot;
    // fds dup'd into the host and never closed (kConsumeFd).
    std::int64_t consumed_fds = 0;
    // Capability tokens handed out by kMintToken and honored by
    // kRegisterGated. std::set: snapshot serialization stays deterministic.
    std::set<std::int64_t> minted_tokens;
    std::int64_t next_token_seq = 0;
  };

  // The most binder arguments a MethodSpec may declare; the constructor
  // rejects a longer one, so one call's binders fit in CallArgs.
  static constexpr std::size_t kMaxBinderArgs = 4;
  // What the retention patterns read of one call's arguments, in fixed
  // storage: the binders (each read takes the proxy's JGR), the fds dup'd
  // into the host, and the first integer (the token kRegisterGated checks).
  struct CallArgs {
    std::array<binder::StrongBinder, kMaxBinderArgs> binders;
    std::size_t binder_count = 0;
    int fds = 0;
    std::optional<std::int64_t> first_scalar;

    std::span<const binder::StrongBinder> Binders() const {
      return {binders.data(), binder_count};
    }
  };

  const MethodSpec* FindMethod(std::uint32_t code) const;
  // Reads and type-checks every argument `spec` declares where it lies in
  // `data`; strings and byte arrays are checked, not copied.
  Status ReadArgs(const MethodSpec& spec, const binder::Parcel& data,
                  const binder::CallContext& ctx, CallArgs* args) const;
  void DropSession(Registry& reg, NodeId client_node);

  Pid host_pid_;
  std::vector<MethodSpec> methods_;
  std::vector<Registry> registries_;
};

// Inert server-side session object (MidiDeviceServer, print job, SIP session,
// app-ops token, ...): exists to occupy a node + JavaBBinder JGR in the host.
class SessionBinder : public binder::BBinder {
 public:
  explicit SessionBinder(std::string descriptor)
      : binder::BBinder(std::move(descriptor)) {}
  Status OnTransact(std::uint32_t code, const binder::Parcel& data,
                    binder::Parcel* reply,
                    const binder::CallContext& ctx) override;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_REGISTRY_SERVICE_H_
