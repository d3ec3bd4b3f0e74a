#include "services/registry_service.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/strings.h"

namespace jgre::services {

Status SessionBinder::OnTransact(std::uint32_t /*code*/,
                                 const binder::Parcel& /*data*/,
                                 binder::Parcel* /*reply*/,
                                 const binder::CallContext& ctx) {
  ctx.clock->AdvanceUs(80);
  return Status::Ok();
}

RegistryServiceBase::RegistryServiceBase(SystemContext* sys,
                                         std::string service_name,
                                         std::string descriptor, Pid host_pid,
                                         std::vector<std::string> registry_names,
                                         std::vector<MethodSpec> methods)
    : SystemService(sys, std::move(service_name), std::move(descriptor)),
      host_pid_(host_pid),
      methods_(std::move(methods)) {
  for (const MethodSpec& spec : methods_) {
    if (std::count(spec.args.begin(), spec.args.end(), ArgKind::kBinder) >
        static_cast<std::ptrdiff_t>(kMaxBinderArgs)) {
      throw std::invalid_argument(
          StrCat(this->service_name(), ".", spec.method, " declares more than ",
                 kMaxBinderArgs, " binder arguments"));
    }
  }
  registries_.resize(registry_names.empty() ? 1 : registry_names.size());
  for (std::size_t i = 0; i < registries_.size(); ++i) {
    const std::string reg_name =
        i < registry_names.size() ? registry_names[i]
                                  : StrCat(this->service_name(), ".registry", i);
    registries_[i].callbacks = std::make_unique<binder::RemoteCallbackList>(
        sys_->driver, host_pid_, reg_name);
    // A dying client tears down its session binder too.
    auto* reg = &registries_[i];
    registries_[i].callbacks->SetOnCallbackDied(
        [this, reg](NodeId node) { DropSession(*reg, node); });
  }
}

const MethodSpec* RegistryServiceBase::FindMethod(std::uint32_t code) const {
  for (const MethodSpec& spec : methods_) {
    if (spec.code == code) return &spec;
  }
  return nullptr;
}

std::size_t RegistryServiceBase::RegistryCount(int registry) const {
  return registries_.at(static_cast<std::size_t>(registry))
      .callbacks->RegisteredCount();
}

std::size_t RegistryServiceBase::SessionCount(int registry) const {
  return registries_.at(static_cast<std::size_t>(registry)).sessions.size();
}

std::int64_t RegistryServiceBase::ConsumedFds(int registry) const {
  return registries_.at(static_cast<std::size_t>(registry)).consumed_fds;
}

Status RegistryServiceBase::ReadArgs(const MethodSpec& spec,
                                     const binder::Parcel& data,
                                     const binder::CallContext& ctx,
                                     CallArgs* args) const {
  for (ArgKind kind : spec.args) {
    switch (kind) {
      case ArgKind::kInt32: {
        auto v = data.ReadInt32();
        if (!v.ok()) return v.status();
        if (!args->first_scalar) args->first_scalar = v.value();
        break;
      }
      case ArgKind::kInt64: {
        auto v = data.ReadInt64();
        if (!v.ok()) return v.status();
        if (!args->first_scalar) args->first_scalar = v.value();
        break;
      }
      case ArgKind::kBool: {
        auto v = data.ReadBool();
        if (!v.ok()) return v.status();
        break;
      }
      case ArgKind::kString: {
        auto v = data.ReadStringView();
        if (!v.ok()) return v.status();
        break;
      }
      case ArgKind::kByteArray: {
        auto v = data.ReadByteArray();
        if (!v.ok()) return v.status();
        break;
      }
      case ArgKind::kBinder: {
        auto v = data.ReadStrongBinder(ctx);  // JGR side effect happens here
        if (!v.ok()) return v.status();
        args->binders[args->binder_count++] = std::move(v).value();
        break;
      }
      case ArgKind::kFd: {
        // Dups into the host's fd table; fatal for system_server at EMFILE.
        JGRE_RETURN_IF_ERROR(data.ReadFileDescriptor(ctx));
        ++args->fds;
        break;
      }
    }
  }
  return Status::Ok();
}

void RegistryServiceBase::DropSession(Registry& reg, NodeId client_node) {
  auto it = reg.sessions.find(client_node);
  if (it == reg.sessions.end()) return;
  sys_->driver->ReleaseNode(it->second);
  reg.sessions.erase(it);
}

void RegistryServiceBase::SaveState(snapshot::Serializer& out) const {
  SystemService::SaveState(out);
  out.U64(registries_.size());
  for (const Registry& reg : registries_) {
    reg.callbacks->SaveState(out);
    out.U64(reg.sessions.size());
    for (const auto& [client, session] : reg.sessions) {  // std::map: sorted
      out.I64(client.value());
      out.I64(session.value());
    }
    out.U64(reg.per_process.size());
    for (const auto& [pid, node] : reg.per_process) {
      out.I64(pid.value());
      out.I64(node.value());
    }
    out.I64(reg.single_slot.value());
    out.I64(reg.consumed_fds);
    out.U64(reg.minted_tokens.size());
    for (std::int64_t token : reg.minted_tokens) out.I64(token);
    out.I64(reg.next_token_seq);
  }
}

void RegistryServiceBase::RestoreState(snapshot::Deserializer& in) {
  SystemService::RestoreState(in);
  if (in.U64() != registries_.size()) {
    in.Fail(StrCat(service_name(), ": registry count mismatch on restore"));
    return;
  }
  for (Registry& reg : registries_) {
    reg.callbacks->RestoreState(in);
    reg.sessions.clear();
    for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
      const NodeId client{in.I64()};
      reg.sessions.emplace(client, NodeId{in.I64()});
    }
    reg.per_process.clear();
    for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
      const Pid pid{static_cast<std::int32_t>(in.I64())};
      reg.per_process.emplace(pid, NodeId{in.I64()});
    }
    reg.single_slot = NodeId{in.I64()};
    reg.consumed_fds = in.I64();
    reg.minted_tokens.clear();
    for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
      reg.minted_tokens.insert(in.I64());
    }
    reg.next_token_seq = in.I64();
  }
}

Status RegistryServiceBase::OnTransact(std::uint32_t code,
                                       const binder::Parcel& data,
                                       binder::Parcel* reply,
                                       const binder::CallContext& ctx) {
  JGRE_RETURN_IF_ERROR(data.EnforceInterface(InterfaceDescriptor()));
  const MethodSpec* spec = FindMethod(code);
  if (spec == nullptr) {
    return InvalidArgument(
        StrCat(service_name(), ": unknown transaction ", code));
  }
  if (spec->permission != nullptr) {
    JGRE_RETURN_IF_ERROR(Enforce(ctx, spec->permission));
  }
  Registry& reg = registries_.at(static_cast<std::size_t>(spec->registry));
  // Execution cost scales with the state this method's registry holds
  // (Observation 2 / Fig 5).
  Charge(ctx, spec->cost,
         reg.callbacks->RegisteredCount() + reg.sessions.size());

  CallArgs args;
  JGRE_RETURN_IF_ERROR(ReadArgs(*spec, data, ctx, &args));
  const std::span<const binder::StrongBinder> binders = args.Binders();

  switch (spec->kind) {
    case MethodKind::kQuery:
      if (reply != nullptr) reply->WriteInt32(0);
      return Status::Ok();

    case MethodKind::kTransient:
      // Binder used within the call only; nothing retained. The proxy object
      // is unheld and the next GC reclaims its JGR (sift rules 2/3).
      if (reply != nullptr) reply->WriteInt32(0);
      return Status::Ok();

    case MethodKind::kConsumeFd:
      // The received fds were already dup'd into the host in ReadArgs; this
      // buggy handler keeps them forever (never close()d). No JGR was
      // created, so the JGRE monitor sees nothing.
      reg.consumed_fds += args.fds;
      if (reply != nullptr) reply->WriteInt32(0);
      return Status::Ok();

    case MethodKind::kRegister: {
      for (const binder::StrongBinder& b : binders) {
        if (b.valid()) reg.callbacks->Register(b);
      }
      if (reply != nullptr) reply->WriteInt32(0);
      return Status::Ok();
    }

    case MethodKind::kUnregister: {
      for (const binder::StrongBinder& b : binders) {
        if (b.valid()) {
          DropSession(reg, b.node);
          reg.callbacks->Unregister(b.node);
        }
      }
      return Status::Ok();
    }

    case MethodKind::kSession: {
      if (binders.empty() || !binders.front().valid()) {
        return InvalidArgument(StrCat(spec->method, ": null callback"));
      }
      const binder::StrongBinder& client = binders.front();
      if (reg.callbacks->Register(client)) {
        // Server-side session object: one more node + JavaBBinder JGR in the
        // host process, torn down when the client unregisters or dies.
        auto session = sys_->driver->MakeBinder<SessionBinder>(
            host_pid_, StrCat(InterfaceDescriptor(), ".", spec->method,
                              ".Session"));
        reg.sessions.emplace(client.node, session->node());
        if (reply != nullptr) reply->WriteStrongBinder(session);
      } else if (reply != nullptr) {
        reply->WriteNullBinder();  // already registered
      }
      return Status::Ok();
    }

    case MethodKind::kRegisterPerProcess: {
      if (binders.empty() || !binders.front().valid()) {
        return InvalidArgument(StrCat(spec->method, ": null callback"));
      }
      // Correct per-process constraint (Table III "Yes" rows): AOSP's
      // DisplayManagerService/InputManagerService reject a second
      // registration from the same process outright ("may not register more
      // than once per process"), so a single caller cannot grow the table.
      auto it = reg.per_process.find(ctx.calling_pid);
      if (it != reg.per_process.end() &&
          reg.callbacks->IsRegistered(it->second)) {
        return LimitExceeded(
            StrCat(spec->method,
                   ": caller may not register more than once per process"));
      }
      reg.callbacks->Register(binders.front());
      reg.per_process[ctx.calling_pid] = binders.front().node;
      return Status::Ok();
    }

    case MethodKind::kMintToken: {
      // Mint a capability token the caller must echo into kRegisterGated
      // calls. High bits keep the token space disjoint from anything a
      // protocol-blind fuzzer draws from its scalar dictionary; the low bits
      // come from a per-registry counter so replay is deterministic.
      const std::int64_t token =
          (std::int64_t{0x4A47} << 48) |
          ((reg.next_token_seq++ * std::int64_t{2654435761}) &
           std::int64_t{0xFFFF'FFFF'FFFF});
      reg.minted_tokens.insert(token);
      if (reply != nullptr) reply->WriteInt64(token);
      return Status::Ok();
    }

    case MethodKind::kRegisterGated: {
      // Dependency-aware retention (BinderCracker §IV): the callback binder
      // is retained only behind a previously minted token, so single-call
      // fuzzing never reaches the collection sink.
      if (!args.first_scalar ||
          reg.minted_tokens.count(*args.first_scalar) == 0) {
        return InvalidArgument(
            StrCat(spec->method, ": unknown protocol token"));
      }
      for (const binder::StrongBinder& b : binders) {
        if (b.valid()) reg.callbacks->Register(b);
      }
      if (reply != nullptr) reply->WriteInt32(0);
      return Status::Ok();
    }

    case MethodKind::kReplaceSingle: {
      if (binders.empty() || !binders.front().valid()) {
        return InvalidArgument(StrCat(spec->method, ": null callback"));
      }
      // Member-variable pattern (sift rule 4): the previous binder is
      // released when a new one is assigned.
      if (reg.single_slot.valid()) {
        reg.callbacks->Unregister(reg.single_slot);
      }
      reg.callbacks->Register(binders.front());
      reg.single_slot = binders.front().node;
      return Status::Ok();
    }
  }
  return Internal("unhandled method kind");
}

}  // namespace jgre::services
