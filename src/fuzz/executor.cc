#include "fuzz/executor.h"

#include <memory>

#include "fuzz/coverage.h"
#include "services/app.h"
#include "services/ipc_client.h"

namespace jgre::fuzz {

SequenceExecutor::SequenceExecutor(const model::CodeModel* model,
                                   ExecOptions options)
    : model_(model), options_(std::move(options)) {
  for (const model::AppServiceModel& app : model_->app_services) {
    app_hosted_[app.service_name] = app.package;
  }
}

ExecOutcome SequenceExecutor::Run(core::AndroidSystem& system,
                                  const std::vector<const IpcCall*>& calls,
                                  const std::string& victim_package) const {
  ExecOutcome out;
  services::AppProcess* probe =
      system.InstallApp(options_.probe_package, options_.permissions);

  const auto victim_pid = [&]() -> Pid {
    if (victim_package.empty()) return system.system_server_pid();
    services::AppProcess* victim = system.FindApp(victim_package);
    return victim != nullptr ? victim->pid() : Pid();
  };

  system.CollectAllGarbage();
  out.obs.jgr_before =
      static_cast<std::int64_t>(system.JgrCountOf(victim_package));
  out.obs.fd_before = system.kernel().OpenFdCount(victim_pid());

  // Coverage rides the bus only while the sequence runs: baseline-taking and
  // probe install are not part of the signature.
  CoverageProbe coverage(&system.kernel().bus());
  // The shared callback binder (fresh_binder == false slots): one per
  // execution, minted lazily so binder-free sequences cost nothing.
  std::shared_ptr<binder::BBinder> shared_binder;
  std::map<std::string, services::IpcClient> clients;

  // Per-step reply values, for ArgValue::from_step substitution: the minted
  // token/id (scalar) or session handle (binder) a protocol chain forwards
  // into a dependent call.
  struct Captured {
    binder::StrongBinder binder;
    std::int64_t scalar = 0;
    bool has_binder = false;
    bool has_scalar = false;
  };
  std::vector<Captured> captured(calls.size());

  for (std::size_t step = 0; step < calls.size(); ++step) {
    const IpcCall* call = calls[step];
    auto it = clients.find(call->service);
    if (it == clients.end()) {
      auto client = probe->GetService(call->service, call->descriptor);
      if (!client.ok()) continue;  // dead or unregistered service: skip
      it = clients.emplace(call->service, std::move(client).value()).first;
    }
    const auto resolved = [&](const ArgValue& arg) -> const Captured* {
      if (arg.from_step < 0 ||
          static_cast<std::size_t>(arg.from_step) >= step) {
        return nullptr;  // dangling / forward reference: use the literal
      }
      return &captured[static_cast<std::size_t>(arg.from_step)];
    };
    binder::Parcel reply;
    Status status = it->second.Call(
        call->code,
        [&](binder::Parcel& p) {
          for (const ArgValue& arg : call->args) {
            const Captured* from = resolved(arg);
            switch (arg.kind) {
              case services::ArgKind::kInt32:
                if (from != nullptr && from->has_scalar) {
                  p.WriteInt32(static_cast<std::int32_t>(from->scalar));
                } else {
                  p.WriteInt32(static_cast<std::int32_t>(arg.scalar));
                }
                break;
              case services::ArgKind::kInt64:
                if (from != nullptr && from->has_scalar) {
                  p.WriteInt64(from->scalar);
                } else {
                  p.WriteInt64(arg.scalar);
                }
                break;
              case services::ArgKind::kBool:
                p.WriteBool(arg.scalar != 0);
                break;
              case services::ArgKind::kString:
                p.WriteString(arg.str);
                break;
              case services::ArgKind::kByteArray:
                p.WriteByteArray(arg.byte_size);
                break;
              case services::ArgKind::kBinder:
                if (from != nullptr && from->has_binder) {
                  // Forward the binder handle minted by the producer step
                  // (nested-binder parcel: session object from A into B).
                  p.WriteStrongBinder(from->binder.binder);
                } else if (arg.fresh_binder) {
                  p.WriteStrongBinder(probe->NewBinder("FuzzCallback"));
                } else {
                  if (shared_binder == nullptr) {
                    shared_binder = probe->NewBinder("FuzzSharedCallback");
                  }
                  p.WriteStrongBinder(shared_binder);
                }
                break;
              case services::ArgKind::kFd:
                p.WriteFileDescriptor();
                break;
            }
          }
        },
        &reply);
    if (status.ok() && reply.value_count() > 0) {
      // Capture the reply's minted value. Only the two protocol-relevant
      // shapes are parsed: a leading strong binder (kSession) or a leading
      // 64/32-bit scalar (kMintToken and id-returning queries).
      if (reply.has_binders()) {
        binder::CallContext rctx;
        rctx.self_pid = probe->pid();
        rctx.driver = probe->driver();
        reply.RewindRead();
        auto sb = reply.ReadStrongBinder(rctx);
        if (sb.ok() && sb.value().valid()) {
          captured[step].binder = std::move(sb).value();
          captured[step].has_binder = true;
        }
      } else {
        reply.RewindRead();
        auto i64 = reply.ReadInt64();
        if (i64.ok()) {
          captured[step].scalar = i64.value();
          captured[step].has_scalar = true;
        } else {
          reply.RewindRead();
          auto i32 = reply.ReadInt32();
          if (i32.ok()) {
            captured[step].scalar = i32.value();
            captured[step].has_scalar = true;
          }
        }
      }
    }
    (void)status;  // rejections (permission, caps, bad args) are signal too
    ++out.obs.calls;
    if (system.VictimDown(victim_package)) {
      out.obs.victim_aborted = true;
      break;
    }
    if (out.obs.calls % options_.gc_every_calls == 0) {
      system.CollectAllGarbage();
    }
  }

  if (!out.obs.victim_aborted) {
    system.CollectAllGarbage();
    out.obs.jgr_after =
        static_cast<std::int64_t>(system.JgrCountOf(victim_package));
    out.obs.fd_after = system.kernel().OpenFdCount(victim_pid());
  } else {
    out.obs.jgr_after = out.obs.jgr_before;
    out.obs.fd_after = out.obs.fd_before;
  }
  out.elements = coverage.TakeElements();
  return out;
}

ExecOutcome SequenceExecutor::Execute(core::AndroidSystem& system,
                                      const Sequence& seq) const {
  std::vector<const IpcCall*> calls;
  calls.reserve(seq.calls.size());
  for (const IpcCall& call : seq.calls) calls.push_back(&call);
  return Run(system, calls, seq.victim_hint);
}

ExecOutcome SequenceExecutor::ExecuteRepeated(
    core::AndroidSystem& system, const IpcCall& call, int calls,
    const std::vector<IpcCall>& setup) const {
  std::vector<const IpcCall*> all;
  all.reserve(setup.size() + static_cast<std::size_t>(calls));
  for (const IpcCall& s : setup) all.push_back(&s);
  for (int i = 0; i < calls; ++i) all.push_back(&call);
  auto host = app_hosted_.find(call.service);
  return Run(system, all,
             host != app_hosted_.end() ? host->second : std::string());
}

}  // namespace jgre::fuzz
