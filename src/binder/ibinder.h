// IBinder / BBinder / BpBinder — the binder object model.
//
// Mirrors libbinder's shape: `BBinder` is a local object living in its owner
// process and dispatching `OnTransact`; `BpBinder` is a remote proxy carrying
// a node handle and forwarding `Transact` through the driver. The JGRE-
// relevant property is carried by the surrounding machinery: receiving a
// strong binder mints a BinderProxy Java object + one JNI global reference in
// the receiving process (see Parcel::ReadStrongBinder), and `LinkToDeath`
// mints a JavaDeathRecipient + one more global reference.
#ifndef JGRE_BINDER_IBINDER_H_
#define JGRE_BINDER_IBINDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "common/types.h"
#include "runtime/runtime.h"

namespace jgre::binder {

class Parcel;
class BinderDriver;

// Identity of the caller and environment of the callee during a transaction.
struct CallContext {
  Pid calling_pid;
  Uid calling_uid;
  Pid self_pid;              // the process executing the handler
  rt::Runtime* runtime = nullptr;  // callee process runtime (JGR effects)
  BinderDriver* driver = nullptr;
  SimClock* clock = nullptr;
};

// IBinder.DeathRecipient.
class DeathRecipient {
 public:
  virtual ~DeathRecipient() = default;
  virtual void BinderDied(NodeId who) = 0;
};

class IBinder {
 public:
  virtual ~IBinder() = default;

  virtual NodeId node() const = 0;
  virtual bool IsProxy() const = 0;
  virtual const std::string& InterfaceDescriptor() const = 0;

  // Sends a transaction to the object. For proxies this crosses the (virtual)
  // process boundary through the driver; for local binders it dispatches
  // directly (same-process call, no IPC, no JGR side effects).
  virtual Status Transact(std::uint32_t code, const Parcel& data,
                          Parcel* reply) = 0;
};

// Local binder object. Subclasses implement OnTransact; framework services
// derive their native stubs from this.
class BBinder : public IBinder,
                public std::enable_shared_from_this<BBinder> {
 public:
  BBinder(std::string descriptor) : descriptor_(std::move(descriptor)) {}

  NodeId node() const override { return node_; }
  bool IsProxy() const override { return false; }
  const std::string& InterfaceDescriptor() const override {
    return descriptor_;
  }

  Status Transact(std::uint32_t code, const Parcel& data,
                  Parcel* reply) override;

  // Dispatch with full calling context; invoked by the driver.
  virtual Status OnTransact(std::uint32_t code, const Parcel& data,
                            Parcel* reply, const CallContext& ctx) = 0;

  // Set by BinderDriver::RegisterBinder.
  void AttachNode(BinderDriver* driver, NodeId node, Pid owner) {
    driver_ = driver;
    node_ = node;
    owner_pid_ = owner;
  }
  Pid owner_pid() const { return owner_pid_; }
  BinderDriver* driver() const { return driver_; }

 private:
  std::string descriptor_;
  BinderDriver* driver_ = nullptr;
  NodeId node_;
  Pid owner_pid_;
};

// Remote proxy. One exists per (holder process, node) at the Java level via
// the runtime's BinderProxy cache; the C++ object is a thin forwarding shim.
class BpBinder : public IBinder {
 public:
  BpBinder(BinderDriver* driver, NodeId node, Pid holder_pid)
      : driver_(driver), node_(node), holder_pid_(holder_pid) {}

  NodeId node() const override { return node_; }
  bool IsProxy() const override { return true; }
  // The node's descriptor, looked up in the driver on every call: the
  // driver's interner is rebuilt by an in-place restore, so a proxy keeps no
  // copy of or pointer into it.
  const std::string& InterfaceDescriptor() const override;

  Status Transact(std::uint32_t code, const Parcel& data,
                  Parcel* reply) override;

  Pid holder_pid() const { return holder_pid_; }

 private:
  BinderDriver* driver_;
  NodeId node_;
  Pid holder_pid_;
};

// A strong binder as materialized in a process after crossing IPC (or being
// looked up from the service manager): the C++ object plus the Java-level
// object identity whose JGR the receiving runtime holds. `java_obj` is
// invalid for same-process binders (no proxy was created).
struct StrongBinder {
  std::shared_ptr<IBinder> binder;
  ObjectId java_obj;  // BinderProxy object in the holder's runtime
  NodeId node;

  bool valid() const { return binder != nullptr; }
};

}  // namespace jgre::binder

#endif  // JGRE_BINDER_IBINDER_H_
