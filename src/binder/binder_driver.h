// BinderDriver — the kernel binder module.
//
// Routes transactions between processes, maintains the node/handle tables,
// delivers death notifications, and — when the paper's defense is enabled —
// records every transaction into an in-memory IPC log exported through
// `/proc/jgre_ipc_log` ("from pid, to pid, target handle, to node and
// timestamp", §V.B). Because the log is produced in the kernel, a malicious
// app cannot fake its own IPC history; this is the trust anchor of the
// defense's scoring phase.
//
// JGR bookkeeping at the driver boundary:
// * materializing a binder in a holder process creates the BinderProxy + JGR
//   through the holder runtime (cached per node, as in libbinder);
// * the sender's JavaBBinder holds a JGR in the *sender* process for as long
//   as any remote proxy exists (the kernel keeps a ref on the node);
// * LinkToDeath allocates a JavaDeathRecipient + JGR in the holder process,
//   released when the link fires or is dropped.
#ifndef JGRE_BINDER_BINDER_DRIVER_H_
#define JGRE_BINDER_BINDER_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "common/types.h"
#include "binder/ibinder.h"
#include "binder/ipc_log.h"
#include "binder/parcel.h"
#include "obs/event_bus.h"
#include "os/kernel.h"
#include "snapshot/serializer.h"

namespace jgre::binder {

using LinkId = std::int64_t;

class BinderDriver {
 public:
  struct Config {
    // Transport cost model (virtual time). Calibrated so a small-payload
    // call costs ~0.2 ms and a 500 KB payload ~3.3 ms on the stock path,
    // matching the scale of Fig. 10.
    DurationUs base_transact_cost_us = 130;
    double us_per_kb = 6.5;
    // Defense-extended driver: log every transaction. The paper measures a
    // worst-case 1.247 ms extra per call (~46.7%): a constant record write
    // plus a payload-proportional part (metadata/digest copy).
    DurationUs defense_log_base_us = 45;
    double defense_log_fraction = 0.40;
    std::size_t ipc_log_capacity = 1 << 21;
  };

  BinderDriver(os::Kernel* kernel, Config config);
  BinderDriver(os::Kernel* kernel);

  BinderDriver(const BinderDriver&) = delete;
  BinderDriver& operator=(const BinderDriver&) = delete;

  os::Kernel& kernel() { return *kernel_; }

  // --- Node registry ---------------------------------------------------------

  // Registers a local binder owned by `owner`, allocating the node and the
  // sender-side JavaBBinder (one JGR in the owner process, held while the
  // kernel keeps the node referenced). Returns the node id.
  NodeId RegisterBinder(const std::shared_ptr<BBinder>& binder, Pid owner);

  // Creates a binder of type T owned by `owner` and registers it.
  template <typename T, typename... Args>
  std::shared_ptr<T> MakeBinder(Pid owner, Args&&... args) {
    auto obj = std::make_shared<T>(std::forward<Args>(args)...);
    RegisterBinder(obj, owner);
    return obj;
  }

  // Materializes `node` in `holder`: same-process nodes yield the local
  // BBinder (no JGR); remote nodes yield a proxy, minting the BinderProxy +
  // JGR on first sight (javaObjectForIBinder).
  Result<StrongBinder> MaterializeBinder(NodeId node, Pid holder);

  bool IsNodeAlive(NodeId node) const;
  Pid NodeOwner(NodeId node) const;

  // Marks a node as permanently referenced (servicemanager holds a handle to
  // every registered service forever), so its owner-side JavaBBinder is never
  // released by proxy churn.
  void PinNode(NodeId node);

  // Drops the kernel's reference to a node whose owner discarded the object
  // (e.g. a service deleting a per-client session binder): the node dies,
  // death links fire, and the owner-side JavaBBinder becomes collectable.
  void ReleaseNode(NodeId node);

  // --- Transactions ---------------------------------------------------------

  Status Transact(Pid caller, NodeId target, std::uint32_t code,
                  const Parcel& data, Parcel* reply);

  // Identity of a top-level transaction, snapshotted before dispatch (node
  // pointers can dangle across OnTransact — registration may reallocate the
  // node table).
  struct TransactInfo {
    Pid caller;
    Uid caller_uid;
    Pid target_owner;
    NodeId target;
    DescriptorId descriptor_id = 0;
    std::uint32_t code = 0;
  };
  // Admission gate, consulted for every *top-level* transaction after the
  // transport cost is charged but before logging/dispatch. A non-OK status
  // denies the call: the callee never runs, no IPC-log record or kIpc event
  // is produced (the call never reached the victim), and the status is
  // returned to the caller verbatim. The post-transact hook still runs, so
  // virtual time and GC cadence advance even for a caller spinning on
  // denials. Arms-race mitigations (per-UID quotas, rate limits) install
  // here — the seam a real deployment would patch into the binder driver.
  using TransactGate = std::function<Status(const TransactInfo&)>;
  // Completion observer for every admitted top-level transaction, invoked
  // after dispatch (before the post-transact hook) with the final status.
  using TransactObserver =
      std::function<void(const TransactInfo&, const Status&)>;

  void SetTransactGate(TransactGate gate) { transact_gate_ = std::move(gate); }
  void SetTransactObserver(TransactObserver observer) {
    transact_observer_ = std::move(observer);
  }

  // Hook invoked after every *top-level* transaction returns; the core
  // facade uses it for GC cadence, soft-reboot handling and defense pumping.
  void SetPostTransactHook(std::function<void()> hook) {
    post_transact_hook_ = std::move(hook);
  }

  // --- Death notification ------------------------------------------------------

  Result<LinkId> LinkToDeath(Pid holder, NodeId node,
                             std::shared_ptr<DeathRecipient> recipient);
  bool UnlinkToDeath(LinkId link);

  // Re-attaches the recipient callback of a restored death link. Checkpoints
  // persist links without their recipients (a DeathRecipient is live wiring);
  // the owning component recreates its recipient object during its own
  // RestoreState and hangs it back on the link here. Returns false if no such
  // link exists.
  bool ReattachDeathRecipient(LinkId link,
                              std::shared_ptr<DeathRecipient> recipient);

  // --- IPC log (defense) -------------------------------------------------------

  // Turns the extended-driver logging on/off (stock Android: off).
  void SetDefenseLogging(bool enabled) { defense_logging_ = enabled; }
  bool defense_logging() const { return defense_logging_; }

  // Invokes `visitor` on every retained record with seq >= since_seq,
  // oldest first, and returns the number of records visited. Permission
  // mirrors the procfs file mode: only root/system may read (§V.B). The
  // window is located in O(1) from the log's logical indices, and no record
  // is copied. The defender ranks through this, from the first record no
  // incident has scored (see ipc_log_next_seq).
  Result<std::size_t> VisitIpcLogSince(
      Uid caller, std::uint64_t since_seq,
      const std::function<void(const IpcRecord&)>& visitor) const;

  // Resolves an interned descriptor id back to the interface string.
  const std::string& DescriptorName(DescriptorId id) const {
    return descriptors_.Name(id);
  }

  // Interface descriptor of a node (empty for an unknown node). Restore paths
  // use this to rebuild proxy shims from the node table.
  const std::string& NodeDescriptor(NodeId node) const;

  // Renders the textual /proc/jgre_ipc_log content (bounded tail).
  std::string RenderIpcLogProcfs(std::size_t max_lines = 64) const;

  std::uint64_t ipc_log_next_seq() const { return ipc_log_.next_seq(); }
  std::size_t ipc_log_size() const { return ipc_log_.size(); }
  std::int64_t total_transactions() const { return total_transactions_; }

  // Marks every node registered so far as a boot node. The core facade calls
  // this once, when Boot() finishes; RestoreState keeps exactly these nodes.
  void RecordBootNodes() { boot_node_count_ = nodes_.size(); }

  // Checkpointing. SaveState writes the node table, death links (sans
  // recipients — live wiring re-attached by their owners), descriptor
  // interner, IPC ring log and counters. RestoreState runs against a booted
  // driver, whatever it ran since boot: it restores the image's node record
  // i over node i, refilling each node's holder list and death-link index in
  // their own storage, and destroys the nodes past the image's count (the
  // table's storage is released only when it is more than twice the image's
  // need). Boot-created nodes keep their real BBinder objects (a
  // deterministic boot recreates them bit-for-bit); one whose object died
  // since boot while the image has it live fails the stream. Live post-boot
  // nodes get fresh placeholder objects that refuse transactions — the
  // checkpoint contract requires that no such node receives a transaction
  // after restore (the harness checkpoints at a quiescent boundary where all
  // dynamic clients have been stopped).
  void SaveState(snapshot::Serializer& out) const;
  void RestoreState(snapshot::Deserializer& in);

 private:
  struct Node {
    NodeId id;
    Pid owner;
    DescriptorId descriptor_id = StringInterner::kInvalidId;
    std::shared_ptr<BBinder> strong;  // kernel ref while node is live
    ObjectId sender_obj;              // JavaBBinder in the owner runtime
    std::vector<Pid> holders;         // processes with a live proxy; sorted
    // Death links registered on this node, ascending link id (links are
    // appended in id order). Derived index over links_, rebuilt on restore.
    std::vector<LinkId> death_links;
    bool pinned = false;              // servicemanager holds it forever
    bool dead = false;
  };

  struct DeathLink {
    LinkId id;
    NodeId node;
    Pid holder;
    std::shared_ptr<DeathRecipient> recipient;
    ObjectId recipient_obj;  // JavaDeathRecipient in the holder runtime
  };

  Node* FindNode(NodeId node);
  const Node* FindNode(NodeId node) const;
  void OnProxyCollected(Pid holder, NodeId node);
  void OnProcessDeath(Pid pid);
  void ReleaseSenderRef(Node& node);
  void FireDeathLinks(NodeId node);
  void AppendLog(Pid from, Uid from_uid, Pid to, NodeId node,
                 std::uint32_t code, DescriptorId descriptor_id);
  void AttachRuntimeHooks(Pid pid, rt::Runtime* runtime);
  // Bus label for a descriptor, interned once per descriptor on first use so
  // the per-transaction emit is an array load.
  obs::LabelId DescriptorLabel(DescriptorId id);

  os::Kernel* kernel_;
  Config config_;
  bool defense_logging_ = false;

  // Node ids are dense (1, 2, 3, ...) and a running system never erases a
  // node — dead ones are only marked — so the node table is a flat vector
  // indexed by id - 1: routing a transaction is a bounds check + array
  // index, not a hash lookup. Only a restore trims it, to the image's count.
  std::int64_t next_node_ = 1;
  std::vector<Node> nodes_;
  // Nodes the boot registered (RecordBootNodes); the prefix of nodes_ whose
  // objects a restore keeps.
  std::size_t boot_node_count_ = 0;

  // Interface descriptors, interned once per distinct string.
  StringInterner descriptors_;
  // descriptor_id -> bus LabelId, filled lazily (kInvalidId sentinel = ~0).
  std::vector<obs::LabelId> descriptor_labels_;

  LinkId next_link_ = 1;
  std::unordered_map<LinkId, DeathLink> links_;

  IpcLog ipc_log_;
  std::int64_t total_transactions_ = 0;

  // Dense pid-indexed flags (slot = pid - 1): whether the process's runtime
  // already has our proxy-collect handler installed.
  std::vector<std::uint8_t> hooked_runtimes_;
  int transact_depth_ = 0;
  TransactGate transact_gate_;
  TransactObserver transact_observer_;
  std::function<void()> post_transact_hook_;
};

}  // namespace jgre::binder

#endif  // JGRE_BINDER_BINDER_DRIVER_H_
