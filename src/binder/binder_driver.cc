#include "binder/binder_driver.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/log.h"
#include "common/strings.h"

namespace jgre::binder {

namespace {

// Stand-in for a live post-boot binder whose concrete implementation cannot
// be reconstructed from a checkpoint (the object behind it was created by
// dynamic app code). The checkpoint contract guarantees such nodes never
// receive a transaction after restore; if one does anyway, fail loudly
// instead of silently diverging from the cold run.
class RestoredPlaceholderBinder : public BBinder {
 public:
  explicit RestoredPlaceholderBinder(std::string descriptor)
      : BBinder(std::move(descriptor)) {}

  Status OnTransact(std::uint32_t /*code*/, const Parcel& /*data*/,
                    Parcel* /*reply*/, const CallContext& /*ctx*/) override {
    return Unavailable(
        "transaction to a placeholder binder restored from a checkpoint");
  }
};

}  // namespace

BinderDriver::BinderDriver(os::Kernel* kernel, Config config)
    : kernel_(kernel), config_(config), ipc_log_(config.ipc_log_capacity) {
  kernel_->AddDeathListener(
      [this](Pid pid, const std::string& /*reason*/) { OnProcessDeath(pid); });
}

BinderDriver::BinderDriver(os::Kernel* kernel)
    : BinderDriver(kernel, Config{}) {}

NodeId BinderDriver::RegisterBinder(const std::shared_ptr<BBinder>& binder,
                                    Pid owner) {
  assert(binder != nullptr);
  os::Process* proc = kernel_->FindProcess(owner);
  assert(proc != nullptr && proc->alive && "binder owner must be alive");
  const NodeId node_id{next_node_++};
  Node node;
  node.id = node_id;
  node.owner = owner;
  node.descriptor_id = descriptors_.Intern(binder->InterfaceDescriptor());
  node.strong = binder;
  if (proc->HasRuntime()) {
    // The Java-side Binder object: JavaBBinder takes a global ref in the
    // *sender* process (android_util_Binder.cpp), held while the kernel
    // keeps the node referenced.
    auto obj = proc->runtime->AllocManagedObject(rt::ObjectKind::kJavaBBinder);
    if (obj.ok()) {
      node.sender_obj = obj.value();
      proc->runtime->heap().AddHold(node.sender_obj);
    }
    AttachRuntimeHooks(owner, proc->runtime.get());
  }
  binder->AttachNode(this, node_id, owner);
  nodes_.push_back(std::move(node));
  return node_id;
}

BinderDriver::Node* BinderDriver::FindNode(NodeId node) {
  const std::int64_t id = node.value();
  if (id < 1 || id >= next_node_) return nullptr;
  return &nodes_[static_cast<std::size_t>(id - 1)];
}

const BinderDriver::Node* BinderDriver::FindNode(NodeId node) const {
  const std::int64_t id = node.value();
  if (id < 1 || id >= next_node_) return nullptr;
  return &nodes_[static_cast<std::size_t>(id - 1)];
}

bool BinderDriver::IsNodeAlive(NodeId node) const {
  const Node* n = FindNode(node);
  return n != nullptr && !n->dead;
}

Pid BinderDriver::NodeOwner(NodeId node) const {
  const Node* n = FindNode(node);
  return n == nullptr ? Pid{} : n->owner;
}

void BinderDriver::AttachRuntimeHooks(Pid pid, rt::Runtime* runtime) {
  const std::size_t slot = static_cast<std::size_t>(pid.value() - 1);
  if (slot >= hooked_runtimes_.size()) hooked_runtimes_.resize(slot + 1, 0);
  if (hooked_runtimes_[slot] != 0) return;
  hooked_runtimes_[slot] = 1;
  runtime->SetProxyCollectHandler(
      [this, pid](NodeId node) { OnProxyCollected(pid, node); });
}

Result<StrongBinder> BinderDriver::MaterializeBinder(NodeId node_id,
                                                     Pid holder) {
  Node* node = FindNode(node_id);
  if (node == nullptr || node->dead) {
    return Unavailable("DEAD_OBJECT: binder node is gone");
  }
  if (!kernel_->IsAlive(node->owner)) {
    return Unavailable("DEAD_OBJECT: owner process died");
  }
  if (holder == node->owner) {
    // Same-process: the local object itself, no proxy, no JGR.
    return StrongBinder{node->strong, ObjectId{}, node_id};
  }
  os::Process* holder_proc = kernel_->FindProcess(holder);
  if (holder_proc == nullptr || !holder_proc->alive) {
    return FailedPrecondition("holder process is dead");
  }
  StrongBinder out;
  out.node = node_id;
  out.binder = std::make_shared<BpBinder>(this, node_id, holder);
  if (holder_proc->HasRuntime()) {
    AttachRuntimeHooks(holder, holder_proc->runtime.get());
    auto proxy = holder_proc->runtime->GetOrCreateBinderProxy(node_id);
    if (!proxy.ok()) return proxy.status();  // JGR table overflow in holder
    out.java_obj = proxy.value();
    auto it =
        std::lower_bound(node->holders.begin(), node->holders.end(), holder);
    if (it == node->holders.end() || *it != holder) {
      node->holders.insert(it, holder);
    }
    // Inside a dispatch frame the received jobject also takes a local
    // reference, released when the frame pops.
    if (holder_proc->runtime->InLocalFrame()) {
      auto local = holder_proc->runtime->AddLocalRef(proxy.value());
      if (!local.ok()) return local.status();  // local table overflow (512)
    }
  }
  return out;
}

void BinderDriver::ReleaseNode(NodeId node_id) {
  Node* node = FindNode(node_id);
  if (node == nullptr || node->dead) return;
  node->dead = true;
  node->strong.reset();
  ReleaseSenderRef(*node);
  FireDeathLinks(node_id);
}

void BinderDriver::ReleaseSenderRef(Node& node) {
  if (!node.sender_obj.valid()) return;
  os::Process* owner = kernel_->FindProcess(node.owner);
  if (owner != nullptr && owner->alive && owner->HasRuntime() &&
      owner->runtime->heap().IsAlive(node.sender_obj)) {
    owner->runtime->heap().RemoveHold(node.sender_obj);
  }
  node.sender_obj = ObjectId{};
}

void BinderDriver::PinNode(NodeId node_id) {
  if (Node* node = FindNode(node_id); node != nullptr) node->pinned = true;
}

void BinderDriver::OnProxyCollected(Pid holder, NodeId node_id) {
  Node* node = FindNode(node_id);
  if (node == nullptr) return;
  auto it =
      std::lower_bound(node->holders.begin(), node->holders.end(), holder);
  if (it != node->holders.end() && *it == holder) node->holders.erase(it);
  if (node->holders.empty() && !node->dead && !node->pinned) {
    // Last remote ref dropped: the kernel releases the node; the sender-side
    // JavaBBinder becomes collectable (its JGR goes with it at next GC).
    ReleaseSenderRef(*node);
  }
}

void BinderDriver::OnProcessDeath(Pid pid) {
  // 1. Nodes owned by the dead process die; their death links fire.
  std::vector<NodeId> dead_nodes;
  for (Node& node : nodes_) {
    if (node.owner == pid && !node.dead) {
      node.dead = true;
      node.strong.reset();
      node.sender_obj = ObjectId{};  // runtime is gone
      dead_nodes.push_back(node.id);
    }
  }
  for (NodeId node : dead_nodes) FireDeathLinks(node);
  // 2. Proxies held by the dead process disappear with its runtime.
  for (Node& node : nodes_) {
    auto it = std::lower_bound(node.holders.begin(), node.holders.end(), pid);
    if (it != node.holders.end() && *it == pid) {
      node.holders.erase(it);
      if (node.holders.empty() && !node.dead && !node.pinned) {
        ReleaseSenderRef(node);
      }
    }
  }
  // 3. Death links whose holder died are dropped silently (and removed from
  // their node's link index).
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->second.holder == pid) {
      if (Node* node = FindNode(it->second.node); node != nullptr) {
        auto& ids = node->death_links;
        auto pos = std::lower_bound(ids.begin(), ids.end(), it->second.id);
        if (pos != ids.end() && *pos == it->second.id) ids.erase(pos);
      }
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
}

void BinderDriver::FireDeathLinks(NodeId node) {
  // Consume the node's link index first: recipients may unlink or register
  // new links (on other nodes, or re-register on this one) during callbacks.
  // The index is maintained in ascending link-id (registration) order, so
  // firing is deterministic across a checkpoint restore.
  Node* n = FindNode(node);
  if (n == nullptr || n->death_links.empty()) return;
  std::vector<LinkId> ids = std::move(n->death_links);
  n->death_links.clear();
  std::vector<DeathLink> fired;
  fired.reserve(ids.size());
  for (LinkId id : ids) {
    auto it = links_.find(id);
    if (it == links_.end()) continue;
    fired.push_back(std::move(it->second));
    links_.erase(it);
  }
  for (DeathLink& link : fired) {
    os::Process* holder = kernel_->FindProcess(link.holder);
    if (holder == nullptr || !holder->alive) continue;
    if (link.recipient != nullptr) link.recipient->BinderDied(node);
    // JavaDeathRecipient::binderDied clears its global ref after dispatch.
    if (holder->HasRuntime() &&
        holder->runtime->heap().IsAlive(link.recipient_obj)) {
      holder->runtime->heap().RemoveHold(link.recipient_obj);
    }
  }
}

Result<LinkId> BinderDriver::LinkToDeath(
    Pid holder, NodeId node_id, std::shared_ptr<DeathRecipient> recipient) {
  Node* node = FindNode(node_id);
  if (node == nullptr || node->dead || !kernel_->IsAlive(node->owner)) {
    return Unavailable("DEAD_OBJECT: cannot link to dead binder");
  }
  os::Process* holder_proc = kernel_->FindProcess(holder);
  if (holder_proc == nullptr || !holder_proc->alive) {
    return FailedPrecondition("holder process is dead");
  }
  DeathLink link;
  link.id = next_link_++;
  link.node = node_id;
  link.holder = holder;
  link.recipient = std::move(recipient);
  if (holder_proc->HasRuntime()) {
    // JavaDeathRecipient holds one JGR on the recipient object while linked.
    auto obj = holder_proc->runtime->AllocManagedObject(
        rt::ObjectKind::kDeathRecipient);
    if (!obj.ok()) return obj.status();  // JGR overflow in the holder
    link.recipient_obj = obj.value();
    holder_proc->runtime->heap().AddHold(link.recipient_obj);
  }
  const LinkId id = link.id;
  // Link ids are monotonically increasing, so appending keeps the node's
  // index sorted.
  node->death_links.push_back(id);
  links_.emplace(id, std::move(link));
  return id;
}

bool BinderDriver::ReattachDeathRecipient(
    LinkId link_id, std::shared_ptr<DeathRecipient> recipient) {
  auto it = links_.find(link_id);
  if (it == links_.end()) return false;
  it->second.recipient = std::move(recipient);
  return true;
}

bool BinderDriver::UnlinkToDeath(LinkId link_id) {
  auto it = links_.find(link_id);
  if (it == links_.end()) return false;
  const DeathLink& link = it->second;
  os::Process* holder = kernel_->FindProcess(link.holder);
  if (holder != nullptr && holder->alive && holder->HasRuntime() &&
      holder->runtime->heap().IsAlive(link.recipient_obj)) {
    holder->runtime->heap().RemoveHold(link.recipient_obj);
  }
  if (Node* node = FindNode(link.node); node != nullptr) {
    auto& ids = node->death_links;
    auto pos = std::lower_bound(ids.begin(), ids.end(), link_id);
    if (pos != ids.end() && *pos == link_id) ids.erase(pos);
  }
  links_.erase(it);
  return true;
}

Status BinderDriver::Transact(Pid caller, NodeId target, std::uint32_t code,
                              const Parcel& data, Parcel* reply) {
  const os::Process* caller_proc = kernel_->FindProcess(caller);
  if (caller_proc == nullptr || !caller_proc->alive) {
    return FailedPrecondition("calling process is dead");
  }
  Node* node = FindNode(target);
  if (node == nullptr || node->dead || !kernel_->IsAlive(node->owner)) {
    return Unavailable("DEAD_OBJECT: transaction to dead binder");
  }
  os::Process* target_proc = kernel_->FindProcess(node->owner);
  if (target_proc->HasRuntime() && target_proc->runtime->aborted()) {
    return Unavailable("DEAD_OBJECT: target runtime aborted");
  }

  // Transport cost: copy in/out through the driver.
  const double payload_kb =
      static_cast<double>(data.payload_bytes()) / 1024.0;
  DurationUs cost = config_.base_transact_cost_us +
                    static_cast<DurationUs>(payload_kb * config_.us_per_kb);
  if (defense_logging_) {
    cost += config_.defense_log_base_us +
            static_cast<DurationUs>(config_.defense_log_fraction *
                                    static_cast<double>(cost));
  }
  kernel_->clock().AdvanceUs(cost);

  // Top-level admission gate (mitigations). Denied calls have already paid
  // the transport cost, but never reach the callee: no log record, no kIpc
  // event. The post-transact hook still fires so the system keeps breathing
  // (GC, defense pump) under a deny-spinning caller.
  const bool top_level = transact_depth_ == 0;
  TransactInfo info;
  if (top_level && (transact_gate_ || transact_observer_)) {
    info.caller = caller;
    info.caller_uid = caller_proc->uid;
    info.target_owner = node->owner;
    info.target = target;
    info.descriptor_id = node->descriptor_id;
    info.code = code;
  }
  if (top_level && transact_gate_) {
    Status admitted = transact_gate_(info);
    if (!admitted.ok()) {
      if (post_transact_hook_) post_transact_hook_();
      return admitted;
    }
    // The gate may have run transactions of its own (it shouldn't) or
    // advanced the clock (backoff mitigations do); the node table is append-
    // only outside reboot, so `node` stays valid here.
  }

  if (defense_logging_) {
    AppendLog(caller, caller_proc->uid, node->owner, target, code,
              node->descriptor_id);
  }
  if (obs::EventBus& bus = kernel_->bus();
      bus.Wants(obs::Category::kIpc)) {
    // arg1 packs (descriptor_id, code) exactly like defense::MakeIpcTypeKey,
    // the interface type the hunts and fuzz coverage key on.
    bus.Emit(obs::MakeEvent(
        obs::Category::kIpc, DescriptorLabel(node->descriptor_id),
        kernel_->clock().NowUs(), caller.value(), caller_proc->uid.value(),
        node->owner.value(),
        static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(node->descriptor_id) << 32) | code)));
  }

  ++total_transactions_;
  CallContext ctx;
  ctx.calling_pid = caller;
  ctx.calling_uid = caller_proc->uid;
  ctx.self_pid = node->owner;
  ctx.runtime = target_proc->HasRuntime() ? target_proc->runtime.get() : nullptr;
  ctx.driver = this;
  ctx.clock = &kernel_->clock();

  data.RewindRead();
  ++transact_depth_;
  // The callee's native dispatch runs inside a JNI local frame: every local
  // reference it creates is released when the frame pops (the reason only
  // global references leak across calls, §I).
  rt::IndirectReferenceTable::Cookie local_frame = 0;
  const bool framed = ctx.runtime != nullptr && !ctx.runtime->aborted();
  if (framed) local_frame = ctx.runtime->PushLocalFrame();
  // Keep the callee alive across the handler even if it is unregistered
  // mid-call.
  std::shared_ptr<BBinder> callee = node->strong;
  Status status = callee != nullptr
                      ? callee->OnTransact(code, data, reply, ctx)
                      : Unavailable("DEAD_OBJECT: node lost its object");
  if (framed && !ctx.runtime->aborted()) {
    ctx.runtime->PopLocalFrame(local_frame);
  }
  --transact_depth_;
  if (transact_depth_ == 0) {
    if (transact_observer_) transact_observer_(info, status);
    if (post_transact_hook_) post_transact_hook_();
  }
  return status;
}

obs::LabelId BinderDriver::DescriptorLabel(DescriptorId id) {
  if (id == StringInterner::kInvalidId) {
    return obs::LabelIdOf(obs::Label::kIpcTransact);
  }
  if (descriptor_labels_.size() <= id) {
    descriptor_labels_.resize(id + 1, StringInterner::kInvalidId);
  }
  if (descriptor_labels_[id] == StringInterner::kInvalidId) {
    descriptor_labels_[id] = kernel_->bus().InternLabel(descriptors_.Name(id));
  }
  return descriptor_labels_[id];
}

void BinderDriver::AppendLog(Pid from, Uid from_uid, Pid to, NodeId node,
                             std::uint32_t code, DescriptorId descriptor_id) {
  ipc_log_.Push(kernel_->clock().NowUs(), from, from_uid, to, node, code,
                descriptor_id);
}

Result<std::size_t> BinderDriver::VisitIpcLogSince(
    Uid caller, std::uint64_t since_seq,
    const std::function<void(const IpcRecord&)>& visitor) const {
  if (caller != kRootUid && caller != kSystemUid) {
    return PermissionDenied(
        "/proc/jgre_ipc_log is only readable by system services");
  }
  // Seq s lives at logical index s - 1 (seqs start at 1 and are assigned in
  // push order), so the window start is a constant-time computation.
  return ipc_log_.VisitSince(since_seq > 0 ? since_seq - 1 : 0, visitor);
}

const std::string& BinderDriver::NodeDescriptor(NodeId node) const {
  static const std::string kEmpty;
  const Node* n = FindNode(node);
  if (n == nullptr || n->descriptor_id == StringInterner::kInvalidId) {
    return kEmpty;
  }
  return descriptors_.Name(n->descriptor_id);
}

void BinderDriver::SaveState(snapshot::Serializer& out) const {
  out.Marker(0x42445232);  // "BDR2": columnar IPC log, derived seq counter
  descriptors_.SaveState(out);
  out.I64(next_node_);
  for (const Node& node : nodes_) {  // vector order == id order
    out.I64(node.id.value());
    out.I64(node.owner.value());
    out.U32(node.descriptor_id);
    out.Bool(node.strong != nullptr);
    out.I64(node.sender_obj.value());
    out.U64(node.holders.size());
    for (Pid holder : node.holders) out.I64(holder.value());  // kept sorted
    out.Bool(node.pinned);
    out.Bool(node.dead);
  }
  out.I64(next_link_);
  std::vector<LinkId> link_ids;
  link_ids.reserve(links_.size());
  for (const auto& [id, link] : links_) link_ids.push_back(id);
  std::sort(link_ids.begin(), link_ids.end());
  out.U64(link_ids.size());
  for (LinkId id : link_ids) {
    const DeathLink& link = links_.at(id);
    out.I64(link.id);
    out.I64(link.node.value());
    out.I64(link.holder.value());
    out.I64(link.recipient_obj.value());
  }
  ipc_log_.SaveState(out);
  out.I64(total_transactions_);
  out.Bool(defense_logging_);
  std::uint64_t hooked = 0;
  for (std::uint8_t flag : hooked_runtimes_) hooked += flag;
  out.U64(hooked);
  for (std::size_t slot = 0; slot < hooked_runtimes_.size(); ++slot) {
    if (hooked_runtimes_[slot] != 0) {
      out.I64(static_cast<std::int64_t>(slot) + 1);  // ascending pids
    }
  }
}

void BinderDriver::RestoreState(snapshot::Deserializer& in) {
  // Bytes a node record takes at least: id, owner, descriptor, three flags,
  // the sender object and an empty holder list.
  constexpr std::size_t kMinNodeRecordBytes = 8 + 8 + 4 + 3 + 8 + 8;
  in.Marker(0x42445232);
  descriptors_.RestoreState(in);
  descriptor_labels_.clear();  // refilled lazily; interning is idempotent
  // Nodes minted since boot belong to whatever ran since, and so does the
  // room they took (a system is restored in place run after run); the image
  // brings back its own. next_node_ tracks nodes_, so FindNode stays in
  // bounds even if the stream fails part-way.
  nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(boot_node_count_),
               nodes_.end());
  nodes_.shrink_to_fit();
  next_node_ = static_cast<std::int64_t>(nodes_.size()) + 1;
  const std::int64_t next_node = in.I64();
  if (in.ok() && (next_node < 1 || static_cast<std::uint64_t>(next_node - 1) <
                                       boot_node_count_)) {
    in.Fail("checkpoint has fewer binder nodes than the boot");
    return;
  }
  const std::int64_t node_count = next_node - 1;
  if (!in.NeedRecords(static_cast<std::uint64_t>(node_count),
                      kMinNodeRecordBytes)) {
    return;
  }
  for (std::int64_t i = 0; i < node_count && in.ok(); ++i) {
    const NodeId id{in.I64()};
    const Pid owner{static_cast<std::int32_t>(in.I64())};
    const DescriptorId descriptor_id = in.U32();
    const bool has_strong = in.Bool();
    const ObjectId sender_obj{in.I64()};
    std::vector<Pid> holders;  // saved sorted
    for (std::uint64_t h = 0, n = in.U64(); h < n && in.ok(); ++h) {
      holders.push_back(Pid{static_cast<std::int32_t>(in.I64())});
    }
    const bool pinned = in.Bool();
    const bool dead = in.Bool();
    if (!in.ok()) return;
    if (id.value() != i + 1 || descriptor_id >= descriptors_.size()) {
      in.Fail("binder node id or descriptor out of range");
      return;
    }
    if (i < static_cast<std::int64_t>(boot_node_count_)) {
      // Boot-created node: the boot created the same object. Validate the
      // identity, then overwrite the mutable state.
      Node& node = nodes_[static_cast<std::size_t>(i)];
      if (node.id != id || node.owner != owner ||
          node.descriptor_id != descriptor_id) {
        in.Fail("boot-time binder node mismatch on restore");
        return;
      }
      if (has_strong && !dead && node.strong == nullptr) {
        in.Fail(StrCat("boot-time binder ", descriptors_.Name(descriptor_id),
                       " died since boot: restore into a fresh boot"));
        return;
      }
      if (!has_strong || dead) node.strong.reset();
      node.sender_obj = sender_obj;
      node.holders = std::move(holders);
      node.death_links.clear();  // rebuilt from the restored link table
      node.pinned = pinned;
      node.dead = dead;
    } else {
      Node node;
      node.id = id;
      node.owner = owner;
      node.descriptor_id = descriptor_id;
      node.sender_obj = sender_obj;
      node.holders = std::move(holders);
      node.pinned = pinned;
      node.dead = dead;
      if (has_strong && !dead) {
        node.strong = std::make_shared<RestoredPlaceholderBinder>(
            descriptors_.Name(descriptor_id));
        node.strong->AttachNode(this, id, owner);
      }
      nodes_.push_back(std::move(node));
      ++next_node_;
    }
  }
  next_link_ = in.I64();
  links_.clear();
  for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
    DeathLink link;
    link.id = in.I64();
    link.node = NodeId{in.I64()};
    link.holder = Pid{static_cast<std::int32_t>(in.I64())};
    link.recipient_obj = ObjectId{in.I64()};
    // Links were saved sorted by id, so appending keeps each node's index
    // sorted.
    if (Node* node = FindNode(link.node); node != nullptr) {
      node->death_links.push_back(link.id);
    }
    links_.emplace(link.id, std::move(link));
  }
  ipc_log_.RestoreState(in, descriptors_.size());
  total_transactions_ = in.I64();
  defense_logging_ = in.Bool();
  hooked_runtimes_.clear();
  const std::uint64_t hooked = in.U64();
  if (!in.NeedRecords(hooked, 8)) return;
  for (std::uint64_t i = 0; i < hooked && in.ok(); ++i) {
    const Pid pid{static_cast<std::int32_t>(in.I64())};
    os::Process* proc = kernel_->FindProcess(pid);
    if (proc == nullptr) {
      in.Fail("hooked runtime names no process");
      return;
    }
    const std::size_t slot = static_cast<std::size_t>(pid.value() - 1);
    if (slot >= hooked_runtimes_.size()) hooked_runtimes_.resize(slot + 1, 0);
    hooked_runtimes_[slot] = 1;
    if (proc->alive && proc->HasRuntime()) {
      proc->runtime->SetProxyCollectHandler(
          [this, pid](NodeId node) { OnProxyCollected(pid, node); });
    }
  }
}

std::string BinderDriver::RenderIpcLogProcfs(std::size_t max_lines) const {
  std::ostringstream os;
  os << "seq timestamp_us from_pid from_uid to_pid target_node code iface\n";
  std::uint64_t index = ipc_log_.first_index();
  if (ipc_log_.size() > max_lines) {
    index = ipc_log_.end_index() - max_lines;
  }
  for (; index < ipc_log_.end_index(); ++index) {
    const IpcRecord& r = ipc_log_.At(index);
    os << r.seq << " " << r.timestamp_us << " " << r.from_pid.value() << " "
       << r.from_uid.value() << " " << r.to_pid.value() << " "
       << r.target_node.value() << " " << r.code << " "
       << descriptors_.Name(r.descriptor_id) << "\n";
  }
  return os.str();
}

}  // namespace jgre::binder
