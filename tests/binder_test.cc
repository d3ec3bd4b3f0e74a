// Binder layer tests: Parcel semantics, driver routing, JGR side effects of
// crossing the IPC boundary, death links, node release, RemoteCallbackList
// and ServiceManager.
#include <gtest/gtest.h>

#include <deque>

#include "binder/binder_driver.h"
#include "binder/parcel.h"
#include "binder/remote_callback_list.h"
#include "binder/service_manager.h"
#include "os/kernel.h"
#include "snapshot/serializer.h"

namespace jgre::binder {
namespace {

// Minimal echo service used as a transaction target.
class EchoBinder : public BBinder {
 public:
  EchoBinder() : BBinder("test.IEcho") {}
  Status OnTransact(std::uint32_t code, const Parcel& data, Parcel* reply,
                    const CallContext& ctx) override {
    last_calling_uid = ctx.calling_uid;
    last_calling_pid = ctx.calling_pid;
    ++calls;
    if (code == 1) {  // echo int
      auto v = data.ReadInt32();
      if (!v.ok()) return v.status();
      reply->WriteInt32(v.value());
    } else if (code == 2) {  // retain binder
      auto b = data.ReadStrongBinder(ctx);
      if (!b.ok()) return b.status();
      retained.push_back(b.value());
      if (ctx.runtime != nullptr && b.value().java_obj.valid()) {
        ctx.runtime->heap().AddHold(b.value().java_obj);
      }
    }
    return Status::Ok();
  }
  int calls = 0;
  Uid last_calling_uid;
  Pid last_calling_pid;
  std::vector<StrongBinder> retained;
};

// The log records a system reader sees from `since_seq` on, oldest first.
std::vector<IpcRecord> LogSince(const BinderDriver& driver,
                                std::uint64_t since_seq) {
  std::vector<IpcRecord> out;
  auto visited = driver.VisitIpcLogSince(
      kSystemUid, since_seq, [&](const IpcRecord& rec) { out.push_back(rec); });
  EXPECT_TRUE(visited.ok()) << visited.status().ToString();
  EXPECT_EQ(visited.ok() ? visited.value() : 0, out.size());
  return out;
}

class BinderTest : public ::testing::Test {
 protected:
  BinderTest() : driver_(&kernel_), service_manager_(&driver_) {
    os::Kernel::ProcessConfig config;
    config.with_runtime = true;
    config.boot_class_refs = 0;
    config.memory_kb = 1024;
    server_pid_ = kernel_.CreateProcess("server", kSystemUid, config);
    client_pid_ = kernel_.CreateProcess("client", Uid{10001}, config);
    echo_ = driver_.MakeBinder<EchoBinder>(server_pid_);
  }

  rt::Runtime* ServerRuntime() {
    return kernel_.FindProcess(server_pid_)->runtime.get();
  }
  rt::Runtime* ClientRuntime() {
    return kernel_.FindProcess(client_pid_)->runtime.get();
  }

  os::Kernel kernel_;
  BinderDriver driver_;
  ServiceManager service_manager_;
  Pid server_pid_;
  Pid client_pid_;
  std::shared_ptr<EchoBinder> echo_;
};

// --- Parcel -------------------------------------------------------------------

TEST(ParcelTest, TypedRoundTrip) {
  Parcel parcel;
  parcel.WriteInterfaceToken("test.IFoo");
  parcel.WriteInt32(-7);
  parcel.WriteInt64(1LL << 40);
  parcel.WriteBool(true);
  parcel.WriteString("hello");
  parcel.WriteByteArray(512);

  EXPECT_TRUE(parcel.EnforceInterface("test.IFoo").ok());
  EXPECT_EQ(parcel.ReadInt32().value(), -7);
  EXPECT_EQ(parcel.ReadInt64().value(), 1LL << 40);
  EXPECT_TRUE(parcel.ReadBool().value());
  EXPECT_EQ(parcel.ReadString().value(), "hello");
  EXPECT_EQ(parcel.ReadByteArray().value(), 512u);
  // Past the end.
  EXPECT_FALSE(parcel.ReadInt32().ok());
}

TEST(ParcelTest, TypeConfusionIsRejected) {
  Parcel parcel;
  parcel.WriteInt32(1);
  auto s = parcel.ReadString();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParcelTest, InterfaceTokenMismatchRejected) {
  Parcel parcel;
  parcel.WriteInterfaceToken("test.IFoo");
  const Status mismatch = parcel.EnforceInterface("test.IBar");
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mismatch.message(),
            "interface token mismatch: expected test.IBar, got test.IFoo");
}

TEST(ParcelTest, PayloadBytesTrackWrites) {
  Parcel parcel;
  EXPECT_EQ(parcel.payload_bytes(), 0u);
  parcel.WriteByteArray(100 * 1024);
  EXPECT_GE(parcel.payload_bytes(), 100u * 1024u);
  EXPECT_FALSE(parcel.has_binders());
  parcel.WriteNullBinder();
  EXPECT_TRUE(parcel.has_binders());
}

// --- Parcels longer than their inline values ---------------------------------

// One value of every kind, more than a parcel keeps inline, so the tail
// spills to the heap.
Parcel LongParcel(const std::shared_ptr<IBinder>& binder) {
  Parcel parcel;
  parcel.WriteInterfaceToken("test.IFoo");  // index 0
  parcel.WriteInt32(-7);
  parcel.WriteInt64(1LL << 40);
  parcel.WriteBool(true);
  parcel.WriteString("a string longer than the small-string buffer");
  parcel.WriteByteArray(512);  // index 5
  parcel.WriteStrongBinder(binder);
  parcel.WriteNullBinder();
  parcel.WriteFileDescriptor();
  parcel.WriteInt32(8);  // index 9
  parcel.WriteString("tail");
  parcel.WriteInt64(-10);  // index 11
  return parcel;
}

// Reads `parcel` back as the process `ctx` names, from the first value. A
// failed read compares its fallback, so a misplaced value fails the
// expectation instead of reading an empty Result.
void ExpectLongParcelReadsBack(const Parcel& parcel, const CallContext& ctx,
                               NodeId binder) {
  ASSERT_EQ(parcel.value_count(), 12u);
  parcel.RewindRead();
  EXPECT_TRUE(parcel.EnforceInterface("test.IFoo").ok());
  EXPECT_EQ(parcel.ReadInt32().value_or(0), -7);
  EXPECT_EQ(parcel.ReadInt64().value_or(0), 1LL << 40);
  EXPECT_TRUE(parcel.ReadBool().value_or(false));
  EXPECT_EQ(parcel.ReadString().value_or(""),
            "a string longer than the small-string buffer");
  EXPECT_EQ(parcel.ReadByteArray().value_or(0), 512u);
  auto strong = parcel.ReadStrongBinder(ctx);
  ASSERT_TRUE(strong.ok()) << strong.status().ToString();
  EXPECT_EQ(strong.value().node, binder);
  auto null_binder = parcel.ReadStrongBinder(ctx);
  ASSERT_TRUE(null_binder.ok()) << null_binder.status().ToString();
  EXPECT_FALSE(null_binder.value().valid());
  EXPECT_TRUE(parcel.ReadFileDescriptor(ctx).ok());
  EXPECT_EQ(parcel.ReadString().status().message(),
            "parcel type confusion at index 9");
  EXPECT_EQ(parcel.ReadInt32().value_or(0), 8);
  EXPECT_EQ(parcel.ReadString().value_or(""), "tail");
  EXPECT_EQ(parcel.ReadInt64().value_or(0), -10);
  EXPECT_EQ(parcel.ReadInt32().status().message(), "parcel read past end");
}

TEST_F(BinderTest, ParcelValuesPastTheInlineOnesReadBackInOrder) {
  CallContext ctx;
  ctx.self_pid = server_pid_;
  ctx.driver = &driver_;
  const int fds_before = kernel_.OpenFdCount(server_pid_);
  const Parcel parcel = LongParcel(echo_);
  ExpectLongParcelReadsBack(parcel, ctx, echo_->node());
  EXPECT_EQ(kernel_.OpenFdCount(server_pid_), fds_before + 1);

  // A copy reads the same, and reading it leaves the original untouched.
  const Parcel copy = parcel;
  EXPECT_EQ(copy.payload_bytes(), parcel.payload_bytes());
  EXPECT_TRUE(copy.has_binders());
  ExpectLongParcelReadsBack(copy, ctx, echo_->node());
  ExpectLongParcelReadsBack(parcel, ctx, echo_->node());
}

TEST_F(BinderTest, ParcelTypeConfusionNamesAnInlineIndex) {
  const Parcel parcel = LongParcel(echo_);
  EXPECT_EQ(parcel.ReadString().status().message(),
            "parcel type confusion at index 0");
  EXPECT_TRUE(parcel.EnforceInterface("test.IFoo").ok());
  EXPECT_EQ(parcel.ReadBool().status().message(),
            "parcel type confusion at index 1");
  EXPECT_EQ(parcel.ReadInt32().value_or(0), -7);
}

TEST_F(BinderTest, ParcelPayloadBytesFollowTheWireSizes) {
  // Token: UTF-16 plus the strict-mode header. int32 4, int64 8, bool 4.
  // String: UTF-16 plus its length. Byte array: bytes plus length. Each
  // flat binder object (binder, null binder, fd) 24.
  const std::uint64_t expected = (9 * 2 + 8) + 4 + 8 + 4 + (44 * 2 + 4) +
                                 (512 + 4) + 3 * 24 + 4 + (4 * 2 + 4) + 8;
  EXPECT_EQ(LongParcel(echo_).payload_bytes(), expected);
}

// --- Driver routing -------------------------------------------------------------

TEST_F(BinderTest, TransactRoutesAndCarriesIdentity) {
  auto proxy = driver_.MaterializeBinder(echo_->node(), client_pid_);
  ASSERT_TRUE(proxy.ok());
  Parcel data;
  data.WriteInt32(41);
  Parcel reply;
  ASSERT_TRUE(proxy.value().binder->Transact(1, data, &reply).ok());
  EXPECT_EQ(reply.ReadInt32().value(), 41);
  EXPECT_EQ(echo_->last_calling_pid, client_pid_);
  EXPECT_EQ(echo_->last_calling_uid, Uid{10001});
  EXPECT_EQ(driver_.total_transactions(), 1);
}

TEST_F(BinderTest, TransactAdvancesVirtualTimeWithPayload) {
  auto proxy = driver_.MaterializeBinder(echo_->node(), client_pid_);
  ASSERT_TRUE(proxy.ok());
  Parcel small, big;
  small.WriteInt32(1);
  big.WriteInt32(1);
  big.WriteByteArray(400 * 1024);
  Parcel reply;
  const TimeUs t0 = kernel_.clock().NowUs();
  (void)proxy.value().binder->Transact(1, small, &reply);
  const DurationUs small_cost = kernel_.clock().NowUs() - t0;
  const TimeUs t1 = kernel_.clock().NowUs();
  (void)proxy.value().binder->Transact(1, big, &reply);
  const DurationUs big_cost = kernel_.clock().NowUs() - t1;
  EXPECT_GT(big_cost, small_cost + 2000);  // ~6.5 us/KB over 400 KB
}

TEST_F(BinderTest, SameProcessMaterializationIsFree) {
  auto local = driver_.MaterializeBinder(echo_->node(), server_pid_);
  ASSERT_TRUE(local.ok());
  EXPECT_FALSE(local.value().binder->IsProxy());
  EXPECT_FALSE(local.value().java_obj.valid());
}

TEST_F(BinderTest, CrossProcessMaterializationMintsOneJgr) {
  // Registering the binder already pinned the sender-side JavaBBinder.
  const std::size_t server_before = ServerRuntime()->JgrCount();
  const std::size_t client_before = ClientRuntime()->JgrCount();
  auto p1 = driver_.MaterializeBinder(echo_->node(), client_pid_);
  auto p2 = driver_.MaterializeBinder(echo_->node(), client_pid_);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value().java_obj, p2.value().java_obj);  // proxy cache
  EXPECT_EQ(ClientRuntime()->JgrCount(), client_before + 1);
  EXPECT_EQ(ServerRuntime()->JgrCount(), server_before);
}

TEST_F(BinderTest, DeadNodeYieldsDeadObject) {
  auto proxy = driver_.MaterializeBinder(echo_->node(), client_pid_);
  ASSERT_TRUE(proxy.ok());
  kernel_.KillProcess(server_pid_, "gone");
  Parcel data, reply;
  data.WriteInt32(1);
  Status status = proxy.value().binder->Transact(1, data, &reply);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(driver_.MaterializeBinder(echo_->node(), client_pid_).ok());
}

TEST_F(BinderTest, ReadStrongBinderCreatesJgrInReceiver) {
  // Client sends a fresh binder to the server, which retains it: the
  // vulnerable pattern. Server gains proxy + (client gains JavaBBinder).
  auto service_proxy = driver_.MaterializeBinder(echo_->node(), client_pid_);
  ASSERT_TRUE(service_proxy.ok());
  const std::size_t server_before = ServerRuntime()->JgrCount();
  auto callback = driver_.MakeBinder<EchoBinder>(client_pid_);
  Parcel data, reply;
  data.WriteStrongBinder(callback);
  ASSERT_TRUE(service_proxy.value().binder->Transact(2, data, &reply).ok());
  EXPECT_EQ(ServerRuntime()->JgrCount(), server_before + 1);
  // Retained by the handler: GC must NOT reclaim it.
  ServerRuntime()->CollectGarbage();
  EXPECT_EQ(ServerRuntime()->JgrCount(), server_before + 1);
}

TEST_F(BinderTest, UnretainedBinderIsReclaimedByGc) {
  auto service_proxy = driver_.MaterializeBinder(echo_->node(), client_pid_);
  ASSERT_TRUE(service_proxy.ok());
  const std::size_t server_before = ServerRuntime()->JgrCount();
  // code 1 reads an int; the attached binder is read... never: write a
  // binder that the handler does not read or retain. Use code 1 with int.
  auto callback = driver_.MakeBinder<EchoBinder>(client_pid_);
  Parcel data, reply;
  data.WriteInt32(9);
  data.WriteStrongBinder(callback);  // ignored by the handler
  ASSERT_TRUE(service_proxy.value().binder->Transact(1, data, &reply).ok());
  // Never materialized server-side: no JGR at all.
  EXPECT_EQ(ServerRuntime()->JgrCount(), server_before);
}

TEST_F(BinderTest, SenderSideJavaBBinderReleasedWhenProxiesDie) {
  const std::size_t client_base = ClientRuntime()->JgrCount();
  auto callback = driver_.MakeBinder<EchoBinder>(client_pid_);
  EXPECT_EQ(ClientRuntime()->JgrCount(), client_base + 1);  // JavaBBinder
  auto proxy = driver_.MaterializeBinder(callback->node(), server_pid_);
  ASSERT_TRUE(proxy.ok());
  // Server drops it: GC collects the proxy, the kernel releases the node,
  // and the client-side JavaBBinder becomes collectable.
  ServerRuntime()->CollectGarbage();
  ClientRuntime()->CollectGarbage();
  EXPECT_EQ(ClientRuntime()->JgrCount(), client_base);
}

// --- Death links ----------------------------------------------------------------

class RecordingRecipient : public DeathRecipient {
 public:
  void BinderDied(NodeId who) override { deaths.push_back(who); }
  std::vector<NodeId> deaths;
};

TEST_F(BinderTest, DeathLinkFiresOnOwnerDeath) {
  auto callback = driver_.MakeBinder<EchoBinder>(client_pid_);
  auto recipient = std::make_shared<RecordingRecipient>();
  const std::size_t server_before = ServerRuntime()->JgrCount();
  auto link = driver_.LinkToDeath(server_pid_, callback->node(), recipient);
  ASSERT_TRUE(link.ok());
  // JavaDeathRecipient pins one JGR in the holder while linked.
  EXPECT_EQ(ServerRuntime()->JgrCount(), server_before + 1);
  kernel_.KillProcess(client_pid_, "bye");
  ASSERT_EQ(recipient->deaths.size(), 1u);
  EXPECT_EQ(recipient->deaths.front(), callback->node());
  ServerRuntime()->CollectGarbage();
  EXPECT_EQ(ServerRuntime()->JgrCount(), server_before);
}

TEST_F(BinderTest, UnlinkReleasesTheRecipientJgr) {
  auto callback = driver_.MakeBinder<EchoBinder>(client_pid_);
  auto recipient = std::make_shared<RecordingRecipient>();
  const std::size_t server_before = ServerRuntime()->JgrCount();
  auto link = driver_.LinkToDeath(server_pid_, callback->node(), recipient);
  ASSERT_TRUE(link.ok());
  EXPECT_TRUE(driver_.UnlinkToDeath(link.value()));
  EXPECT_FALSE(driver_.UnlinkToDeath(link.value()));  // idempotent
  ServerRuntime()->CollectGarbage();
  EXPECT_EQ(ServerRuntime()->JgrCount(), server_before);
  kernel_.KillProcess(client_pid_, "bye");
  EXPECT_TRUE(recipient->deaths.empty());  // unlinked: no callback
}

TEST_F(BinderTest, LinkToDeadBinderFails) {
  auto callback = driver_.MakeBinder<EchoBinder>(client_pid_);
  kernel_.KillProcess(client_pid_, "bye");
  auto link = driver_.LinkToDeath(server_pid_, callback->node(),
                                  std::make_shared<RecordingRecipient>());
  EXPECT_FALSE(link.ok());
  EXPECT_EQ(link.status().code(), StatusCode::kUnavailable);
}

TEST_F(BinderTest, ReleaseNodeFiresLinksAndFreesSenderRef) {
  auto session = driver_.MakeBinder<EchoBinder>(server_pid_);
  auto recipient = std::make_shared<RecordingRecipient>();
  auto link = driver_.LinkToDeath(client_pid_, session->node(), recipient);
  ASSERT_TRUE(link.ok());
  const std::size_t server_jgr = ServerRuntime()->JgrCount();
  driver_.ReleaseNode(session->node());
  EXPECT_FALSE(driver_.IsNodeAlive(session->node()));
  EXPECT_EQ(recipient->deaths.size(), 1u);
  ServerRuntime()->CollectGarbage();
  EXPECT_LT(ServerRuntime()->JgrCount(), server_jgr);
}

// --- IPC log ----------------------------------------------------------------------

TEST_F(BinderTest, IpcLogOnlyWhenDefenseEnabledAndSystemReadable) {
  auto proxy = driver_.MaterializeBinder(echo_->node(), client_pid_);
  ASSERT_TRUE(proxy.ok());
  Parcel data, reply;
  data.WriteInt32(1);
  (void)proxy.value().binder->Transact(1, data, &reply);
  EXPECT_TRUE(LogSince(driver_, 0).empty());  // stock driver: no log

  driver_.SetDefenseLogging(true);
  (void)proxy.value().binder->Transact(1, data, &reply);
  const std::vector<IpcRecord> log = LogSince(driver_, 0);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.front().from_pid, client_pid_);
  EXPECT_EQ(log.front().to_pid, server_pid_);
  EXPECT_EQ(driver_.DescriptorName(log.front().descriptor_id), "test.IEcho");
  // Third-party uids may not read the log (§V.B file permissions).
  EXPECT_EQ(driver_
                .VisitIpcLogSince(Uid{10001}, 0, [](const IpcRecord&) {})
                .status()
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(BinderTest, IpcLogWindowBySeq) {
  driver_.SetDefenseLogging(true);
  auto proxy = driver_.MaterializeBinder(echo_->node(), client_pid_);
  ASSERT_TRUE(proxy.ok());
  Parcel data;
  data.WriteInt32(1);
  for (int i = 0; i < 10; ++i) {
    Parcel reply;
    ASSERT_TRUE(proxy.value().binder->Transact(1, data, &reply).ok());
  }
  // Full read: sequence numbers are 1-based and contiguous.
  const std::vector<IpcRecord> all = LogSince(driver_, 0);
  ASSERT_EQ(all.size(), 10u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, i + 1);
  }
  // since_seq returns only records at or after that sequence number.
  const std::vector<IpcRecord> tail = LogSince(driver_, 8);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().seq, 8u);
  EXPECT_EQ(tail.back().seq, 10u);
  // A since_seq past the end yields an empty window, not an error.
  EXPECT_TRUE(LogSince(driver_, 99).empty());
}

TEST_F(BinderTest, IpcLogRingDropsOldestButKeepsSeqStable) {
  // A tiny ring: 16 transactions through a 4-record log keep only the last 4,
  // but their sequence numbers are untouched, so a defender watermark taken
  // before the wrap still selects the correct (surviving) window.
  BinderDriver::Config config;
  config.ipc_log_capacity = 4;
  os::Kernel kernel;
  BinderDriver driver(&kernel, config);
  os::Kernel::ProcessConfig pc;
  pc.with_runtime = true;
  pc.boot_class_refs = 0;
  pc.memory_kb = 1024;
  const Pid server = kernel.CreateProcess("server", kSystemUid, pc);
  const Pid client = kernel.CreateProcess("client", Uid{10001}, pc);
  auto echo = driver.MakeBinder<EchoBinder>(server);
  driver.SetDefenseLogging(true);
  auto proxy = driver.MaterializeBinder(echo->node(), client);
  ASSERT_TRUE(proxy.ok());
  Parcel data;
  data.WriteInt32(1);
  for (int i = 0; i < 16; ++i) {
    Parcel reply;
    ASSERT_TRUE(proxy.value().binder->Transact(1, data, &reply).ok());
  }
  EXPECT_EQ(driver.ipc_log_size(), 4u);
  EXPECT_EQ(driver.ipc_log_next_seq(), 17u);
  const std::vector<IpcRecord> log = LogSince(driver, 0);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.front().seq, 13u);
  EXPECT_EQ(log.back().seq, 16u);
  // A watermark pointing into the evicted range clamps to the oldest
  // retained record instead of wrapping or failing.
  const std::vector<IpcRecord> clamped = LogSince(driver, 5);
  ASSERT_EQ(clamped.size(), 4u);
  EXPECT_EQ(clamped.front().seq, 13u);
  // A watermark inside the retained range starts there.
  const std::vector<IpcRecord> tail = LogSince(driver, 14);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().seq, 14u);
  EXPECT_EQ(tail.back().seq, 16u);
}

// --- RemoteCallbackList -----------------------------------------------------------

TEST_F(BinderTest, RemoteCallbackListRetainsTwoJgrsPerRegistration) {
  RemoteCallbackList list(&driver_, server_pid_, "test.List");
  const std::size_t before = ServerRuntime()->JgrCount();
  auto cb = driver_.MakeBinder<EchoBinder>(client_pid_);
  auto materialized = driver_.MaterializeBinder(cb->node(), server_pid_);
  ASSERT_TRUE(materialized.ok());
  EXPECT_TRUE(list.Register(materialized.value()));
  EXPECT_FALSE(list.Register(materialized.value()));  // duplicate node
  EXPECT_EQ(list.RegisteredCount(), 1u);
  // proxy + JavaDeathRecipient = 2 retained JGRs; GC-proof.
  ServerRuntime()->CollectGarbage();
  EXPECT_EQ(ServerRuntime()->JgrCount(), before + 2);
  EXPECT_TRUE(list.Unregister(cb->node()));
  ServerRuntime()->CollectGarbage();
  EXPECT_EQ(ServerRuntime()->JgrCount(), before);
}

TEST_F(BinderTest, RemoteCallbackListPrunesDeadClients) {
  RemoteCallbackList list(&driver_, server_pid_, "test.List");
  std::vector<NodeId> died;
  list.SetOnCallbackDied([&](NodeId node) { died.push_back(node); });
  const std::size_t before = ServerRuntime()->JgrCount();
  for (int i = 0; i < 5; ++i) {
    auto cb = driver_.MakeBinder<EchoBinder>(client_pid_);
    auto m = driver_.MaterializeBinder(cb->node(), server_pid_);
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(list.Register(m.value()));
  }
  EXPECT_EQ(list.RegisteredCount(), 5u);
  kernel_.KillProcess(client_pid_, "bye");
  EXPECT_EQ(list.RegisteredCount(), 0u);
  EXPECT_EQ(list.dead_callbacks(), 5);
  EXPECT_EQ(died.size(), 5u);
  ServerRuntime()->CollectGarbage();
  EXPECT_EQ(ServerRuntime()->JgrCount(), before);
}

TEST_F(BinderTest, RemoteCallbackListChurnIsBoundedAndLeavesNoResidue) {
  // The death_recipient_churn primitive: register a fresh callback, then
  // unregister the oldest past a sliding window, for many cycles. Retention
  // while churning is bounded by the window (2 JGRs per live registration)
  // plus the unreclaimed proxies of unregistered callbacks, which each GC
  // sweeps; after draining, the table returns exactly to baseline.
  RemoteCallbackList list(&driver_, server_pid_, "test.List");
  const std::size_t before = ServerRuntime()->JgrCount();
  constexpr std::size_t kWindow = 8;
  constexpr int kCycles = 200;
  std::deque<NodeId> window;
  for (int i = 0; i < kCycles; ++i) {
    auto cb = driver_.MakeBinder<EchoBinder>(client_pid_);
    auto m = driver_.MaterializeBinder(cb->node(), server_pid_);
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(list.Register(m.value()));
    window.push_back(cb->node());
    if (window.size() > kWindow) {
      EXPECT_TRUE(list.Unregister(window.front()));
      window.pop_front();
    }
    if (i % 16 == 15) {
      ServerRuntime()->CollectGarbage();
      // Post-GC, only the window's registrations remain retained.
      EXPECT_EQ(ServerRuntime()->JgrCount(), before + 2 * window.size());
    }
  }
  EXPECT_EQ(list.RegisteredCount(), kWindow);
  while (!window.empty()) {
    EXPECT_TRUE(list.Unregister(window.front()));
    window.pop_front();
  }
  EXPECT_EQ(list.RegisteredCount(), 0u);
  ServerRuntime()->CollectGarbage();
  EXPECT_EQ(ServerRuntime()->JgrCount(), before);
}

// --- ServiceManager ------------------------------------------------------------------

TEST_F(BinderTest, ServiceManagerRegistrationRequiresSystemUid) {
  EXPECT_TRUE(service_manager_.AddService("echo", echo_, kSystemUid).ok());
  EXPECT_EQ(
      service_manager_.AddService("evil", echo_, Uid{10001}).code(),
      StatusCode::kPermissionDenied);
  EXPECT_TRUE(service_manager_.HasService("echo"));
  EXPECT_FALSE(service_manager_.HasService("evil"));
}

TEST_F(BinderTest, GetServiceMaterializesInCaller) {
  ASSERT_TRUE(service_manager_.AddService("echo", echo_, kSystemUid).ok());
  auto svc = service_manager_.GetService("echo", client_pid_);
  ASSERT_TRUE(svc.ok());
  EXPECT_TRUE(svc.value().binder->IsProxy());
  EXPECT_FALSE(service_manager_.GetService("nope", client_pid_).ok());
}

TEST_F(BinderTest, ProxyDescriptorIsItsNodesAcrossAnInPlaceRestore) {
  auto proxy = driver_.MaterializeBinder(echo_->node(), client_pid_);
  ASSERT_TRUE(proxy.ok());
  const IBinder& binder = *proxy.value().binder;
  ASSERT_TRUE(binder.IsProxy());
  EXPECT_EQ(binder.InterfaceDescriptor(), "test.IEcho");
  EXPECT_EQ(binder.InterfaceDescriptor(),
            driver_.NodeDescriptor(echo_->node()));

  // Restoring in place rebuilds the driver's descriptor interner.
  snapshot::Serializer out;
  driver_.SaveState(out);
  snapshot::Deserializer in(out.buffer());
  driver_.RestoreState(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(binder.InterfaceDescriptor(), "test.IEcho");
  EXPECT_EQ(binder.InterfaceDescriptor(),
            driver_.NodeDescriptor(echo_->node()));
}

}  // namespace
}  // namespace jgre::binder
