// Snapshot subsystem tests: per-module save/restore round-trips (RNG
// streams, IRT free lists, ring buffers), whole-system checkpoint
// stability, the on-disk format, and the headline determinism contract —
// a restored simulation continues byte-identically to a cold run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "attack/vuln_registry.h"
#include "binder/binder_driver.h"
#include "binder/ipc_log.h"
#include "binder/service_manager.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "core/android_system.h"
#include "experiment/experiment.h"
#include "harness/branch_runner.h"
#include "obs/event.h"
#include "runtime/heap.h"
#include "runtime/indirect_reference_table.h"
#include "runtime/runtime.h"
#include "sim/device.h"
#include "snapshot/serializer.h"
#include "snapshot/snapshot.h"

namespace jgre {
namespace {

// --- RNG --------------------------------------------------------------------

TEST(SnapshotPropertyTest, RngRoundTripContinuesTheSameStream) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull, ~0ull}) {
    Rng original(seed);
    // Burn an arbitrary prefix so the checkpoint sits mid-stream.
    for (int i = 0; i < 1000; ++i) (void)original.NextU64();

    snapshot::Serializer out;
    original.SaveState(out);
    Rng restored(0);  // wrong seed on purpose: restore must overwrite it
    snapshot::Deserializer in(out.buffer());
    restored.RestoreState(in);
    ASSERT_TRUE(in.ok());

    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(original.NextU64(), restored.NextU64()) << "seed " << seed;
    }
  }
}

// --- IndirectReferenceTable -------------------------------------------------

// Drives two tables (one live, one restored mid-way) through the same
// scripted add/remove tail and insists on identical refs, sizes, and
// slot-reuse order — the free list must round-trip exactly.
TEST(SnapshotPropertyTest, IrtRoundTripPreservesFreeListOrder) {
  using rt::IndirectReferenceTable;
  for (std::uint64_t seed : {3ull, 17ull, 99ull}) {
    IndirectReferenceTable original(64, rt::IndirectRefKind::kGlobal, "g");
    Rng ops(seed);
    std::vector<rt::IndirectRef> live;
    // Random prefix: adds and removes punch a seed-dependent hole pattern.
    for (int i = 0; i < 200; ++i) {
      if (live.empty() || ops.Chance(0.6)) {
        auto ref = original.Add(original.CurrentCookie(), ObjectId{i + 1});
        if (ref.ok()) live.push_back(ref.value());
      } else {
        const std::size_t victim = ops.UniformU64(live.size());
        ASSERT_TRUE(original.Remove(original.CurrentCookie(), live[victim]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }

    snapshot::Serializer out;
    original.SaveState(out);
    IndirectReferenceTable restored(64, rt::IndirectRefKind::kGlobal, "g");
    snapshot::Deserializer in(out.buffer());
    restored.RestoreState(in);
    ASSERT_TRUE(in.ok()) << in.error();
    ASSERT_EQ(original.Size(), restored.Size());
    ASSERT_EQ(original.HoleCount(), restored.HoleCount());
    for (rt::IndirectRef ref : live) {
      ASSERT_TRUE(restored.Contains(ref));
      ASSERT_EQ(original.Get(ref).value(), restored.Get(ref).value());
    }

    // Identical tail on both: every returned ref (slot + serial) must match.
    Rng tail(seed + 1);
    for (int i = 0; i < 200; ++i) {
      if (live.empty() || tail.Chance(0.5)) {
        auto a = original.Add(original.CurrentCookie(), ObjectId{1000 + i});
        auto b = restored.Add(restored.CurrentCookie(), ObjectId{1000 + i});
        ASSERT_EQ(a.ok(), b.ok());
        if (a.ok()) {
          ASSERT_EQ(a.value(), b.value()) << "slot reuse diverged";
          live.push_back(a.value());
        }
      } else {
        const std::size_t victim = tail.UniformU64(live.size());
        ASSERT_EQ(original.Remove(original.CurrentCookie(), live[victim]),
                  restored.Remove(restored.CurrentCookie(), live[victim]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
    ASSERT_EQ(original.Size(), restored.Size());
  }
}

// --- RingBuffer -------------------------------------------------------------

TEST(SnapshotPropertyTest, RingBufferRoundTripKeepsIndicesAndTail) {
  RingBuffer<std::int64_t> original(8);
  for (std::int64_t i = 0; i < 21; ++i) original.Push(i * 3);  // wrapped twice

  snapshot::Serializer out;
  original.SaveState(
      out, [](snapshot::Serializer& s, const std::int64_t& v) { s.I64(v); });
  RingBuffer<std::int64_t> restored(8);
  snapshot::Deserializer in(out.buffer());
  restored.RestoreState(in,
                        [](snapshot::Deserializer& d) { return d.I64(); });
  ASSERT_TRUE(in.ok()) << in.error();

  ASSERT_EQ(original.first_index(), restored.first_index());
  ASSERT_EQ(original.end_index(), restored.end_index());
  for (std::uint64_t i = restored.first_index(); i < restored.end_index();
       ++i) {
    EXPECT_EQ(original.At(i), restored.At(i));
  }
  // Subsequent pushes see the same logical indices and evictions.
  original.Push(777);
  restored.Push(777);
  EXPECT_EQ(original.first_index(), restored.first_index());
  EXPECT_EQ(original.At(original.end_index() - 1),
            restored.At(restored.end_index() - 1));
}

// --- Hostile length prefixes -------------------------------------------------

// A corrupt checkpoint can claim any element count. Counts of 2^61 and
// 2^61 + 1 make `n * 8` wrap to 0 and 8, which the 8 trailing bytes would
// satisfy; the reader must fail the stream instead of reserving n elements.
TEST(SnapshotPropertyTest, VectorCountsPastTheStreamFailWithoutThrowing) {
  for (const std::uint64_t count :
       {std::uint64_t{1} << 61, (std::uint64_t{1} << 61) + 1}) {
    snapshot::Serializer out;
    out.U64(count);
    out.U64(0);  // 8 bytes of payload
    snapshot::Deserializer u64s(out.buffer());
    std::vector<std::uint64_t> words;
    EXPECT_NO_THROW(words = u64s.U64Vec()) << count;
    EXPECT_TRUE(words.empty());
    EXPECT_FALSE(u64s.ok());
    EXPECT_NE(u64s.error().find("truncated"), std::string::npos)
        << u64s.error();

    snapshot::Deserializer i64s(out.buffer());
    std::vector<std::int64_t> signed_words;
    EXPECT_NO_THROW(signed_words = i64s.I64Vec()) << count;
    EXPECT_TRUE(signed_words.empty());
    EXPECT_FALSE(i64s.ok());
    EXPECT_NE(i64s.error().find("truncated"), std::string::npos)
        << i64s.error();
  }
}

// Restore never sizes a table from a count or an id it has not bounded:
// each count by the bytes left in the stream, each id by the table it
// indexes. Every case is a module image with one field inflated (2^40 or an
// id no table holds); the restore must fail the stream with a message
// instead of throwing, allocating terabytes, or indexing out of bounds.
// `expect` is the failure the bound reports, so a format change that trips
// an earlier check (a marker mismatch) cannot pass the case by accident.
struct HostileImage {
  const char* name;
  std::function<std::string()> restore;  // returns the stream's error
  const char* expect;
};

class IdleBinder : public binder::BBinder {
 public:
  IdleBinder() : BBinder("test.IIdle") {}
  Status OnTransact(std::uint32_t, const binder::Parcel&, binder::Parcel*,
                    const binder::CallContext&) override {
    return Status::Ok();
  }
};

// Overwrites the little-endian u64 at `offset` of a saved image.
void PatchU64(std::vector<std::uint8_t>* bytes, std::size_t offset,
              std::uint64_t value) {
  ASSERT_LE(offset + 8, bytes->size());
  for (int i = 0; i < 8; ++i) {
    (*bytes)[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

TEST(SnapshotPropertyTest, RestoreCountsAndIdsPastTheirTablesFailWithoutThrowing) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  const auto error_of = [](snapshot::Deserializer& in) {
    return in.ok() ? std::string("restore succeeded") : in.error();
  };
  const std::vector<HostileImage> cases = {
      {"kernel process count",
       [&] {
         // A kernel without processes or an LMK ends with the process count,
         // the live count, used memory, the pending-reboot flag, the reboot
         // count and the LMK flag.
         os::Kernel saved;
         snapshot::Serializer out;
         saved.SaveState(out);
         std::vector<std::uint8_t> bytes = out.buffer();
         PatchU64(&bytes, bytes.size() - (8 + 8 + 8 + 1 + 8 + 1), kHuge);
         os::Kernel target;
         snapshot::Deserializer in(bytes);
         target.RestoreState(in);
         return error_of(in);
       },
       "truncated"},
      {"driver hooked-runtime pid 0",
       [&] {
         // Registering a binder hooks its owner's runtime; the driver
         // section ends with the hooked pids.
         os::Kernel kernel;
         binder::BinderDriver driver(&kernel);
         const Pid owner = kernel.CreateProcess("owner", Uid{10001});
         driver.RegisterBinder(std::make_shared<IdleBinder>(), owner);
         snapshot::Serializer out;
         driver.SaveState(out);
         std::vector<std::uint8_t> bytes = out.buffer();
         PatchU64(&bytes, bytes.size() - 8, 0);
         snapshot::Deserializer in(bytes);
         driver.RestoreState(in);
         return error_of(in);
       },
       "hooked runtime names no process"},
      {"service manager count",
       [&] {
         // The service manager section ends with its registered count,
         // which sizes ListServices' output.
         os::Kernel kernel;
         binder::BinderDriver driver(&kernel);
         binder::ServiceManager manager(&driver);
         const Pid owner = kernel.CreateProcess("owner", kSystemUid);
         auto service = std::make_shared<IdleBinder>();
         driver.RegisterBinder(service, owner);
         EXPECT_TRUE(manager.AddService("idle", service, kSystemUid).ok());
         snapshot::Serializer out;
         manager.SaveState(out);
         std::vector<std::uint8_t> bytes = out.buffer();
         PatchU64(&bytes, bytes.size() - 8, kHuge);
         snapshot::Deserializer in(bytes);
         manager.RestoreState(in);
         EXPECT_TRUE(manager.ListServices().empty());
         return error_of(in);
       },
       "service routing table disagrees"},
      {"IPC log capacity and total",
       [&] {
         binder::IpcLog saved(kHuge);  // capacity is config: no allocation
         snapshot::Serializer out;
         saved.SaveState(out);
         std::vector<std::uint8_t> bytes = out.buffer();
         PatchU64(&bytes, bytes.size() - 8, kHuge);  // total pushed
         binder::IpcLog target(kHuge);
         snapshot::Deserializer in(bytes);
         target.RestoreState(in, 1);
         return error_of(in);
       },
       "truncated"},
      {"IPC log capacity other than the booted driver's",
       [&] {
         binder::IpcLog saved(kHuge);
         snapshot::Serializer out;
         saved.SaveState(out);
         binder::IpcLog target(64);
         snapshot::Deserializer in(out.buffer());
         target.RestoreState(in, 1);
         return error_of(in);
       },
       "capacity"},
      {"heap allocation cursor",
       [&] {
         rt::Heap saved;
         snapshot::Serializer out;
         saved.SaveState(out);
         std::vector<std::uint8_t> bytes = out.buffer();
         PatchU64(&bytes, 4, kHuge);  // the cursor follows the marker
         rt::Heap target;
         snapshot::Deserializer in(bytes);
         target.RestoreState(in);
         return error_of(in);
       },
       "truncated"},
      {"IRT top index",
       [&] {
         rt::IndirectReferenceTable saved(kHuge, rt::IndirectRefKind::kGlobal,
                                          "g");
         snapshot::Serializer out;
         saved.SaveState(out);
         std::vector<std::uint8_t> bytes = out.buffer();
         PatchU64(&bytes, 4 + 8 + 1, kHuge);  // marker, capacity, kind, top
         rt::IndirectReferenceTable target(kHuge, rt::IndirectRefKind::kGlobal,
                                           "g");
         snapshot::Deserializer in(bytes);
         target.RestoreState(in);
         return error_of(in);
       },
       "truncated"},
      {"ring buffer capacity",
       [&] {
         RingBuffer<std::int64_t> saved(8);
         snapshot::Serializer out;
         saved.SaveState(out,
                         [](snapshot::Serializer& o, const std::int64_t& v) {
                           o.I64(v);
                         });
         std::vector<std::uint8_t> bytes = out.buffer();
         PatchU64(&bytes, 0, kHuge);   // capacity
         PatchU64(&bytes, 8, kHuge);   // total pushed
         PatchU64(&bytes, 16, kHuge);  // retained
         RingBuffer<std::int64_t> target(8);
         snapshot::Deserializer in(bytes);
         target.RestoreState(in,
                             [](snapshot::Deserializer& d) { return d.I64(); });
         return error_of(in);
       },
       "corrupt ring buffer header"},
      {"runtime proxy node id",
       [&] {
         SimClock clock;
         rt::Runtime saved(&clock, rt::Runtime::Config{});
         const ObjectId proxy =
             saved.heap().Alloc(rt::ObjectKind::kBinderProxy, "BinderProxy");
         saved.heap().SetProxyNode(proxy, NodeId{static_cast<std::int64_t>(kHuge)});
         snapshot::Serializer out;
         saved.SaveState(out);
         rt::Runtime target(&clock, rt::Runtime::Config{});
         snapshot::Deserializer in(out.buffer());
         target.RestoreState(in);
         return error_of(in);
       },
       "truncated"},
  };
  for (const HostileImage& c : cases) {
    std::string error;
    EXPECT_NO_THROW(error = c.restore()) << c.name;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << c.name << ": " << error;
  }
}

// --- Heap arena -------------------------------------------------------------

// The SoA arena serializes live slots' columns only (a hole costs one bitmap
// bit), and a restore must rebuild columns + candidate list so exactly that
// a re-save produces the same bytes and the next GC collects the same
// objects.
TEST(SnapshotPropertyTest, HeapArenaRoundTripIsByteStableWithHoles) {
  rt::Heap original;
  std::vector<ObjectId> ids;
  for (int i = 0; i < 64; ++i) {
    const ObjectId id =
        original.Alloc(rt::ObjectKind::kBinderProxy, "BinderProxy:", "svc");
    ids.push_back(id);
    if (i % 3 == 0) original.AddHold(id);
    original.SetManagedRef(id, static_cast<rt::HeapIndirectRef>(0x100 + i));
    if (i % 4 == 0) {
      original.SetWeakRef(id, static_cast<rt::HeapIndirectRef>(0x9000 + i));
    }
    original.SetProxyNode(id, NodeId{i + 1});
  }
  // Punch holes so dead slots interleave with live ones and the id space
  // stays dense (freed ids are never reused).
  for (std::size_t i = 0; i < ids.size(); i += 5) original.Free(ids[i]);
  const std::size_t live_before = original.LiveCount();

  snapshot::Serializer first;
  original.SaveState(first);
  rt::Heap restored;
  snapshot::Deserializer in(first.buffer());
  restored.RestoreState(in);
  ASSERT_TRUE(in.ok()) << in.error();
  snapshot::Serializer second;
  restored.SaveState(second);
  EXPECT_EQ(first.buffer(), second.buffer());  // byte-identical images

  EXPECT_EQ(restored.LiveCount(), live_before);
  EXPECT_EQ(restored.total_allocated(), original.total_allocated());
  for (const ObjectId id : ids) {
    ASSERT_EQ(restored.IsAlive(id), original.IsAlive(id));
    if (!original.IsAlive(id)) continue;
    EXPECT_EQ(restored.Holds(id), original.Holds(id));
    EXPECT_EQ(restored.Kind(id), original.Kind(id));
    EXPECT_EQ(restored.Label(id), original.Label(id));
    EXPECT_EQ(restored.ManagedRef(id), original.ManagedRef(id));
    EXPECT_EQ(restored.WeakRef(id), original.WeakRef(id));
    EXPECT_EQ(restored.ProxyNode(id).value(), original.ProxyNode(id).value());
  }
  // Same pending collection set, in the same (ascending id) order.
  std::vector<ObjectId> original_candidates, restored_candidates;
  original.TakeUnheldCandidates(&original_candidates);
  restored.TakeUnheldCandidates(&restored_candidates);
  EXPECT_EQ(original_candidates, restored_candidates);
}

// --- Whole-system checkpoints -----------------------------------------------

const attack::VulnSpec& Toast() {
  const attack::VulnSpec* vuln =
      attack::FindVulnerability("notification", "enqueueToast");
  EXPECT_NE(vuln, nullptr);
  return *vuln;
}

sim::DeviceSpec SmallScenario(std::uint64_t seed) {
  sim::DeviceSpec spec;
  spec.WithSeed(seed)
      .WithWarmup(4, 2'000'000)
      .WithBenignApps(2)
      .WithAttack(Toast())
      .WithThresholds(1500, 500)
      .WithMaxAttackerCalls(6000);
  return spec;
}

// Capture → restore into a fresh boot → capture again must produce the
// exact same payload bytes: restore loses nothing the serializer can see.
TEST(SystemSnapshotTest, CaptureRestoreCaptureIsByteStable) {
  sim::DeviceSpec config = SmallScenario(42);
  std::unique_ptr<core::AndroidSystem> prefix =
      sim::DeviceFactory(config).BootPrefix();
  auto captured = snapshot::SystemSnapshot::Capture(*prefix);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const snapshot::SystemSnapshot& snap = captured.value();
  EXPECT_GT(snap.manifest().byte_size, 0u);
  EXPECT_EQ(snap.manifest().seed, 42u);
  EXPECT_EQ(snap.manifest().virtual_time_us, prefix->clock().NowUs());

  core::SystemConfig sys_config = config.system_config();
  sys_config.seed = config.seed();
  core::AndroidSystem restored(sys_config);
  restored.Boot();
  Status status = snap.RestoreInto(&restored);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored.clock().NowUs(), prefix->clock().NowUs());
  EXPECT_EQ(restored.SystemServerJgrCount(), prefix->SystemServerJgrCount());

  auto recaptured = snapshot::SystemSnapshot::Capture(restored);
  ASSERT_TRUE(recaptured.ok()) << recaptured.status().ToString();
  EXPECT_EQ(snap.manifest().content_hash,
            recaptured.value().manifest().content_hash);
  EXPECT_EQ(snap.payload(), recaptured.value().payload());
}

TEST(SystemSnapshotTest, RestoreRejectsSeedMismatch) {
  core::SystemConfig config;
  config.seed = 42;
  core::AndroidSystem system(config);
  system.Boot();
  auto captured = snapshot::SystemSnapshot::Capture(system);
  ASSERT_TRUE(captured.ok());

  core::SystemConfig other = config;
  other.seed = 43;
  core::AndroidSystem target(other);
  target.Boot();
  EXPECT_EQ(captured.value().RestoreInto(&target).code(),
            StatusCode::kInvalidArgument);
}

// The image carries system_server's table cap, so restored over a system
// booted at another cap it would leave config() and the table disagreeing.
// The restore refuses, before touching the target.
TEST(SystemSnapshotTest, RestoreRejectsConfigMismatchUntouched) {
  core::SystemConfig config;
  config.system_server_max_jgr = 6'400;
  core::AndroidSystem system(config);
  system.Boot();
  auto captured = snapshot::SystemSnapshot::Capture(system);
  ASSERT_TRUE(captured.ok());

  core::SystemConfig other = config;
  other.system_server_max_jgr = 51'200;
  core::AndroidSystem target(other);
  target.Boot();
  target.InstallApp("com.example.target");
  const TimeUs now = target.clock().NowUs();
  const std::size_t jgrs = target.SystemServerJgrCount();
  EXPECT_EQ(captured.value().RestoreInto(&target).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(target.clock().NowUs(), now);
  EXPECT_EQ(target.SystemServerJgrCount(), jgrs);
  EXPECT_NE(target.FindApp("com.example.target"), nullptr);
  EXPECT_EQ(target.system_runtime()->vm().MaxGlobals(), 51'200u);
}

// The headline contract: a restored branch continues event-for-event
// byte-identically to the cold run of the same scenario.
TEST(SystemSnapshotTest, RestoredRunMatchesColdRunGoldenTrace) {
  sim::DeviceSpec config = SmallScenario(7);
  config.WithDefense();

  // Cold: prefix built in-process, tape subscribed at the branch boundary.
  snapshot::EventTape cold_tape;
  experiment::DefendedAttackResult cold_result;
  {
    std::unique_ptr<core::AndroidSystem> system =
        sim::DeviceFactory(config).BootPrefix();
    system->kernel().bus().Subscribe(&cold_tape, obs::kAllCategories);
    auto device = sim::DeviceFactory(config).CreateDeviceOn(std::move(system));
    cold_result = experiment::Experiment(*device).RunDefendedAttack();
    device->system().kernel().bus().Unsubscribe(&cold_tape);
  }
  ASSERT_TRUE(cold_result.incident);

  // Restored: checkpoint the prefix, revive it in a fresh system.
  snapshot::EventTape restored_tape;
  experiment::DefendedAttackResult restored_result;
  {
    std::unique_ptr<core::AndroidSystem> prefix =
        sim::DeviceFactory(config).BootPrefix();
    auto captured = snapshot::SystemSnapshot::Capture(*prefix);
    ASSERT_TRUE(captured.ok()) << captured.status().ToString();
    prefix.reset();  // the cold prefix is gone; only the bytes survive

    core::SystemConfig sys_config = config.system_config();
    sys_config.seed = config.seed();
    auto revived = std::make_unique<core::AndroidSystem>(sys_config);
    revived->Boot();
    Status status = captured.value().RestoreInto(revived.get());
    ASSERT_TRUE(status.ok()) << status.ToString();
    revived->kernel().bus().Subscribe(&restored_tape, obs::kAllCategories);
    auto device = sim::DeviceFactory(config).CreateDeviceOn(std::move(revived));
    restored_result = experiment::Experiment(*device).RunDefendedAttack();
    device->system().kernel().bus().Unsubscribe(&restored_tape);
  }

  auto divergence = snapshot::FirstDivergence(cold_tape.events(),
                                              restored_tape.events());
  EXPECT_FALSE(divergence.has_value())
      << (divergence ? divergence->description : "");
  EXPECT_EQ(cold_result.attacker_calls, restored_result.attacker_calls);
  EXPECT_EQ(cold_result.virtual_duration_us,
            restored_result.virtual_duration_us);
  EXPECT_EQ(cold_result.report.identified_at,
            restored_result.report.identified_at);
  EXPECT_EQ(cold_result.report.recovered_at,
            restored_result.report.recovered_at);
}

// BranchRunner's restore path is the same contract, through the harness.
TEST(BranchRunnerTest, BranchesMatchColdBuilds) {
  sim::DeviceSpec config = SmallScenario(11);
  config.WithDefense();
  harness::BranchOptions options;
  options.jobs = 2;
  harness::BranchRunner runner(config, options);

  const auto branch_config = [&config](std::size_t) { return config; };
  const auto task = [](std::size_t, sim::DeviceSim& device) {
    auto result = experiment::Experiment(device).RunDefendedAttack();
    return result.virtual_duration_us;
  };
  const std::vector<DurationUs> warm =
      runner.Run<DurationUs>(3, branch_config, task);
  // Two workers, three branches: the third runs on a handed-back system.
  EXPECT_GE(runner.stats().in_place_restores, 1u);

  harness::BranchOptions cold_options;
  cold_options.jobs = 1;
  cold_options.cold = true;
  harness::BranchRunner cold_runner(config, cold_options);
  const std::vector<DurationUs> cold =
      cold_runner.Run<DurationUs>(3, branch_config, task);

  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i], cold[i]) << "branch " << i;
    EXPECT_EQ(warm[i], warm[0]) << "same config must give same branch";
  }
}

// The warm-up apps BootPrefix stops are reaped, so the image it captures
// carries live runtimes only.
TEST(SystemSnapshotTest, WarmPrefixHoldsNoDeadRuntime) {
  std::unique_ptr<core::AndroidSystem> prefix =
      sim::DeviceFactory(SmallScenario(42)).BootPrefix();
  int dead = 0;
  for (std::int32_t pid = 1;; ++pid) {
    const os::Process* proc = prefix->kernel().FindProcess(Pid{pid});
    if (proc == nullptr) break;
    if (proc->alive) continue;
    ++dead;
    EXPECT_FALSE(proc->HasRuntime()) << proc->name;
  }
  EXPECT_GE(dead, 4);  // the four stopped warm-up apps
}

// The prefix system itself was driven (warm-up apps, then an app minting a
// binder) before it was ever restored into: the boot nodes a restore keeps
// are the ones Boot() registered, not whatever the system held at its first
// restore.
TEST(SystemSnapshotTest, RestoreIntoTheDrivenPrefixItselfIsExact) {
  std::unique_ptr<core::AndroidSystem> prefix =
      sim::DeviceFactory(SmallScenario(42)).BootPrefix();
  auto captured = snapshot::SystemSnapshot::Capture(*prefix);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  prefix->InstallApp("com.example.after.capture")
      ->NewBinder("test.IAfterCapture");
  Status restored = captured.value().RestoreInto(prefix.get());
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  auto recaptured = snapshot::SystemSnapshot::Capture(*prefix);
  ASSERT_TRUE(recaptured.ok()) << recaptured.status().ToString();
  EXPECT_EQ(recaptured.value().payload(), captured.value().payload());
}

// An in-place restore refuses what it cannot undo, with a Status: a soft
// reboot (pending or done) re-registers every service at post-boot node ids,
// and a killed boot-time app takes its binder objects with it.
TEST(SystemSnapshotTest, RestoreInPlaceRejectsSoftRebootAndDeadBootBinders) {
  const sim::DeviceSpec config = SmallScenario(42);
  std::unique_ptr<core::AndroidSystem> prefix =
      sim::DeviceFactory(config).BootPrefix();
  auto captured = snapshot::SystemSnapshot::Capture(*prefix);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const snapshot::SystemSnapshot& image = captured.value();

  prefix->kernel().KillProcess(prefix->system_server_pid(), "test");
  ASSERT_TRUE(prefix->kernel().HasPendingSoftReboot());
  Status pending = image.RestoreInto(prefix.get());
  EXPECT_FALSE(pending.ok());
  EXPECT_NE(pending.ToString().find("soft-rebooted"), std::string::npos)
      << pending.ToString();
  prefix->Pump();  // zygote restarts system_server
  ASSERT_EQ(prefix->soft_reboots(), 1);
  Status rebooted = image.RestoreInto(prefix.get());
  EXPECT_FALSE(rebooted.ok());
  EXPECT_NE(rebooted.ToString().find("soft-rebooted"), std::string::npos)
      << rebooted.ToString();

  core::SystemConfig sys_config = config.system_config();
  sys_config.seed = config.seed();
  core::AndroidSystem used(sys_config);
  used.Boot();
  ASSERT_TRUE(image.RestoreInto(&used).ok());
  used.StopApp("com.android.bluetooth");
  Status dead_binder = image.RestoreInto(&used);
  EXPECT_FALSE(dead_binder.ok());
  EXPECT_NE(dead_binder.ToString().find("died since boot"), std::string::npos)
      << dead_binder.ToString();
}

// A restore that fails part-way leaves a system fit only for destruction,
// and destroying it must be safe: the pool destroys every system whose
// in-place restore fails. Cut the image at points spread over its length
// and restore each prefix over a used system.
TEST(SystemSnapshotTest, TruncatedImagesFailAndLeaveADestroyableSystem) {
  const sim::DeviceSpec config = SmallScenario(42);
  std::unique_ptr<core::AndroidSystem> prefix =
      sim::DeviceFactory(config).BootPrefix();
  auto captured = snapshot::SystemSnapshot::Capture(*prefix);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const std::vector<std::uint8_t>& payload = captured.value().payload();
  // The system state follows the payload marker, the config fingerprint
  // and the defender flag.
  constexpr std::size_t kSystemStart = 4 + 8 + 1;
  core::SystemConfig sys_config = config.system_config();
  sys_config.seed = config.seed();
  for (int cut = 0; cut < 16; ++cut) {
    const std::size_t size =
        (payload.size() - kSystemStart) * static_cast<std::size_t>(cut) / 16;
    auto system = std::make_unique<core::AndroidSystem>(sys_config);
    system->Boot();
    ASSERT_TRUE(captured.value().RestoreInto(system.get()).ok());
    system->InstallApp("com.example.used")->NewBinder("test.IUsed");
    snapshot::Deserializer in(payload.data() + kSystemStart, size);
    EXPECT_NO_THROW(system->RestoreState(in)) << "cut at " << size;
    EXPECT_FALSE(in.ok()) << "cut at " << size;
    system.reset();
  }
}

// The pool behind BranchRunner::AcquireSystem: a handed-back system is
// restored in place for the next borrower, exactly to the image; a second
// concurrent borrower gets its own; and a system whose in-place restore
// fails is replaced by a fresh restore.
TEST(BranchRunnerTest, PoolRestoresHandedBackSystemsInPlace) {
  const sim::DeviceSpec spec = SmallScenario(11);
  harness::BranchRunner runner(spec, harness::BranchOptions{});
  ASSERT_TRUE(runner.Prepare().ok());
  const snapshot::SystemSnapshot& image = *runner.snapshot();
  const auto recaptures_image = [&image](core::AndroidSystem& system) {
    auto recaptured = snapshot::SystemSnapshot::Capture(system);
    return recaptured.ok() && recaptured.value().payload() == image.payload();
  };

  const core::AndroidSystem* first = nullptr;
  {
    sim::PooledSystem system = runner.AcquireSystem(spec, 0);
    first = system.get();
    EXPECT_TRUE(recaptures_image(*system));
    system->InstallApp("com.example.borrower");
  }
  {
    sim::PooledSystem reused = runner.AcquireSystem(spec, 1);
    EXPECT_EQ(reused.get(), first);
    EXPECT_TRUE(recaptures_image(*reused));
    sim::PooledSystem second = runner.AcquireSystem(spec, 2);
    EXPECT_NE(second.get(), first);
    EXPECT_TRUE(recaptures_image(*second));
    // Soft-reboot both before handing them back.
    for (core::AndroidSystem* system : {reused.get(), second.get()}) {
      system->kernel().KillProcess(system->system_server_pid(), "test");
      system->Pump();
      ASSERT_EQ(system->soft_reboots(), 1);
    }
  }
  sim::PooledSystem a = runner.AcquireSystem(spec, 3);
  sim::PooledSystem b = runner.AcquireSystem(spec, 4);
  for (core::AndroidSystem* fresh : {a.get(), b.get()}) {
    EXPECT_EQ(fresh->soft_reboots(), 0);
    EXPECT_TRUE(recaptures_image(*fresh));
  }
  EXPECT_EQ(runner.stats().in_place_restores, 1u);
}

// The keyed pool across JGR caps: every system served for a cap was booted
// at that cap and its table caps there (a system handed back under one cap
// is never restored for another); live systems never outnumber the most
// borrowed at once, however the keys alternate; and a destroyed DeviceSim
// hands its system back.
TEST(BranchRunnerTest, KeyedPoolServesEachCapItsOwnSystemsWithinPeakBorrowing) {
  const auto spec_at = [](std::size_t cap) {
    core::SystemConfig sys;
    sys.system_server_max_jgr = cap;
    sim::DeviceSpec spec;
    spec.WithSeed(11).WithSystemConfig(sys).WithWarmup(2, 500'000);
    return spec;
  };
  const auto serves = [](core::AndroidSystem& system, std::size_t cap) {
    return system.config().system_server_max_jgr == cap &&
           system.system_runtime()->vm().MaxGlobals() == cap;
  };
  harness::BranchRunner cache(/*jobs=*/1, /*image_budget=*/2);
  {
    sim::PooledSystem a = cache.AcquireSystem(spec_at(6'400), 0);
    sim::PooledSystem b = cache.AcquireSystem(spec_at(6'400), 1);
  }
  constexpr std::size_t kPeakBorrowed = 2;
  EXPECT_EQ(cache.idle_systems(), kPeakBorrowed);
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t cap : {51'200u, 6'400u, 12'800u, 6'400u}) {
      sim::PooledSystem system = cache.AcquireSystem(spec_at(cap), 2);
      EXPECT_TRUE(serves(*system, cap)) << "cap " << cap;
      EXPECT_LT(cache.idle_systems(), kPeakBorrowed);
    }
    EXPECT_LE(cache.idle_systems(), kPeakBorrowed);
  }
  // Each round both 6,400 borrowers reuse the one 6,400 system kept idle in
  // place, and the 51,200 and 12,800 ones miss and replace the oldest idle
  // system.
  EXPECT_EQ(cache.stats().in_place_restores, 6u);
  // Three caps on two image slots: evicted images were rebuilt.
  EXPECT_GT(cache.stats().image_evictions, 0u);

  const core::AndroidSystem* handed_back = nullptr;
  {
    const sim::DeviceSpec spec = spec_at(12'800);
    auto device = sim::DeviceFactory(spec).CreateDeviceOn(
        cache.AcquireSystem(spec, 3));
    handed_back = &device->system();
  }
  sim::PooledSystem again = cache.AcquireSystem(spec_at(12'800), 4);
  EXPECT_EQ(again.get(), handed_back);
  EXPECT_TRUE(serves(*again, 12'800));
}

// --- File format ------------------------------------------------------------

TEST(SystemSnapshotTest, FileRoundTripValidatesContentHash) {
  core::SystemConfig config;
  config.seed = 5;
  core::AndroidSystem system(config);
  system.Boot();
  auto captured = snapshot::SystemSnapshot::Capture(system);
  ASSERT_TRUE(captured.ok());

  const std::string path = "snapshot_test_checkpoint.bin";
  Status written = captured.value().WriteFile(path);
  ASSERT_TRUE(written.ok()) << written.ToString();

  auto loaded = snapshot::SystemSnapshot::ReadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().payload(), captured.value().payload());
  EXPECT_EQ(loaded.value().manifest().seed, 5u);
  EXPECT_EQ(loaded.value().manifest().content_hash,
            captured.value().manifest().content_hash);

  // The JSON manifest sidecar carries the same identity.
  std::ifstream manifest(path + ".manifest.json");
  ASSERT_TRUE(manifest.good());
  std::string json((std::istreambuf_iterator<char>(manifest)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"seed\": 5"), std::string::npos);
  EXPECT_NE(json.find("jgre-snapshot"), std::string::npos);

  // Flip one payload byte on disk: the hash check must reject the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(64);
    f.write(&byte, 1);
  }
  auto corrupt = snapshot::SystemSnapshot::ReadFile(path);
  EXPECT_FALSE(corrupt.ok());
  std::remove(path.c_str());
  std::remove((path + ".manifest.json").c_str());
}

TEST(DivergenceTest, ReportsFirstDifferingEvent) {
  std::vector<obs::TraceEvent> a;
  for (int i = 0; i < 5; ++i) {
    a.push_back(obs::MakeEvent(obs::Category::kIpc, obs::Label::kIpcTransact,
                               TimeUs{static_cast<std::uint64_t>(i)}, 1, 2,
                               i));
  }
  std::vector<obs::TraceEvent> b = a;
  EXPECT_FALSE(snapshot::FirstDivergence(a, b).has_value());

  b[3].arg0 = 99;
  auto diff = snapshot::FirstDivergence(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->index, 3u);

  b = a;
  b.pop_back();
  diff = snapshot::FirstDivergence(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->index, 4u);
}

}  // namespace
}  // namespace jgre
