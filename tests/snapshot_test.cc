// Snapshot subsystem tests: per-module save/restore round-trips (RNG
// streams, IRT free lists, heap arenas), whole-system checkpoint
// stability, the on-disk format, and the headline determinism contract —
// a restored simulation continues byte-identically to a cold run.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "attack/vuln_registry.h"
#include "binder/binder_driver.h"
#include "binder/ipc_log.h"
#include "binder/service_manager.h"
#include "common/interner.h"
#include "common/rng.h"
#include "core/android_system.h"
#include "experiment/experiment.h"
#include "harness/branch_runner.h"
#include "obs/event.h"
#include "runtime/heap.h"
#include "runtime/indirect_reference_table.h"
#include "runtime/runtime.h"
#include "services/app.h"
#include "services/notification_service.h"
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

// --- StringInterner ---------------------------------------------------------

// A restore over a used interner keeps the names that match the image and
// interns the rest. Whatever it held before (nothing, a prefix of the
// image's names, an extension of them, or names diverging at index k), it
// ends with a fresh interner's ids, forgets every name the image lacks, and
// a later Intern continues the image's ids.
TEST(SnapshotPropertyTest, InternerRestoreOverUsedNamesYieldsFreshIds) {
  const std::vector<std::string> image_names = {"alpha", "beta", "gamma",
                                                "delta", "epsilon"};
  StringInterner saved;
  for (const std::string& name : image_names) (void)saved.Intern(name);
  snapshot::Serializer out;
  saved.SaveState(out);
  const std::vector<std::string> strangers = {"GAMMA", "zeta", "eta"};
  const auto holds_image_prefix = [&](const StringInterner& interner) {
    for (StringInterner::Id id = 0; id < interner.size(); ++id) {
      EXPECT_EQ(interner.Name(id), image_names[id]);
      EXPECT_EQ(interner.Find(image_names[id]), id);
    }
    for (const std::string& name : strangers) {
      EXPECT_EQ(interner.Find(name), StringInterner::kInvalidId) << name;
    }
  };

  const std::vector<std::vector<std::string>> befores = {
      {},
      {"alpha", "beta"},
      {"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"},
      {"alpha", "beta", "GAMMA", "delta"},
      {"epsilon", "delta", "alpha"},
      {"alpha", "beta", "gamma", "delta", "epsilon"},
  };
  for (const std::vector<std::string>& before : befores) {
    SCOPED_TRACE(testing::PrintToString(before));
    StringInterner target;
    for (const std::string& name : before) (void)target.Intern(name);
    snapshot::Deserializer in(out.buffer());
    target.RestoreState(in);
    ASSERT_TRUE(in.ok()) << in.error();
    ASSERT_EQ(target.size(), image_names.size());
    holds_image_prefix(target);
    EXPECT_EQ(target.Intern("omega"), image_names.size());
  }

  // A stream cut anywhere fails, and the interner keeps the names read
  // before the cut: a prefix of the image's, still usable.
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    SCOPED_TRACE(cut);
    StringInterner target;
    for (const std::string& name : {"alpha", "beta", "GAMMA", "zeta", "eta"}) {
      (void)target.Intern(name);
    }
    snapshot::Deserializer in(out.buffer().data(), cut);
    target.RestoreState(in);
    EXPECT_FALSE(in.ok());
    ASSERT_LE(target.size(), image_names.size());
    holds_image_prefix(target);
    const StringInterner::Id next = target.Intern("omega");
    EXPECT_EQ(next, target.size() - 1);
    EXPECT_EQ(target.Find("omega"), next);
  }
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
  // A heap image is its marker, the allocation cursor, then per 64 slots a
  // live bitmap followed by each live slot's kind (u8) and holds (i64).
  constexpr std::size_t kHeapBitmap = 4 + 8;
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
      {"heap bitmap past the cursor",
       [&] {
         rt::Heap saved;
         saved.Alloc(rt::ObjectKind::kPlain);
         snapshot::Serializer out;
         saved.SaveState(out);
         std::vector<std::uint8_t> bytes = out.buffer();
         PatchU64(&bytes, kHeapBitmap, 0b11);  // one slot, two live bits
         rt::Heap target;
         snapshot::Deserializer in(bytes);
         target.RestoreState(in);
         return error_of(in);
       },
       "past the allocation cursor"},
      {"heap object kind",
       [&] {
         rt::Heap saved;
         saved.Alloc(rt::ObjectKind::kPlain);
         snapshot::Serializer out;
         saved.SaveState(out);
         std::vector<std::uint8_t> bytes = out.buffer();
         bytes[kHeapBitmap + 8] = 0xFF;  // the first live slot's kind
         rt::Heap target;
         snapshot::Deserializer in(bytes);
         target.RestoreState(in);
         return error_of(in);
       },
       "kind or hold count out of range"},
      {"heap hold count",
       [&] {
         rt::Heap saved;
         saved.Alloc(rt::ObjectKind::kPlain);
         snapshot::Serializer out;
         saved.SaveState(out);
         std::vector<std::uint8_t> bytes = out.buffer();
         PatchU64(&bytes, kHeapBitmap + 8 + 1, kHuge);  // past int32
         rt::Heap target;
         snapshot::Deserializer in(bytes);
         target.RestoreState(in);
         return error_of(in);
       },
       "kind or hold count out of range"},
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
      {"runtime proxy node id",
       [&] {
         SimClock clock;
         rt::Runtime saved(&clock, rt::Runtime::Config{});
         const ObjectId proxy = saved.heap().Alloc(rt::ObjectKind::kBinderProxy);
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
    const ObjectId id = original.Alloc(rt::ObjectKind::kBinderProxy);
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

// Enqueues `count` toasts from `app`, each with a fresh binder: every call
// mints a BinderProxy with its JGR and weak JGR in system_server.
void EnqueueToasts(services::AppProcess* app, int count) {
  using Notification = services::NotificationService;
  ASSERT_NE(app, nullptr);
  auto client =
      app->GetService(Notification::kName, Notification::kDescriptor);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < count; ++i) {
    const auto toast = app->NewBinder("toast");
    (void)client.value().Call(Notification::TRANSACTION_enqueueToast,
                              [&](binder::Parcel& p) {
                                p.WriteString(app->package());
                                p.WriteStrongBinder(toast);
                                p.WriteInt32(1);
                              });
  }
}

// An in-place restore over a system reshaped every way a pooled system can
// drift from its image: a process the image holds reaped is alive with a
// runtime; one the image holds aborted (at a 64-entry cap) runs unaborted at
// the default cap; a pid the image never hooked carries the driver's
// proxy-collect handler; system_server emits weak-table events; and two
// processes sit past the image's count. The restored system re-captures to
// the image's bytes, then runs a trace event for event, and to the same
// final bytes, as a fresh restore of the image does.
TEST(SystemSnapshotTest, InPlaceRestoreOverAReshapedSystemMatchesAFreshRestore) {
  core::SystemConfig config;
  config.seed = 42;
  const Uid quiet_uid{10500};
  const Uid aborted_uid{10501};
  // The processes both systems create, in the same order, so pids match.
  struct Shape {
    Pid quiet;
    services::AppProcess* gone = nullptr;
    Pid aborted;
  };
  const auto shape = [&](core::AndroidSystem& system, std::size_t cap,
                         int toasts) {
    EnqueueToasts(system.InstallApp("com.example.toaster"), toasts);
    Shape out;
    out.quiet = system.kernel().CreateProcess("com.example.quiet", quiet_uid);
    out.gone = system.InstallApp("com.example.gone");
    os::Kernel::ProcessConfig capped;
    capped.max_global_refs = cap;
    capped.boot_class_refs = 0;
    out.aborted = system.kernel().CreateProcess("com.example.aborted",
                                                aborted_uid, capped);
    return out;
  };

  core::AndroidSystem source(config);
  source.Boot();
  const Shape source_shape = shape(source, 64, 5);
  source.StopApp("com.example.gone");
  source.kernel().ReapDeadProcesses();
  rt::Runtime* to_abort =
      source.kernel().FindProcess(source_shape.aborted)->runtime.get();
  while (!to_abort->aborted()) {
    (void)to_abort->AllocManagedObject(rt::ObjectKind::kPlain);
  }
  ASSERT_FALSE(source.kernel().IsAlive(source_shape.aborted));
  auto captured = snapshot::SystemSnapshot::Capture(source);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const snapshot::SystemSnapshot& image = captured.value();

  auto reshaped = std::make_unique<core::AndroidSystem>(config);
  reshaped->Boot();
  const Shape reshaped_shape = shape(*reshaped, rt::kGlobalsMax, 12);
  ASSERT_EQ(reshaped_shape.aborted, source_shape.aborted);
  ASSERT_TRUE(reshaped->kernel().FindProcess(reshaped_shape.gone->pid())
                  ->HasRuntime());
  ASSERT_TRUE(reshaped->service_manager()
                  .GetService(services::NotificationService::kName,
                              reshaped_shape.quiet)
                  .ok());  // hooks quiet's runtime
  reshaped->system_runtime()->vm().SetWeakEventEmission(true);
  reshaped->kernel().CreateProcess("com.example.extra", Uid{10502});
  reshaped->InstallApp("com.example.extra2");

  Status restored = image.RestoreInto(reshaped.get());
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  auto recaptured = snapshot::SystemSnapshot::Capture(*reshaped);
  ASSERT_TRUE(recaptured.ok()) << recaptured.status().ToString();
  EXPECT_EQ(recaptured.value().payload(), image.payload());

  auto fresh = std::make_unique<core::AndroidSystem>(config);
  fresh->Boot();
  ASSERT_TRUE(image.RestoreInto(fresh.get()).ok());

  const Pid quiet = source_shape.quiet;
  const auto run_trace = [quiet](core::AndroidSystem& system,
                                 std::vector<obs::TraceEvent>* events,
                                 std::vector<std::uint8_t>* payload) {
    snapshot::EventTape tape;
    system.kernel().bus().Subscribe(&tape, obs::kAllCategories);
    EnqueueToasts(system.FindApp("com.example.toaster"), 20);
    (void)system.service_manager().GetService(
        services::NotificationService::kName, quiet);
    system.clock().AdvanceUs(services::NotificationService::kToastDisplayUs);
    EnqueueToasts(system.InstallApp("com.example.after"), 3);
    system.CollectAllGarbage();
    system.kernel().bus().Unsubscribe(&tape);
    *events = tape.events();
    auto final_image = snapshot::SystemSnapshot::Capture(system);
    ASSERT_TRUE(final_image.ok()) << final_image.status().ToString();
    *payload = final_image.value().payload();
  };
  std::vector<obs::TraceEvent> fresh_events, reused_events;
  std::vector<std::uint8_t> fresh_final, reused_final;
  ASSERT_NO_FATAL_FAILURE(run_trace(*fresh, &fresh_events, &fresh_final));
  ASSERT_NO_FATAL_FAILURE(run_trace(*reshaped, &reused_events, &reused_final));
  ASSERT_FALSE(fresh_events.empty());
  const auto divergence =
      snapshot::FirstDivergence(fresh_events, reused_events);
  EXPECT_FALSE(divergence.has_value())
      << (divergence ? divergence->description : "");
  EXPECT_EQ(reused_final, fresh_final);
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
  // The system state follows the payload marker and the config fingerprint.
  constexpr std::size_t kSystemStart = 4 + 8;
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

// Markers (little-endian in the payload) that changed with the layout they
// frame: heap sections went "HEA3" -> "HEA4" when the heap dropped its label
// column, and the payload "SNP2" -> "SNP3" when it dropped its defender flag.
constexpr std::uint32_t kHea3 = 0x48454133;
constexpr std::uint32_t kHea4 = 0x48454134;
constexpr std::uint32_t kSnp2 = 0x534E5032;
constexpr std::uint32_t kSnp3 = 0x534E5033;

// Writes `image` to `path` with its payload passed through `patch`, under a
// valid content hash, so only the restore can reject it.
void WritePatchedImage(
    const std::string& path, const snapshot::SystemSnapshot& image,
    const std::function<void(std::vector<std::uint8_t>*)>& patch) {
  ASSERT_TRUE(image.WriteFile(path).ok());
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  constexpr std::size_t kHeader = 8 + 4 + 8 + 8 + 8;  // magic .. payload size
  std::vector<std::uint8_t> payload = image.payload();
  ASSERT_EQ(bytes.size(), kHeader + payload.size() + 8);  // + FNV-1a trailer
  patch(&payload);
  std::copy(payload.begin(), payload.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(kHeader));
  const std::uint64_t hash = snapshot::Fnv1a(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) {
    bytes[kHeader + payload.size() + i] =
        static_cast<std::uint8_t>(hash >> (8 * i));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Writes the checkpoint of a booted seed-42 system to `path` as an image
// from an older layout: every `current` marker in the payload becomes `old`.
void WriteOldMarkerImage(const std::string& path, std::uint32_t current,
                         std::uint32_t old) {
  core::SystemConfig config;
  config.seed = 42;
  core::AndroidSystem system(config);
  system.Boot();
  auto captured = snapshot::SystemSnapshot::Capture(system);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  std::uint8_t from[4], to[4];
  for (int b = 0; b < 4; ++b) {
    from[b] = static_cast<std::uint8_t>(current >> (8 * b));
    to[b] = static_cast<std::uint8_t>(old >> (8 * b));
  }
  WritePatchedImage(path, captured.value(),
                    [&](std::vector<std::uint8_t>* payload) {
                      int rewritten = 0;
                      for (std::size_t i = 0; i + 4 <= payload->size(); ++i) {
                        const auto at = payload->begin() +
                                        static_cast<std::ptrdiff_t>(i);
                        if (std::equal(from, from + 4, at)) {
                          std::copy(to, to + 4, at);
                          ++rewritten;
                        }
                      }
                      ASSERT_GT(rewritten, 0);
                    });
}

// A checkpoint written before the heap lost its labels, or before the
// payload lost its defender flag, loads (its hash is intact), but restoring
// it over a used system fails with a marker-mismatch Status naming the file,
// and the half-restored system can be destroyed.
TEST(SystemSnapshotTest, OldHeapMarkerFailsRestoreAndLeavesADestroyableSystem) {
  struct OldImage {
    const char* path;
    std::uint32_t current;
    std::uint32_t old;
  };
  for (const OldImage& image :
       {OldImage{"snapshot_test_hea3.ckpt", kHea4, kHea3},
        OldImage{"snapshot_test_snp2.ckpt", kSnp3, kSnp2}}) {
    const std::string path = image.path;
    ASSERT_NO_FATAL_FAILURE(
        WriteOldMarkerImage(path, image.current, image.old));
    auto old = snapshot::SystemSnapshot::ReadFile(path);
    ASSERT_TRUE(old.ok()) << old.status().ToString();

    core::SystemConfig config;
    config.seed = 42;
    auto system = std::make_unique<core::AndroidSystem>(config);
    system->Boot();
    system->InstallApp("com.example.used")->NewBinder("test.IUsed");
    Status restored = old.value().RestoreInto(system.get());
    EXPECT_FALSE(restored.ok()) << path;
    EXPECT_NE(restored.ToString().find("marker mismatch"), std::string::npos)
        << restored.ToString();
    EXPECT_NE(restored.ToString().find(path), std::string::npos)
        << restored.ToString();
    EXPECT_NO_THROW(system.reset()) << path;
    std::remove(path.c_str());
    std::remove((path + snapshot::SystemSnapshot::kManifestSuffix).c_str());
  }
}

// The hostile fields of RestoreCountsAndIdsPastTheirTablesFailWithoutThrowing,
// restored in place: each is patched into a whole-system image, which is
// restored over a system that made calls since the capture. RestoreInto
// returns the bound's Status, and the half-restored system is destroyed
// cleanly (the ASan/UBSan tree checks the destruction).
TEST(SystemSnapshotTest, HostileImagesRestoredInPlaceFailWithAStatus) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  core::SystemConfig config;
  config.seed = 42;
  core::AndroidSystem source(config);
  source.Boot();
  EnqueueToasts(source.InstallApp("com.example.toaster"), 5);
  auto captured = snapshot::SystemSnapshot::Capture(source);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const snapshot::SystemSnapshot& image = captured.value();
  const std::vector<std::uint8_t>& payload = image.payload();

  // Where each module's image sits in the payload. The system state follows
  // the payload marker, the config fingerprint and the "SYS1" marker, and
  // opens with the kernel, the binder driver and the service manager.
  constexpr std::size_t kKernelStart = 4 + 8 + 4;
  snapshot::Serializer kernel_head, kernel, driver, manager, heap, globals;
  kernel_head.Marker(0x4B524E31);
  source.clock().SaveState(kernel_head);
  source.kernel().rng().SaveState(kernel_head);
  source.kernel().bus().SaveState(kernel_head);
  source.kernel().SaveState(kernel);
  source.driver().SaveState(driver);
  source.service_manager().SaveState(manager);
  const rt::Runtime& server = *source.system_runtime();
  server.heap().SaveState(heap);
  server.vm().globals().SaveState(globals);
  const auto offset_of = [&payload](const std::vector<std::uint8_t>& part) {
    return static_cast<std::size_t>(
        std::search(payload.begin(), payload.end(), part.begin(), part.end()) -
        payload.begin());
  };
  ASSERT_EQ(offset_of(kernel.buffer()), kKernelStart);
  const std::size_t driver_start = kKernelStart + kernel.size();
  ASSERT_EQ(offset_of(driver.buffer()), driver_start);
  const std::size_t manager_start = driver_start + driver.size();
  ASSERT_EQ(offset_of(manager.buffer()), manager_start);
  const std::size_t heap_start = offset_of(heap.buffer());
  ASSERT_LT(heap_start, payload.size());
  const std::size_t globals_start = offset_of(globals.buffer());
  ASSERT_LT(globals_start, payload.size());
  // The IPC log section ("IPL2", capacity, total pushed) inside the driver's.
  const std::uint8_t kIpcLogMarker[4] = {0x32, 0x4C, 0x50, 0x49};
  const auto ipc_at = std::search(driver.buffer().begin(),
                                  driver.buffer().end(), kIpcLogMarker,
                                  kIpcLogMarker + 4);
  ASSERT_NE(ipc_at, driver.buffer().end());
  ASSERT_EQ(std::search(ipc_at + 1, driver.buffer().end(), kIpcLogMarker,
                        kIpcLogMarker + 4),
            driver.buffer().end());
  const std::size_t ipc_start =
      driver_start + static_cast<std::size_t>(ipc_at - driver.buffer().begin());
  // A live BinderProxy's node field: walk the heap image's blocks (a live
  // bitmap, then each live slot's kind, holds, both refs and the node).
  std::size_t proxy_node_at = 0;
  {
    const rt::Heap& h = server.heap();
    std::size_t at = heap_start + 4 + 8;
    for (std::int64_t base = 0;
         base < h.total_allocated() && proxy_node_at == 0; base += 64) {
      at += 8;
      for (std::int64_t id = base + 1;
           id <= std::min(base + 64, h.total_allocated()); ++id) {
        if (!h.IsAlive(ObjectId{id})) continue;
        if (h.Kind(ObjectId{id}) == rt::ObjectKind::kBinderProxy) {
          proxy_node_at = at + 1 + 8 + 8 + 8;
          break;
        }
        at += 1 + 8 + 8 + 8 + 8;
      }
    }
  }
  ASSERT_NE(proxy_node_at, 0u);

  using Patch = std::function<void(std::vector<std::uint8_t>*)>;
  const auto u64_at = [](std::size_t offset, std::uint64_t value) -> Patch {
    return [offset, value](std::vector<std::uint8_t>* bytes) {
      PatchU64(bytes, offset, value);
    };
  };
  struct InPlaceCase {
    const char* name;
    Patch patch;
    const char* expect;
  };
  const std::vector<InPlaceCase> cases = {
      {"kernel process count",
       u64_at(kKernelStart + kernel_head.size() + 8, kHuge), "truncated"},
      {"driver hooked-runtime pid 0",
       u64_at(driver_start + driver.size() - 8, 0),
       "hooked runtime names no process"},
      {"service manager count", u64_at(manager_start + manager.size() - 8, kHuge),
       "service routing table disagrees"},
      {"IPC log total", u64_at(ipc_start + 4 + 8, kHuge), "truncated"},
      {"IPC log capacity other than the booted driver's",
       u64_at(ipc_start + 4, 64), "capacity"},
      {"heap allocation cursor", u64_at(heap_start + 4, kHuge), "truncated"},
      // 32 slots, under a first bitmap word whose 64 class roots are live.
      {"heap bitmap past the cursor", u64_at(heap_start + 4, 33),
       "past the allocation cursor"},
      {"heap object kind",
       [&](std::vector<std::uint8_t>* bytes) {
         (*bytes)[heap_start + 4 + 8 + 8] = 0xFF;
       },
       "kind or hold count out of range"},
      {"heap hold count", u64_at(heap_start + 4 + 8 + 8 + 1, kHuge),
       "kind or hold count out of range"},
      {"IRT top index", u64_at(globals_start + 4 + 8 + 1, kHuge),
       "top index past its capacity"},
      {"runtime proxy node id", u64_at(proxy_node_at, kHuge), "truncated"},
  };
  const std::string path = "snapshot_test_hostile_in_place.ckpt";
  for (const InPlaceCase& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_NO_FATAL_FAILURE(WritePatchedImage(path, image, c.patch));
    auto hostile = snapshot::SystemSnapshot::ReadFile(path);
    ASSERT_TRUE(hostile.ok()) << hostile.status().ToString();
    auto system = std::make_unique<core::AndroidSystem>(config);
    system->Boot();
    ASSERT_TRUE(image.RestoreInto(system.get()).ok());
    EnqueueToasts(system->FindApp("com.example.toaster"), 8);
    system->InstallApp("com.example.used")->NewBinder("test.IUsed");
    Status restored;
    EXPECT_NO_THROW(restored = hostile.value().RestoreInto(system.get()));
    EXPECT_FALSE(restored.ok());
    EXPECT_NE(restored.ToString().find(c.expect), std::string::npos)
        << restored.ToString();
    EXPECT_NO_THROW(system.reset());
  }
  std::remove(path.c_str());
  std::remove((path + snapshot::SystemSnapshot::kManifestSuffix).c_str());
}

// The same image handed to a harness bench through --resume fails
// BranchRunner::Prepare: the bench prints the error and exits 1 before it
// runs a single branch. Its prefix adds warm-up to the seed-42 boot, which
// leaves the config fingerprint alone, so the heap marker is what fails.
TEST(SystemSnapshotTest, ResumingAnOldHeapImageExitsOneWithTheError) {
  const std::string path = "snapshot_test_hea3_resume.ckpt";
  ASSERT_NO_FATAL_FAILURE(WriteOldMarkerImage(path, kHea4, kHea3));

  const std::string command = std::string(JGRE_RESPONSE_DELAY_BENCH) +
                              " --seed 42 --no-json --resume " + path +
                              " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char chunk[4096];
  for (std::size_t n; (n = std::fread(chunk, 1, sizeof chunk, pipe)) > 0;) {
    output.append(chunk, n);
  }
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("error: INVALID_ARGUMENT: --resume " + path),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("marker mismatch"), std::string::npos) << output;
  std::remove(path.c_str());
  std::remove((path + snapshot::SystemSnapshot::kManifestSuffix).c_str());
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
