// Tests for the ART runtime model: heap holds, JavaVMExt (the 51,200 cap,
// abort, bus events), proxy caching and GC semantics.
#include <gtest/gtest.h>

#include "common/clock.h"
#include "obs/event.h"
#include "obs/event_bus.h"
#include "runtime/runtime.h"

namespace jgre::rt {
namespace {

Runtime::Config SmallConfig(std::size_t max_globals = 100,
                            std::size_t boot_refs = 0) {
  Runtime::Config config;
  config.name = "test-runtime";
  config.max_global_refs = max_globals;
  config.boot_class_refs = boot_refs;
  return config;
}

TEST(HeapTest, HoldAccounting) {
  Heap heap;
  const ObjectId obj = heap.Alloc(ObjectKind::kPlain);
  EXPECT_TRUE(heap.IsAlive(obj));
  EXPECT_EQ(heap.Holds(obj), 0);
  heap.AddHold(obj);
  heap.AddHold(obj);
  EXPECT_EQ(heap.Holds(obj), 2);
  heap.RemoveHold(obj);
  EXPECT_EQ(heap.Holds(obj), 1);
  EXPECT_TRUE(heap.UnheldObjects().empty());
  heap.RemoveHold(obj);
  EXPECT_EQ(heap.UnheldObjects().size(), 1u);
  heap.Free(obj);
  EXPECT_FALSE(heap.IsAlive(obj));
}

TEST(HeapTest, RemoveHoldOnFreedObjectIsIgnored) {
  Heap heap;
  const ObjectId obj = heap.Alloc(ObjectKind::kPlain);
  heap.AddHold(obj);
  heap.Free(obj);
  heap.RemoveHold(obj);  // must not crash or corrupt
  EXPECT_EQ(heap.LiveCount(), 0u);
}

TEST(JavaVmExtTest, GlobalRefLifecycle) {
  SimClock clock;
  JavaVMExt vm(&clock, "vm", 100);
  auto ref = vm.AddGlobalRef(ObjectId{7});
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(vm.GlobalRefCount(), 1u);
  ASSERT_TRUE(vm.DecodeGlobal(ref.value()).ok());
  EXPECT_TRUE(vm.DeleteGlobalRef(ref.value()));
  EXPECT_EQ(vm.GlobalRefCount(), 0u);
  EXPECT_FALSE(vm.DeleteGlobalRef(ref.value()));
}

TEST(JavaVmExtTest, OverflowAbortsOnce) {
  SimClock clock;
  JavaVMExt vm(&clock, "vm", 3);
  int aborts = 0;
  std::string reason;
  vm.SetAbortHandler([&](const std::string& r) {
    ++aborts;
    reason = r;
  });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(vm.AddGlobalRef(ObjectId{i + 1}).ok());
  }
  auto overflow = vm.AddGlobalRef(ObjectId{99});
  EXPECT_FALSE(overflow.ok());
  EXPECT_TRUE(vm.aborted());
  EXPECT_EQ(aborts, 1);
  EXPECT_NE(reason.find("JNI ERROR (app bug)"), std::string::npos);
  // An aborted VM refuses further adds without re-firing the handler.
  EXPECT_EQ(vm.AddGlobalRef(ObjectId{100}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(aborts, 1);
}

class CountingSink : public obs::EventSink {
 public:
  void OnEvent(const obs::TraceEvent& event) override {
    if (event.category != obs::Category::kJgr) return;
    if (event.name == obs::LabelIdOf(obs::Label::kJgrAdd)) adds++;
    if (event.name == obs::LabelIdOf(obs::Label::kJgrRemove)) removes++;
    last_count = static_cast<std::size_t>(event.arg0);
  }
  int adds = 0, removes = 0;
  std::size_t last_count = 0;
};

TEST(JavaVmExtTest, BusSubscribersSeeEveryMutation) {
  SimClock clock;
  obs::EventBus bus;
  JavaVMExt vm(&clock, "vm", 100, kWeakGlobalsMax, obs::Source{&bus, 1, -1});
  CountingSink sink;
  bus.Subscribe(&sink, obs::MaskOf(obs::Category::kJgr));
  auto a = vm.AddGlobalRef(ObjectId{1});
  auto b = vm.AddGlobalRef(ObjectId{2});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  vm.DeleteGlobalRef(a.value());
  EXPECT_EQ(sink.adds, 2);
  EXPECT_EQ(sink.removes, 1);
  EXPECT_EQ(sink.last_count, 1u);
  bus.Unsubscribe(&sink);
  vm.DeleteGlobalRef(b.value());
  EXPECT_EQ(sink.removes, 1);  // detached
}

class WeakCountingSink : public obs::EventSink {
 public:
  void OnEvent(const obs::TraceEvent& event) override {
    if (event.category != obs::Category::kJgr) return;
    if (event.name == obs::LabelIdOf(obs::Label::kJgrWeakAdd)) weak_adds++;
    if (event.name == obs::LabelIdOf(obs::Label::kJgrWeakRemove)) {
      weak_removes++;
    }
  }
  int weak_adds = 0, weak_removes = 0;
};

TEST(JavaVmExtTest, WeakGlobalOscillationLeavesNoResidue) {
  // The weakref_churn primitive: NewWeakGlobalRef/DeleteWeakGlobalRef pairs
  // oscillating over fresh objects. The table must return to empty every
  // cycle — no slot residue, no free-list exhaustion — and emission stays
  // silent until a scenario opts in (every proxy mint crosses this table,
  // so unconditional emission would reshape every kJgr stream).
  SimClock clock;
  obs::EventBus bus;
  JavaVMExt vm(&clock, "vm", 100, 100, obs::Source{&bus, 1, -1});
  WeakCountingSink sink;
  bus.Subscribe(&sink, obs::MaskOf(obs::Category::kJgr));
  for (int i = 0; i < 64; ++i) {
    auto ref = vm.AddWeakGlobalRef(ObjectId{i + 1});
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(vm.WeakGlobalRefCount(), 1u);
    EXPECT_TRUE(vm.DeleteWeakGlobalRef(ref.value()));
    EXPECT_EQ(vm.WeakGlobalRefCount(), 0u);
  }
  EXPECT_EQ(sink.weak_adds, 0);  // off by default

  vm.SetWeakEventEmission(true);
  for (int i = 0; i < 32; ++i) {
    auto ref = vm.AddWeakGlobalRef(ObjectId{1000 + i});
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(vm.DeleteWeakGlobalRef(ref.value()));
  }
  EXPECT_EQ(sink.weak_adds, 32);
  EXPECT_EQ(sink.weak_removes, 32);
  EXPECT_EQ(vm.WeakGlobalRefCount(), 0u);
  EXPECT_FALSE(vm.aborted());
}

TEST(JavaVmExtTest, WeakTableOverflowAbortsLikeTheStrongTable) {
  // ART 6 caps the weak table like the strong one; the weakref_churn attack
  // exists because this overflow is just as fatal but invisible to a
  // strong-table-only monitor.
  SimClock clock;
  JavaVMExt vm(&clock, "vm", 100, 3);
  int aborts = 0;
  std::string reason;
  vm.SetAbortHandler([&](const std::string& r) {
    ++aborts;
    reason = r;
  });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(vm.AddWeakGlobalRef(ObjectId{i + 1}).ok());
  }
  EXPECT_EQ(vm.GlobalRefCount(), 0u);  // the monitored table never moved
  auto overflow = vm.AddWeakGlobalRef(ObjectId{99});
  EXPECT_FALSE(overflow.ok());
  EXPECT_TRUE(vm.aborted());
  EXPECT_EQ(aborts, 1);
  EXPECT_NE(reason.find("JNI ERROR (app bug)"), std::string::npos);
}

TEST(RuntimeTest, BootClassRefsArePinnedForever) {
  SimClock clock;
  Runtime runtime(&clock, SmallConfig(1000, 50));
  EXPECT_EQ(runtime.JgrCount(), 50u);
  runtime.CollectGarbage();
  EXPECT_EQ(runtime.JgrCount(), 50u);  // WellKnownClasses never collected
}

TEST(RuntimeTest, ProxyCacheReturnsSameObjectForSameNode) {
  SimClock clock;
  Runtime runtime(&clock, SmallConfig());
  auto p1 = runtime.GetOrCreateBinderProxy(NodeId{5});
  auto p2 = runtime.GetOrCreateBinderProxy(NodeId{5});
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value(), p2.value());
  EXPECT_EQ(runtime.JgrCount(), 1u);  // one JGR, not two
  auto p3 = runtime.GetOrCreateBinderProxy(NodeId{6});
  ASSERT_TRUE(p3.ok());
  EXPECT_EQ(runtime.JgrCount(), 2u);
}

TEST(RuntimeTest, GcReclaimsUnheldProxiesAndNotifiesDriver) {
  SimClock clock;
  Runtime runtime(&clock, SmallConfig());
  std::vector<NodeId> collected;
  runtime.SetProxyCollectHandler(
      [&](NodeId node) { collected.push_back(node); });
  auto held = runtime.GetOrCreateBinderProxy(NodeId{1});
  auto loose = runtime.GetOrCreateBinderProxy(NodeId{2});
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(loose.ok());
  runtime.heap().AddHold(held.value());
  EXPECT_EQ(runtime.CollectGarbage(), 1u);
  EXPECT_EQ(runtime.JgrCount(), 1u);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected.front(), NodeId{2});
  EXPECT_TRUE(runtime.HasBinderProxy(NodeId{1}));
  EXPECT_FALSE(runtime.HasBinderProxy(NodeId{2}));
  // Re-materializing the collected node mints a fresh proxy + JGR.
  auto again = runtime.GetOrCreateBinderProxy(NodeId{2});
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value(), loose.value());
  EXPECT_EQ(runtime.JgrCount(), 2u);
}

TEST(RuntimeTest, ProxyCacheAlsoTracksWeakGlobals) {
  // javaObjectForIBinder's proxy cache holds each proxy through a weak
  // global reference (a second capped table); collection must release it.
  SimClock clock;
  Runtime runtime(&clock, SmallConfig());
  auto proxy = runtime.GetOrCreateBinderProxy(NodeId{9});
  ASSERT_TRUE(proxy.ok());
  EXPECT_EQ(runtime.vm().WeakGlobalRefCount(), 1u);
  runtime.CollectGarbage();
  EXPECT_EQ(runtime.vm().WeakGlobalRefCount(), 0u);
  EXPECT_EQ(runtime.JgrCount(), 0u);
}

TEST(RuntimeTest, GcReleasesManagedObjectsWhenUnheld) {
  SimClock clock;
  Runtime runtime(&clock, SmallConfig());
  auto obj = runtime.AllocManagedObject(ObjectKind::kDeathRecipient);
  ASSERT_TRUE(obj.ok());
  runtime.heap().AddHold(obj.value());
  runtime.CollectGarbage();
  EXPECT_EQ(runtime.JgrCount(), 1u);  // held -> survives
  runtime.heap().RemoveHold(obj.value());
  runtime.CollectGarbage();
  EXPECT_EQ(runtime.JgrCount(), 0u);
  EXPECT_FALSE(runtime.heap().IsAlive(obj.value()));
}

TEST(RuntimeTest, GcAdvancesClockByPauseTime) {
  SimClock clock;
  Runtime runtime(&clock, SmallConfig());
  runtime.gc_pause_us = 1500;
  const TimeUs before = clock.NowUs();
  runtime.CollectGarbage();
  EXPECT_EQ(clock.NowUs() - before, 1500u);
  EXPECT_EQ(runtime.gc_runs(), 1);
}

TEST(RuntimeTest, AbortedRuntimeStopsAllocating) {
  SimClock clock;
  Runtime runtime(&clock, SmallConfig(5));
  for (int i = 0; i < 5; ++i) {
    (void)runtime.AllocManagedObject(ObjectKind::kPlain);
  }
  auto overflow = runtime.AllocManagedObject(ObjectKind::kPlain);
  EXPECT_FALSE(overflow.ok());
  EXPECT_TRUE(runtime.aborted());
  EXPECT_EQ(runtime.CollectGarbage(), 0u);  // dead runtimes don't GC
}

}  // namespace
}  // namespace jgre::rt
