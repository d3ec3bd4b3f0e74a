// Observability-layer tests: EventBus subscription and delivery order, the
// trace ring buffer's ordering and overflow accounting, the metrics
// registry's merge algebra, the MetricsSink event folding, the Chrome-trace
// exporter (exact golden bytes), and the JGRE_TRACE gating macro.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/event.h"
#include "obs/event_bus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"

namespace jgre::obs {
namespace {

// --- EventBus ---------------------------------------------------------------------

class RecordingSink : public EventSink {
 public:
  void OnEvent(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

TEST(EventBusTest, WantsTracksSubscriptions) {
  EventBus bus;
  for (int c = 0; c < kCategoryCount; ++c) {
    EXPECT_FALSE(bus.Wants(static_cast<Category>(c)));
  }
  RecordingSink sink;
  bus.Subscribe(&sink, MaskOf(Category::kJgr) | MaskOf(Category::kIpc));
  EXPECT_TRUE(bus.Wants(Category::kJgr));
  EXPECT_TRUE(bus.Wants(Category::kIpc));
  EXPECT_FALSE(bus.Wants(Category::kGc));
  bus.Unsubscribe(&sink);
  EXPECT_FALSE(bus.Wants(Category::kJgr));
  EXPECT_EQ(bus.subscriber_count(), 0u);
}

TEST(EventBusTest, DeliversOnlySubscribedCategories) {
  EventBus bus;
  RecordingSink sink;
  bus.Subscribe(&sink, MaskOf(Category::kGc));
  bus.Emit(MakeEvent(Category::kJgr, Label::kJgrAdd, 1, 5, 1000, 10, 1));
  bus.Emit(MakeEvent(Category::kGc, Label::kGcRun, 2, 5, 1000, 3, 7, 40));
  EXPECT_EQ(bus.emitted(), 2u);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].category, Category::kGc);
  EXPECT_EQ(sink.events[0].dur_us, 40u);
}

TEST(EventBusTest, ResubscribeReplacesOldSubscription) {
  EventBus bus;
  RecordingSink sink;
  bus.Subscribe(&sink, MaskOf(Category::kJgr));
  bus.Subscribe(&sink, MaskOf(Category::kIpc));  // replaces, not adds
  EXPECT_EQ(bus.subscriber_count(), 1u);
  EXPECT_FALSE(bus.Wants(Category::kJgr));
  EXPECT_TRUE(bus.Wants(Category::kIpc));
  bus.Emit(MakeEvent(Category::kIpc, Label::kIpcTransact, 1, 3, 1000, 2, 9));
  EXPECT_EQ(sink.events.size(), 1u);
}

TEST(EventBusTest, WellKnownLabelsArePreInterned) {
  EventBus bus;
  EXPECT_EQ(bus.label_count(), static_cast<std::size_t>(kWellKnownLabelCount));
  EXPECT_EQ(bus.LabelName(LabelIdOf(Label::kJgrAdd)), "jgr_add");
  EXPECT_EQ(bus.LabelName(LabelIdOf(Label::kIncidentRecovered)),
            "incident_recovered");
  // Interning is deterministic: same strings, same ids, in two fresh buses.
  EventBus other;
  const LabelId a1 = bus.InternLabel("android.app.IActivityManager");
  const LabelId a2 = other.InternLabel("android.app.IActivityManager");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a1, kWellKnownLabelCount);  // first non-well-known id
  EXPECT_EQ(bus.InternLabel("android.app.IActivityManager"), a1);
}

// Publishes a kDefense annotation from inside OnEvent, as the defense's
// monitors do while consuming a kJgr event.
class AnnotatingSink : public EventSink {
 public:
  explicit AnnotatingSink(EventBus* bus) : bus_(bus) {}
  void OnEvent(const TraceEvent& event) override {
    bus_->Emit(MakeEvent(Category::kDefense, Label::kMonitorAlarm, event.ts_us,
                         event.pid, event.uid));
  }

 private:
  EventBus* bus_;
};

TEST(EventBusTest, DeliversInsideEmitInSubscriptionOrder) {
  EventBus bus;
  AnnotatingSink annotator(&bus);
  RecordingSink recorder;
  bus.Subscribe(&annotator, MaskOf(Category::kJgr));
  bus.Subscribe(&recorder, kAllCategories);
  bus.Emit(MakeEvent(Category::kJgr, Label::kJgrAdd, 1, 7, 1000, 1, 1));
  // Delivered before Emit returns; the annotation published by the earlier
  // subscriber re-enters Emit and reaches the recorder first.
  ASSERT_EQ(recorder.events.size(), 2u);
  EXPECT_EQ(recorder.events[0].category, Category::kDefense);
  EXPECT_EQ(recorder.events[1].category, Category::kJgr);
  EXPECT_EQ(bus.emitted(), 2u);
}

// --- TraceBuffer ------------------------------------------------------------------

TEST(TraceBufferTest, PreservesEmissionOrder) {
  EventBus bus;
  TraceBuffer buffer;
  bus.Subscribe(&buffer, kAllCategories);
  for (TimeUs t = 0; t < 10; ++t) {
    bus.Emit(MakeEvent(Category::kJgr, Label::kJgrAdd, t, 1, 1000,
                       static_cast<std::int64_t>(t), 0));
  }
  ASSERT_EQ(buffer.size(), 10u);
  EXPECT_EQ(buffer.dropped(), 0u);
  const auto& ring = buffer.events();
  for (std::uint64_t i = ring.first_index(); i < ring.end_index(); ++i) {
    EXPECT_EQ(ring.At(i).ts_us, i);
  }
}

TEST(TraceBufferTest, OverflowKeepsNewestAndCountsDropped) {
  TraceBuffer buffer(/*capacity=*/4);
  for (TimeUs t = 0; t < 10; ++t) {
    buffer.OnEvent(MakeEvent(Category::kIpc, Label::kIpcTransact, t, 1, 1000,
                             2, 0));
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.total_seen(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);
  const auto& ring = buffer.events();
  EXPECT_EQ(ring.first_index(), 6u);
  EXPECT_EQ(ring.At(ring.first_index()).ts_us, 6u);  // oldest retained
  EXPECT_EQ(ring.At(ring.end_index() - 1).ts_us, 9u);
}

// --- MetricsRegistry --------------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.Counter("ipc.calls") += 3;
  registry.Counter("ipc.calls") += 2;
  registry.GaugeMax("jgr.peak", 100);
  registry.GaugeMax("jgr.peak", 50);  // lower: no effect
  registry.Histogram("gc.pause_us").Add(10);
  registry.Histogram("gc.pause_us").Add(30);
  EXPECT_EQ(registry.counters().at("ipc.calls"), 5);
  EXPECT_EQ(registry.gauges().at("jgr.peak"), 100);
  EXPECT_EQ(registry.histograms().at("gc.pause_us").count(), 2u);
  EXPECT_EQ(registry.histograms().at("gc.pause_us").mean(), 20);
}

TEST(MetricsRegistryTest, MergeAddsMaxesAndAppends) {
  MetricsRegistry a, b;
  a.Counter("calls") = 10;
  b.Counter("calls") = 5;
  b.Counter("only_b") = 1;
  a.GaugeMax("peak", 7);
  b.GaugeMax("peak", 9);
  a.Histogram("h").Add(1);
  b.Histogram("h").Add(2);
  a.Merge(b);
  EXPECT_EQ(a.counters().at("calls"), 15);
  EXPECT_EQ(a.counters().at("only_b"), 1);
  EXPECT_EQ(a.gauges().at("peak"), 9);
  EXPECT_EQ(a.histograms().at("h").count(), 2u);
  // Merge order never changes the iteration order (lexicographic by name).
  std::vector<std::string> names;
  for (const auto& [name, value] : a.counters()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"calls", "only_b"}));
}

TEST(MetricsSinkTest, FoldsEventStreamIntoRegistry) {
  MetricsRegistry registry;
  MetricsSink sink(&registry);
  sink.OnEvent(MakeEvent(Category::kJgr, Label::kJgrAdd, 1, 5, 1000, 1201, 1));
  sink.OnEvent(MakeEvent(Category::kJgr, Label::kJgrAdd, 2, 5, 1000, 1202, 2));
  sink.OnEvent(
      MakeEvent(Category::kJgr, Label::kJgrRemove, 3, 5, 1000, 1201, 1));
  sink.OnEvent(MakeEvent(Category::kIpc, Label::kIpcTransact, 4, 9, 10050, 5,
                         (3LL << 32) | 7));
  sink.OnEvent(MakeEvent(Category::kGc, Label::kGcRun, 5, 5, 1000, 40, 1162,
                         /*dur_us=*/2000));
  sink.OnEvent(MakeEvent(Category::kDefense, Label::kIncidentIdentified, 6, 2,
                         1000, 3, 1500));
  EXPECT_EQ(registry.counters().at("jgr.adds"), 2);
  EXPECT_EQ(registry.counters().at("jgr.removes"), 1);
  EXPECT_EQ(registry.counters().at("ipc.calls"), 1);
  EXPECT_EQ(registry.counters().at("gc.runs"), 1);
  EXPECT_EQ(registry.counters().at("gc.freed_refs"), 40);
  EXPECT_EQ(registry.counters().at("defense.incidents"), 1);
  EXPECT_EQ(registry.gauges().at("jgr.peak"), 1202);
  EXPECT_EQ(registry.histograms().at("gc.pause_us").count(), 1u);
  EXPECT_EQ(registry.histograms().at("defense.response_delay_ms").mean(), 1.5);
}

// --- Chrome-trace exporter --------------------------------------------------------

TEST(ChromeTraceTest, GoldenJson) {
  EventBus bus;
  TraceBuffer buffer;
  const LabelId toast = bus.InternLabel("android.app.INotificationManager");
  buffer.OnEvent(
      MakeEvent(Category::kJgr, Label::kJgrAdd, 10, 5, 1000, 1201, 77));
  buffer.OnEvent(MakeEvent(Category::kIpc, toast, 20, 6, 10050, 5,
                           (3LL << 32) | 7));
  buffer.OnEvent(MakeEvent(Category::kGc, Label::kGcRun, 30, 5, 1000, 12, 1189,
                           /*dur_us=*/2500));
  buffer.OnEvent(MakeEvent(Category::kDefense, Label::kMonitorAlarm, 40, 5,
                           1000, 4001, 0));
  buffer.OnEvent(
      MakeEvent(Category::kJgr, Label::kJgrOverflow, 50, 5, 1000, 51200, 0));
  const auto resolver = [](std::int32_t pid) {
    return pid == 5 ? std::string("system_server") : std::string();
  };
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"droppedEvents\":0,\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":5,\"tid\":0,\"args\":"
      "{\"name\":\"system_server\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":6,\"tid\":0,\"args\":"
      "{\"name\":\"pid 6\"}},\n"
      "{\"name\":\"jgr_count\",\"cat\":\"jgr\",\"ph\":\"C\",\"ts\":10,"
      "\"pid\":5,\"tid\":5,\"args\":{\"refs\":1201}},\n"
      "{\"name\":\"android.app.INotificationManager\",\"cat\":\"ipc\","
      "\"ph\":\"i\",\"ts\":20,\"pid\":6,\"tid\":6,\"s\":\"t\",\"args\":"
      "{\"to_pid\":5,\"code\":7}},\n"
      "{\"name\":\"gc\",\"cat\":\"gc\",\"ph\":\"X\",\"ts\":30,\"pid\":5,"
      "\"tid\":5,\"dur\":2500,\"args\":{\"freed\":12,\"jgr_after\":1189}},\n"
      "{\"name\":\"monitor_alarm\",\"cat\":\"defense\",\"ph\":\"i\",\"ts\":40,"
      "\"pid\":5,\"tid\":5,\"s\":\"p\",\"args\":{\"a0\":4001,\"a1\":0}},\n"
      "{\"name\":\"jgr_overflow\",\"cat\":\"jgr\",\"ph\":\"i\",\"ts\":50,"
      "\"pid\":5,\"tid\":5,\"s\":\"p\",\"args\":{\"refs\":51200}}\n"
      "]}\n";
  EXPECT_EQ(ChromeTraceJson(bus, buffer, resolver), expected);
  // Byte-stable across repeated serialization.
  EXPECT_EQ(ChromeTraceJson(bus, buffer, resolver),
            ChromeTraceJson(bus, buffer, resolver));
}

TEST(ChromeTraceTest, ReportsDroppedEvents) {
  EventBus bus;
  TraceBuffer buffer(/*capacity=*/2);
  for (TimeUs t = 0; t < 5; ++t) {
    buffer.OnEvent(MakeEvent(Category::kJgr, Label::kJgrAdd, t, 1, 1000, 1, 1));
  }
  const std::string json = ChromeTraceJson(bus, buffer);
  EXPECT_NE(json.find("\"droppedEvents\":3"), std::string::npos);
}

// --- JGRE_TRACE macro -------------------------------------------------------------

TEST(TraceMacroTest, EmitsOnlyWhenWanted) {
#if JGRE_TRACE_ENABLED
  EventBus bus;
  int evaluations = 0;
  const auto make = [&evaluations] {
    ++evaluations;
    return MakeEvent(Category::kGc, Label::kGcRun, 1, 1, 1000, 0, 0);
  };
  JGRE_TRACE(&bus, Category::kGc, make());
  EXPECT_EQ(evaluations, 0);  // no subscriber: expression not evaluated
  EXPECT_EQ(bus.emitted(), 0u);
  JGRE_TRACE(static_cast<EventBus*>(nullptr), Category::kGc, make());
  EXPECT_EQ(evaluations, 0);  // null bus tolerated
  RecordingSink sink;
  bus.Subscribe(&sink, MaskOf(Category::kGc));
  JGRE_TRACE(&bus, Category::kGc, make());
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(sink.events.size(), 1u);
#else
  GTEST_SKIP() << "tracing compiled out";
#endif
}

}  // namespace
}  // namespace jgre::obs
