// bench_micro_hotpaths — wall-clock microbenchmarks of the simulated-IPC hot
// paths the batched rebuild targets:
//
//   reference paths (tracked, not aggregated):
//     * irt_churn          IndirectReferenceTable Add/Remove slot reuse
//     * transact_stock     full binder Transact round-trip, logging off
//     * transact_defended  same round-trip with defense logging on
//   aggregated paths (the geomean the PR's speedup claim is made on):
//     * attack_mint        attack-shaped minting loop (fresh binder per call
//                          into a replaceable slot + periodic full GC)
//     * gc_scan            GC sweep over a large held population
//     * event_delivery     bus fan-out into trace/metrics/probe sinks
//     * monitor_ingest     JgrMonitor recording through the monitor hub
//     * scoring            Algorithm 1 over an IPC window
//
// Emits BENCH_perf.json (schema_version 2): per path ops, ns_per_op and
// ops_per_sec, plus the checked-in pre-rebuild baseline (median of 3 runs at
// the seed commit) and the speedup against it; the aggregate block carries
// the geomean speedup over the aggregated paths. Real time: numbers vary run
// to run, the JSON is for tracking relative regressions (see
// scripts/validate_perf_report.py and bench/perf_floor.json), not for
// byte-exact comparison.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "core/android_system.h"
#include "defense/jgr_monitor.h"
#include "defense/monitor_hub.h"
#include "defense/scoring.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "obs/event.h"
#include "obs/event_bus.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"
#include "runtime/indirect_reference_table.h"
#include "runtime/runtime.h"
#include "services/safe_service.h"

using namespace jgre;

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

// Pre-rebuild baselines: ns/op per path, the median of 3 runs of these exact
// workloads against the seed tree (commit c7400a5), captured on the same
// class of machine CI uses. Recorded in bench/perf_baseline.json.
constexpr double kBaselineIrtChurn = 7.066;
constexpr double kBaselineTransactStock = 306.685;
constexpr double kBaselineTransactDefended = 348.490;
constexpr double kBaselineAttackMint = 3160.095;
constexpr double kBaselineGcScan = 156.032;
constexpr double kBaselineEventDelivery = 36.527;
constexpr double kBaselineMonitorIngest = 33.508;
constexpr double kBaselineScoring = 113.681;

struct PathResult {
  const char* key = nullptr;
  double ops = 0;
  double ns_per_op = 0;
  double baseline_ns_per_op = 0;
  bool aggregated = false;
};

// Appends the stable schema-v2 record for one path and remembers it for the
// aggregate block.
void Record(std::vector<PathResult>* results, harness::Json* sections,
            const char* key, double ops, double total_ns, double baseline_ns,
            bool aggregated, harness::Json extras = harness::Json::Object()) {
  const double ns_per_op = total_ns / ops;
  PathResult r;
  r.key = key;
  r.ops = ops;
  r.ns_per_op = ns_per_op;
  r.baseline_ns_per_op = baseline_ns;
  r.aggregated = aggregated;
  results->push_back(r);
  harness::Json path = harness::Json::Object();
  path.Set("ops", static_cast<std::int64_t>(ops));
  path.Set("ns_per_op", ns_per_op);
  path.Set("ops_per_sec", 1e9 / ns_per_op);
  path.Set("baseline_ns_per_op", baseline_ns);
  path.Set("speedup_vs_baseline", baseline_ns / ns_per_op);
  path.Set("aggregated", aggregated);
  path.Set("detail", std::move(extras));
  sections->Set(key, std::move(path));
  std::printf("%-18s %12.0f ops  %9.3f ns/op  %12.0f ops/s  %6.2fx\n", key,
              ops, ns_per_op, 1e9 / ns_per_op, baseline_ns / ns_per_op);
}

// Steady-state churn on a fragmented global table: fill, punch holes, then
// alternate Remove/Add so every Add lands on the free list.
void IrtChurn(std::vector<PathResult>* results, harness::Json* sections) {
  constexpr std::size_t kLive = 8'192;
  constexpr int kOps = 2'000'000;
  rt::IndirectReferenceTable table(51'200, rt::IndirectRefKind::kGlobal,
                                   "bench global");
  std::vector<rt::IndirectRef> refs;
  refs.reserve(kLive);
  for (std::size_t i = 0; i < kLive; ++i) {
    refs.push_back(
        table.Add(table.CurrentCookie(),
                  ObjectId(static_cast<std::int64_t>(i + 1)))
            .value());
  }
  // Punch holes at every other slot so the free list stays deep throughout.
  for (std::size_t i = 0; i < kLive; i += 2) {
    table.Remove(table.CurrentCookie(), refs[i]);
  }
  Rng rng(1);
  const auto start = Clock::now();
  for (int op = 0; op < kOps; ++op) {
    const std::size_t i = 1 + 2 * (rng.UniformU64(kLive / 2));
    table.Remove(table.CurrentCookie(), refs[i]);
    refs[i] = table
                  .Add(table.CurrentCookie(),
                       ObjectId(static_cast<std::int64_t>(i + 1)))
                  .value();
  }
  Record(results, sections, "irt_churn", 2.0 * kOps, ElapsedNs(start),
         kBaselineIrtChurn, /*aggregated=*/false,
         harness::Json::Object()
             .Set("live_entries", kLive)
             .Set("holes", table.HoleCount()));
}

// Full client->system_server Transact round-trip through the simulator
// (parcel, routing, per-transaction logging, virtual-time accounting).
void Transact(std::vector<PathResult>* results, harness::Json* sections,
              bool defense_logging, const char* key, double baseline_ns) {
  constexpr int kCalls = 50'000;
  core::AndroidSystem system;
  system.Boot();
  services::AppProcess* app = system.InstallApp("com.bench.app");
  system.driver().SetDefenseLogging(defense_logging);
  auto client_res = app->GetService("dropbox", "android.os.IdropboxService");
  const services::IpcClient& client = client_res.value();
  const auto start = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    (void)client.Call(services::GenericSafeService::TRANSACTION_query,
                      [](binder::Parcel& p) {
                        p.WriteInt32(0);
                        p.WriteByteArray(64);
                      });
  }
  Record(results, sections, key, kCalls, ElapsedNs(start), baseline_ns,
         /*aggregated=*/false,
         harness::Json::Object().Set("defense_logging", defense_logging));
}

// Attack-shaped minting loop — fresh binder per call into a replaceable
// slot, periodic full GC (the paper's attack shape minus the retention, so
// the arena/GC path dominates).
void AttackMint(std::vector<PathResult>* results, harness::Json* sections) {
  constexpr int kCalls = 30'000;
  constexpr int kGcEvery = 512;
  core::AndroidSystem system;
  system.Boot();
  services::AppProcess* app = system.InstallApp("com.bench.mint");
  auto client_res = app->GetService("dropbox", "android.os.IdropboxService");
  const services::IpcClient& client = client_res.value();
  const auto start = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    auto binder = app->NewBinder("Obs");
    (void)client.Call(
        services::GenericSafeService::TRANSACTION_registerObserver,
        [&](binder::Parcel& p) { p.WriteStrongBinder(binder); });
    if ((i + 1) % kGcEvery == 0) system.CollectAllGarbage();
  }
  system.CollectAllGarbage();
  Record(results, sections, "attack_mint", kCalls, ElapsedNs(start),
         kBaselineAttackMint, /*aggregated=*/true,
         harness::Json::Object().Set("gc_every", kGcEvery));
}

// GC sweep with a large held population and a small collectable set per
// round (the shape bench_snapshot spends most of its time in).
void GcScan(std::vector<PathResult>* results, harness::Json* sections) {
  constexpr int kHeld = 20'000;
  constexpr int kGarbagePerRound = 2'000;
  constexpr int kRounds = 100;
  SimClock clock;
  rt::Runtime::Config config;
  config.name = "gc_bench";
  config.boot_class_refs = 0;
  rt::Runtime runtime(&clock, config);
  for (int i = 0; i < kHeld; ++i) {
    const ObjectId obj = runtime.AllocPlainObject();
    runtime.heap().AddHold(obj);
  }
  const auto start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kGarbagePerRound; ++i) {
      (void)runtime.AllocPlainObject();
    }
    (void)runtime.CollectGarbage();
  }
  Record(results, sections, "gc_scan",
         static_cast<double>(kRounds) * kGarbagePerRound, ElapsedNs(start),
         kBaselineGcScan, /*aggregated=*/true,
         harness::Json::Object()
             .Set("held_objects", kHeld)
             .Set("live_after", runtime.heap().LiveCount()));
}

// Event delivery through the bus into three sinks (trace ring, metrics fold,
// second ring standing in for a probe), each called synchronously inside
// Emit().
void EventDelivery(std::vector<PathResult>* results, harness::Json* sections) {
  constexpr int kEvents = 2'000'000;
  obs::EventBus bus;
  obs::TraceBuffer trace(1 << 16);
  obs::TraceBuffer probe(1 << 16);
  obs::MetricsRegistry registry;
  obs::MetricsSink metrics(&registry);
  const obs::CategoryMask mask =
      obs::MaskOf(obs::Category::kIpc) | obs::MaskOf(obs::Category::kJgr);
  bus.Subscribe(&trace, mask);
  bus.Subscribe(&metrics, mask);
  bus.Subscribe(&probe, mask);
  const auto start = Clock::now();
  for (int i = 0; i < kEvents; ++i) {
    const bool ipc = (i & 1) == 0;
    bus.Emit(obs::MakeEvent(ipc ? obs::Category::kIpc : obs::Category::kJgr,
                            ipc ? obs::Label::kIpcTransact
                                : obs::Label::kJgrAdd,
                            static_cast<TimeUs>(i), 7, 10'000,
                            /*arg0=*/i & 1023, /*arg1=*/i));
  }
  Record(results, sections, "event_delivery", kEvents, ElapsedNs(start),
         kBaselineEventDelivery, /*aggregated=*/true,
         harness::Json::Object()
             .Set("sinks", 3)
             .Set("trace_dropped", trace.dropped()));
}

// JGR monitor ingest while recording (per-event timestamping at 1 µs virtual
// cost — the defender's phase-1 overhead), routed through the monitor hub's
// one kJgr subscription.
void MonitorIngest(std::vector<PathResult>* results, harness::Json* sections) {
  constexpr int kEvents = 1'000'000;
  SimClock clock;
  obs::EventBus bus;
  defense::JgrMonitor::Config config;
  config.alarm_threshold = 1;
  config.report_threshold = static_cast<std::size_t>(1) << 60;
  defense::JgrMonitor m1(&clock, "victim1", config);
  defense::JgrMonitor m2(&clock, "victim2", config);
  defense::JgrMonitor m3(&clock, "victim3", config);
  defense::JgrMonitorHub hub(&bus);
  hub.Attach(Pid{1}, &m1);
  hub.Attach(Pid{2}, &m2);
  hub.Attach(Pid{3}, &m3);
  const auto start = Clock::now();
  for (int i = 0; i < kEvents; ++i) {
    bus.Emit(obs::MakeEvent(obs::Category::kJgr, obs::Label::kJgrAdd,
                            clock.NowUs(), /*pid=*/2, 1000,
                            /*arg0=*/i + 2, /*arg1=*/i));
  }
  Record(results, sections, "monitor_ingest", kEvents, ElapsedNs(start),
         kBaselineMonitorIngest, /*aggregated=*/true,
         harness::Json::Object()
             .Set("monitors", 3)
             .Set("recorded", m2.event_count()));
}

// Algorithm 1 over a synthetic single-type workload: n IPC calls, each
// followed by a JGR add ~700 µs later. Throughput is reported per
// (call, add) pair actually examined by the scorer.
void Scoring(std::vector<PathResult>* results, harness::Json* sections) {
  constexpr int kEvents = 4'000;
  constexpr int kRounds = 200;
  std::vector<defense::IpcEvent> calls;
  std::vector<TimeUs> adds;
  for (int i = 0; i < kEvents; ++i) {
    const TimeUs t = 10'000 + static_cast<TimeUs>(i) * 20'000;
    calls.push_back({t, defense::MakeIpcTypeKey(1, 1)});
    adds.push_back(t + 700);
  }
  defense::ScoringParams params;
  params.delta_us = 500;
  params.bucket_us = 50;
  params.max_delay_us = 20'000;
  params.analysis_window_us = 0;
  defense::ScoringWorkspace workspace;
  defense::ScoringCost cost;
  std::int64_t score_sum = 0;
  const auto start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    score_sum += defense::JgreScoreForApp(calls, adds, params, &cost,
                                          &workspace);
  }
  const double total_ns = ElapsedNs(start);
  Record(results, sections, "scoring", static_cast<double>(cost.pairs),
         total_ns, kBaselineScoring, /*aggregated=*/true,
         harness::Json::Object()
             .Set("events", kEvents)
             .Set("rounds", kRounds)
             .Set("range_ops", cost.range_ops)
             .Set("score_sum", score_sum));
}

}  // namespace

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "micro_hotpaths";
  spec.json_name = "perf";
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;

  std::printf("\n================================================================\n");
  std::printf("MICRO HOTPATHS — wall-clock cost of the simulation core\n");
  std::printf("================================================================\n");

  std::vector<PathResult> results;
  harness::Json sections = harness::Json::Object();
  IrtChurn(&results, &sections);
  Transact(&results, &sections, false, "transact_stock",
           kBaselineTransactStock);
  Transact(&results, &sections, true, "transact_defended",
           kBaselineTransactDefended);
  AttackMint(&results, &sections);
  GcScan(&results, &sections);
  EventDelivery(&results, &sections);
  MonitorIngest(&results, &sections);
  Scoring(&results, &sections);

  harness::Json aggregate_paths = harness::Json::Array();
  double log_sum = 0;
  int aggregated = 0;
  for (const PathResult& r : results) {
    if (!r.aggregated) continue;
    aggregate_paths.Push(r.key);
    log_sum += std::log(r.baseline_ns_per_op / r.ns_per_op);
    ++aggregated;
  }
  const double geomean =
      aggregated > 0 ? std::exp(log_sum / aggregated) : 1.0;
  std::printf("----------------------------------------------------------------\n");
  std::printf("aggregate geomean speedup vs pre-rebuild baseline: %.2fx\n",
              geomean);

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts, /*schema_version=*/2);
    report.Set("baseline",
            harness::Json::Object()
                .Set("commit", "c7400a5")
                .Set("runs", 3)
                .Set("stat", "median"));
    report.Set("paths", std::move(sections));
    report.Set("aggregate",
            harness::Json::Object()
                .Set("paths", std::move(aggregate_paths))
                .Set("geomean_speedup_vs_baseline", geomean));
    if (!report.Write()) return 1;
  }
  return 0;
}
