// Detection-registry tests.
//
// The sift and oracle hunts read verdicts the pipeline already reached: the
// sift hunt accuses exactly the analysis report's candidates, in report
// order, and the oracle hunt accuses every confirmed fuzz finding. The rest
// cover the registry's source-gated scheduling, the fuser's monotone certainty
// upgrades and rank stability, and the two follow-up hunts (slow-drip,
// death-recipient churn) on synthetic traces and on real fleet devices.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "attack/strategy.h"
#include "attack/vuln_registry.h"
#include "core/android_system.h"
#include "detect/catalog.h"
#include "detect/detection.h"
#include "detect/fuser.h"
#include "detect/hunt.h"
#include "detect/hunts.h"
#include "detect/registry.h"
#include "fleet/runner.h"
#include "fleet/spec.h"
#include "fuzz/oracle.h"
#include "model/corpus.h"
#include "obs/event.h"
#include "snapshot/serializer.h"

namespace jgre {
namespace {

using detect::Certainty;
using detect::DataSource;
using detect::Detection;
using detect::MaskOf;

// --- Certainty lattice -------------------------------------------------------

TEST(CertaintyTest, RaiseIsMonotoneAndSaturates) {
  EXPECT_EQ(detect::RaiseCertainty(Certainty::kHypothetical, 0),
            Certainty::kHypothetical);
  EXPECT_EQ(detect::RaiseCertainty(Certainty::kHypothetical, 1),
            Certainty::kWeak);
  EXPECT_EQ(detect::RaiseCertainty(Certainty::kWeak, 2),
            Certainty::kConfirmed);
  EXPECT_EQ(detect::RaiseCertainty(Certainty::kConfirmed, 5),
            Certainty::kConfirmed);
  EXPECT_LT(Certainty::kHypothetical, Certainty::kWeak);
  EXPECT_LT(Certainty::kWeak, Certainty::kStrong);
  EXPECT_LT(Certainty::kStrong, Certainty::kConfirmed);
}

// --- Registry scheduling -----------------------------------------------------

class RecordingHunt : public detect::Hunt {
 public:
  RecordingHunt(std::string id, detect::SourceMask required)
      : id_(std::move(id)), required_(required) {}
  std::string_view id() const override { return id_; }
  std::string_view description() const override { return "test hunt"; }
  detect::SourceMask required_sources() const override { return required_; }
  std::vector<Detection> Run(const detect::DataSources&,
                             const detect::Scope&) const override {
    Detection d;
    d.hunt = id_;
    d.service = "svc";
    d.method = id_;
    return {d};
  }

 private:
  std::string id_;
  detect::SourceMask required_;
};

TEST(HuntRegistryTest, RejectsDuplicateIds) {
  detect::HuntRegistry registry;
  EXPECT_TRUE(registry
                  .Register(std::make_unique<RecordingHunt>(
                      "a.one", MaskOf(DataSource::kAnalysis)))
                  .ok());
  const Status dup = registry.Register(std::make_unique<RecordingHunt>(
      "a.one", MaskOf(DataSource::kAnalysis)));
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(HuntRegistryTest, RunsOnlyHuntsWhoseSourcesAreAvailable) {
  detect::HuntRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<RecordingHunt>(
                      "a.analysis", MaskOf(DataSource::kAnalysis)))
                  .ok());
  ASSERT_TRUE(registry
                  .Register(std::make_unique<RecordingHunt>(
                      "b.trace", MaskOf(DataSource::kTraceEvents)))
                  .ok());
  ASSERT_TRUE(registry
                  .Register(std::make_unique<RecordingHunt>(
                      "c.both", MaskOf(DataSource::kAnalysis) |
                                    MaskOf(DataSource::kTraceEvents)))
                  .ok());

  analysis::AnalysisReport report;
  detect::DataSources sources;
  sources.analysis = &report;  // analysis present, trace absent

  std::vector<detect::HuntRunStats> stats;
  const std::vector<Detection> detections =
      registry.RunAll(sources, detect::Scope{}, &stats);

  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].hunt, "a.analysis");
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_TRUE(stats[0].ran);
  EXPECT_FALSE(stats[1].ran);
  EXPECT_EQ(stats[1].missing, MaskOf(DataSource::kTraceEvents));
  EXPECT_FALSE(stats[2].ran);
  EXPECT_EQ(stats[2].missing, MaskOf(DataSource::kTraceEvents));
}

TEST(HuntRegistryTest, DefaultBatteryHasTheSixStandardHunts) {
  const detect::HuntRegistry registry = detect::HuntRegistry::WithDefaultHunts();
  EXPECT_EQ(registry.size(), 6u);
  EXPECT_NE(registry.Find("static.sift-rules"), nullptr);
  EXPECT_NE(registry.Find("fuzz.exhaustion-oracle"), nullptr);
  EXPECT_NE(registry.Find("protocol.cross-call-retention"), nullptr);
  EXPECT_NE(registry.Find("defense.alarm-report"), nullptr);
  EXPECT_NE(registry.Find("followup.slow-drip"), nullptr);
  EXPECT_NE(registry.Find("followup.death-churn"), nullptr);
  EXPECT_EQ(registry.Find("no.such"), nullptr);
  // The protocol hunt gates on the protocol-graph modality: an analysis-only
  // run (the census's static pass) must never schedule it.
  EXPECT_EQ(registry.Find("protocol.cross-call-retention")->required_sources(),
            MaskOf(DataSource::kAnalysis) |
                MaskOf(DataSource::kProtocolGraph));
}

// --- Fuser -------------------------------------------------------------------

Detection MakeDetection(const std::string& hunt, const std::string& key,
                        Certainty certainty) {
  Detection d;
  d.hunt = hunt;
  d.interface_id = key;
  d.service = "svc";
  d.method = "m";
  d.certainty = certainty;
  return d;
}

TEST(DetectionFuserTest, UpgradesOncePerExtraEvidenceModality) {
  Detection sift = MakeDetection("static.sift-rules", "svc.m", Certainty::kStrong);
  sift.witness.reason = "death-recipient";
  sift.witness.steps.push_back({analysis::taint::StepKind::kIpcEntry, "svc.m"});

  Detection drip =
      MakeDetection("followup.slow-drip", "svc.m", Certainty::kWeak);
  drip.trace.events.push_back(obs::TraceEvent{});

  Detection oracle =
      MakeDetection("fuzz.exhaustion-oracle", "svc.m", Certainty::kStrong);
  oracle.reproducer.calls.push_back(fuzz::IpcCall{});

  detect::DetectionFuser fuser;
  fuser.Add(sift);
  fuser.Add(drip);
  fuser.Add(oracle);

  const std::vector<detect::RankedFinding> ranked = fuser.Ranked();
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].detections.size(), 3u);
  EXPECT_EQ(ranked[0].evidence_modalities(), 3);
  EXPECT_EQ(ranked[0].base_certainty, Certainty::kStrong);
  // Three modalities = two upgrades past kStrong, saturating at kConfirmed.
  EXPECT_EQ(ranked[0].certainty, Certainty::kConfirmed);
}

TEST(DetectionFuserTest, SameModalityAccusationsDoNotRaiseCertainty) {
  // Two trace-modality hunts accusing the same interface are one modality of
  // evidence, not two: corroboration must come from an *independent* channel
  // (static witness, fuzz reproducer) to upgrade the lattice. Same-channel
  // detections join the group without moving certainty.
  Detection drip =
      MakeDetection("followup.slow-drip", "svc.m", Certainty::kWeak);
  drip.trace.events.push_back(obs::TraceEvent{});
  Detection churn =
      MakeDetection("followup.death-churn", "svc.m", Certainty::kWeak);
  churn.trace.events.push_back(obs::TraceEvent{});

  detect::DetectionFuser fuser;
  fuser.Add(drip);
  fuser.Add(churn);

  const std::vector<detect::RankedFinding> ranked = fuser.Ranked();
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].detections.size(), 2u);
  EXPECT_EQ(ranked[0].evidence_modalities(), 1);
  EXPECT_EQ(ranked[0].base_certainty, Certainty::kWeak);
  EXPECT_EQ(ranked[0].certainty, Certainty::kWeak);  // no upgrade

  // A second modality on the same key upgrades exactly one step.
  Detection sift =
      MakeDetection("static.sift-rules", "svc.m", Certainty::kWeak);
  sift.witness.reason = "death-recipient";
  sift.witness.steps.push_back({analysis::taint::StepKind::kIpcEntry, "svc.m"});
  fuser.Add(sift);
  const std::vector<detect::RankedFinding> upgraded = fuser.Ranked();
  ASSERT_EQ(upgraded.size(), 1u);
  EXPECT_EQ(upgraded[0].evidence_modalities(), 2);
  EXPECT_EQ(upgraded[0].certainty, Certainty::kStrong);
}

TEST(DetectionFuserTest, NeverDowngradesAndRankIsAddOrderIndependent) {
  Detection confirmed =
      MakeDetection("fuzz.exhaustion-oracle", "x.a", Certainty::kConfirmed);
  confirmed.reproducer.calls.push_back(fuzz::IpcCall{});
  Detection weak = MakeDetection("followup.slow-drip", "x.a", Certainty::kWeak);
  Detection other = MakeDetection("static.sift-rules", "x.b", Certainty::kWeak);

  detect::DetectionFuser forward;
  forward.Add(confirmed);
  forward.Add(weak);
  forward.Add(other);
  detect::DetectionFuser backward;
  backward.Add(other);
  backward.Add(weak);
  backward.Add(confirmed);

  const auto a = forward.Ranked();
  const auto b = backward.Ranked();
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  // A weak corroboration with no new modality never lowers the group.
  EXPECT_EQ(a[0].key, "x.a");
  EXPECT_EQ(a[0].certainty, Certainty::kConfirmed);
  EXPECT_EQ(a[1].key, "x.b");
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].certainty, b[i].certainty);
    EXPECT_EQ(a[i].ToJson().Dump(), b[i].ToJson().Dump());
  }
}

// --- Sift hunt over the derived census ---------------------------------------

class DetectGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new core::AndroidSystem();
    system_->Boot();
    model_ = new model::CodeModel(model::BuildAospModel(*system_));
    report_ = new analysis::AnalysisReport(analysis::RunAnalysis(*model_));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete model_;
    delete system_;
    report_ = nullptr;
    model_ = nullptr;
    system_ = nullptr;
  }

  static core::AndroidSystem* system_;
  static model::CodeModel* model_;
  static analysis::AnalysisReport* report_;
};

core::AndroidSystem* DetectGoldenTest::system_ = nullptr;
model::CodeModel* DetectGoldenTest::model_ = nullptr;
analysis::AnalysisReport* DetectGoldenTest::report_ = nullptr;

TEST_F(DetectGoldenTest, SiftRuleHuntEmitsExactlyTheCensusCandidates) {
  detect::DataSources sources;
  sources.analysis = report_;
  const detect::HuntRegistry registry = detect::HuntRegistry::WithDefaultHunts();
  const std::vector<Detection> detections =
      registry.RunAll(sources, detect::Scope{});

  std::vector<std::string> hunted;
  for (const Detection& d : detections) {
    EXPECT_EQ(d.hunt, "static.sift-rules");
    EXPECT_TRUE(d.has_witness()) << d.interface_id;
    EXPECT_EQ(d.certainty, Certainty::kStrong) << d.interface_id;
    hunted.push_back(d.interface_id);
  }
  std::vector<std::string> census;
  for (const std::size_t i : report_->Candidates()) {
    census.push_back(report_->interfaces[i].id);
  }
  // 57 system-side + the display/input natives + 3 prebuilt-app interfaces
  // (the count analysis_pipeline_test pins), accused in report order.
  EXPECT_EQ(census.size(), 60u);
  EXPECT_EQ(hunted, census);
}

TEST_F(DetectGoldenTest, ScopeRestrictsTheHuntToNamedServices) {
  detect::DataSources sources;
  sources.analysis = report_;
  detect::Scope scope;
  scope.services = {"notification"};
  const detect::SiftRuleHunt hunt;
  const std::vector<Detection> detections = hunt.Run(sources, scope);
  EXPECT_FALSE(detections.empty());
  for (const Detection& d : detections) EXPECT_EQ(d.service, "notification");
}

TEST_F(DetectGoldenTest, DefaultCatalogResolvesCensusInterfaces) {
  const detect::InterfaceCatalog catalog = detect::BuildDefaultCatalog(report_);
  // Every registry vulnerability resolves, and resolution lands on the same
  // id the analysis census uses (the fusion precondition).
  const detect::CatalogEntry* toast =
      catalog.Resolve("android.app.INotificationManager", 1);
  ASSERT_NE(toast, nullptr);
  EXPECT_EQ(toast->service, "notification");
  bool in_census = false;
  for (const analysis::AnalyzedInterface& iface : report_->interfaces) {
    if (iface.id == toast->interface_id) in_census = true;
  }
  EXPECT_TRUE(in_census);
  EXPECT_EQ(catalog.Resolve("no.such.Descriptor", 1), nullptr);
}

// --- Oracle hunt -------------------------------------------------------------

// A campaign creates a finding only after the oracle's confirm stage passed,
// so the hunt accuses every finding kConfirmed, says which signal confirmed
// it, and hands on the minimized witness as the reproducer.
TEST(ExhaustionOracleHuntTest, AccusesEveryFindingAsConfirmed) {
  std::vector<fuzz::Finding> findings;
  fuzz::Finding jgr;
  jgr.id = "svc.jgr";
  jgr.service = "svc";
  jgr.method = "jgr";
  jgr.kind = fuzz::ExhaustionKind::kJgr;
  jgr.growth_per_call = 1.0;
  jgr.minimized_calls = 3;
  jgr.witness.service = "svc";
  findings.push_back(jgr);

  fuzz::Finding fd = jgr;
  fd.id = "svc.fd";
  fd.method = "fd";
  fd.kind = fuzz::ExhaustionKind::kFd;
  fd.minimized_calls = 0;  // never minimized: one call still reproduces
  findings.push_back(fd);

  fuzz::Finding aborted = jgr;
  aborted.id = "svc.aborted";
  aborted.method = "aborted";
  aborted.kind = fuzz::ExhaustionKind::kAbort;
  aborted.growth_per_call = 0.0;
  findings.push_back(aborted);

  detect::DataSources sources;
  sources.fuzz_findings = &findings;
  const detect::ExhaustionOracleHunt hunt;
  const std::vector<Detection> detections =
      hunt.Run(sources, detect::Scope{});

  ASSERT_EQ(detections.size(), findings.size());
  std::map<std::string, const Detection*> by_id;
  for (const Detection& d : detections) {
    EXPECT_EQ(d.hunt, "fuzz.exhaustion-oracle");
    EXPECT_EQ(d.certainty, Certainty::kConfirmed) << d.interface_id;
    EXPECT_TRUE(d.has_reproducer()) << d.interface_id;
    for (const fuzz::IpcCall& call : d.reproducer.calls) {
      EXPECT_EQ(call.service, "svc");
    }
    by_id[d.interface_id] = &d;
  }
  EXPECT_EQ(by_id.at("svc.jgr")->note, "jgr_exhaustion at the confirm bar");
  EXPECT_EQ(by_id.at("svc.jgr")->reproducer.calls.size(), 3u);
  EXPECT_DOUBLE_EQ(by_id.at("svc.jgr")->growth_per_call, 1.0);
  EXPECT_EQ(by_id.at("svc.fd")->note, "fd_exhaustion at the confirm bar");
  EXPECT_EQ(by_id.at("svc.fd")->reproducer.calls.size(), 1u);
  EXPECT_EQ(by_id.at("svc.aborted")->note,
            "victim aborted during the confirmation probe");

  detect::Scope other;
  other.services = {"other"};
  EXPECT_TRUE(hunt.Run(sources, other).empty());
}

// --- Follow-up hunts on synthetic traces -------------------------------------

obs::TraceEvent JgrEvent(TimeUs ts, std::int32_t pid, bool add,
                         std::uint64_t count_after) {
  obs::TraceEvent e;
  e.ts_us = ts;
  e.pid = pid;
  e.category = obs::Category::kJgr;
  e.name = obs::LabelIdOf(add ? obs::Label::kJgrAdd : obs::Label::kJgrRemove);
  e.arg0 = static_cast<std::int64_t>(count_after);
  return e;
}

obs::TraceEvent IpcEvent(TimeUs ts, std::int32_t caller_pid,
                         std::int32_t caller_uid, std::int32_t victim_pid,
                         std::uint64_t type_key) {
  obs::TraceEvent e;
  e.ts_us = ts;
  e.pid = caller_pid;
  e.uid = caller_uid;
  e.category = obs::Category::kIpc;
  e.arg0 = victim_pid;
  e.arg1 = static_cast<std::int64_t>(type_key);
  return e;
}

constexpr std::int32_t kVictimPid = 100;
constexpr std::int32_t kAppPid = 200;
constexpr std::int32_t kAppUid = 10'050;

TEST(SlowDripHuntTest, FiresOnSustainedSubThresholdGrowth) {
  // 400 retained adds over 2 s (200/s), peaking at 1400 — far under the
  // default 4000 alarm threshold.
  std::vector<obs::TraceEvent> events;
  std::uint64_t count = 1'000;
  for (int i = 0; i < 400; ++i) {
    events.push_back(
        JgrEvent(static_cast<TimeUs>(i) * 5'000, kVictimPid, true, ++count));
  }
  detect::DataSources sources;
  sources.trace_events = events.data();
  sources.trace_event_count = events.size();
  sources.victim_pid = kVictimPid;
  sources.victim_name = "system_server";

  const detect::SlowDripHunt hunt;
  const std::vector<Detection> detections =
      hunt.Run(sources, detect::Scope{});
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].certainty, Certainty::kWeak);
  EXPECT_TRUE(detections[0].has_trace());
  EXPECT_LE(detections[0].trace.size(), 64u);
}

TEST(SlowDripHuntTest, IgnoresFloodsBalancedChurnAndShortWindows) {
  const detect::SlowDripHunt hunt;
  // Flood: same growth packed into 200 ms — rate over the drip ceiling.
  {
    std::vector<obs::TraceEvent> events;
    std::uint64_t count = 1'000;
    for (int i = 0; i < 400; ++i) {
      events.push_back(
          JgrEvent(static_cast<TimeUs>(i) * 500, kVictimPid, true, ++count));
    }
    detect::DataSources sources;
    sources.trace_events = events.data();
    sources.trace_event_count = events.size();
    sources.victim_pid = kVictimPid;
    EXPECT_TRUE(hunt.Run(sources, detect::Scope{}).empty());
  }
  // Balanced churn: adds and removes cancel, net under the floor.
  {
    std::vector<obs::TraceEvent> events;
    for (int i = 0; i < 400; ++i) {
      const TimeUs ts = static_cast<TimeUs>(i) * 10'000;
      events.push_back(JgrEvent(ts, kVictimPid, true, 1'001));
      events.push_back(JgrEvent(ts + 1, kVictimPid, false, 1'000));
    }
    detect::DataSources sources;
    sources.trace_events = events.data();
    sources.trace_event_count = events.size();
    sources.victim_pid = kVictimPid;
    EXPECT_TRUE(hunt.Run(sources, detect::Scope{}).empty());
  }
}

TEST(DeathChurnHuntTest, FiresOnBalancedConcentratedChurn) {
  // 600 add/remove pairs, net ~0, all driven by one app uid hammering one
  // (descriptor, code) type key.
  std::vector<obs::TraceEvent> events;
  constexpr std::uint64_t kTypeKey = (7ull << 32) | 3ull;
  for (int i = 0; i < 600; ++i) {
    const TimeUs ts = static_cast<TimeUs>(i) * 2'000;
    events.push_back(IpcEvent(ts, kAppPid, kAppUid, kVictimPid, kTypeKey));
    events.push_back(JgrEvent(ts + 1, kVictimPid, true, 1'001));
    events.push_back(JgrEvent(ts + 2, kVictimPid, false, 1'000));
  }
  detect::DataSources sources;
  sources.trace_events = events.data();
  sources.trace_event_count = events.size();
  sources.victim_pid = kVictimPid;

  const detect::DeathRecipientChurnHunt hunt;
  const std::vector<Detection> detections =
      hunt.Run(sources, detect::Scope{});
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].certainty, Certainty::kWeak);  // no static corroboration
  EXPECT_TRUE(detections[0].has_trace());
  // Without a catalog the accusation keys on the raw descriptor id + code.
  EXPECT_EQ(detections[0].method, "code3");

  // Diffuse churn — the same balance spread over eight uids — stays silent.
  std::vector<obs::TraceEvent> diffuse;
  for (int i = 0; i < 600; ++i) {
    const TimeUs ts = static_cast<TimeUs>(i) * 2'000;
    diffuse.push_back(IpcEvent(ts, kAppPid + i % 8, kAppUid + i % 8,
                               kVictimPid, kTypeKey + (i % 8)));
    diffuse.push_back(JgrEvent(ts + 1, kVictimPid, true, 1'001));
    diffuse.push_back(JgrEvent(ts + 2, kVictimPid, false, 1'000));
  }
  sources.trace_events = diffuse.data();
  sources.trace_event_count = diffuse.size();
  EXPECT_TRUE(hunt.Run(sources, detect::Scope{}).empty());
}

// --- Fleet integration -------------------------------------------------------

// A flood of kChurnVulnId that paces itself so the 2s periodic GC keeps the
// table oscillating instead of monotonically climbing.
attack::AttackPlan ChurnPlan() {
  attack::AttackPlan churn = fleet::DefaultScenarios()[1];
  churn.vuln_id = attack::kChurnVulnId;
  churn.think_time_us = 4'000;
  return churn;
}

fleet::FleetMatrix HuntMatrix() {
  fleet::FleetMatrix matrix;
  matrix.warmup_apps = 2;
  matrix.warmup_foreground_us = 500'000;
  matrix.jgr_caps = {12'800};
  // The flood device exists for the alarm hunt (defense on), the drip and
  // churn devices for the follow-up hunts.
  const attack::AttackPlan flood = fleet::DefaultScenarios()[1];  // toast
  attack::AttackPlan drip = flood;
  drip.think_time_us = 40'000;
  matrix.scenarios = {flood, drip, ChurnPlan()};
  // Alarm above the churn oscillation peak (~2.2k) but low enough that the
  // flood's retained climb (~1.8 refs/call at ~6ms/call) crosses it with
  // time left to fill the report tape: floods alarm, churn and drip do not.
  matrix.defense = {{"none"}, {"defender", true, 3'200, 400}};
  matrix.benign_apps = {1};
  matrix.max_attacker_calls = 4'000;
  matrix.horizon_us = 10'000'000;
  return matrix;
}

TEST(DetectFleetTest, FleetDevicesRunTheHuntBatteryAndReportHits) {
  fleet::FleetOptions options;
  options.jobs = 2;
  fleet::FleetRunner runner(fleet::ExpandMatrix(HuntMatrix()), options);
  const fleet::FleetResult result = runner.Run();
  ASSERT_EQ(result.outcomes.size(), 6u);

  std::map<std::string, std::uint64_t> hits_by_class_hunt;
  for (const fleet::DeviceOutcome& outcome : result.outcomes) {
    for (const auto& [hunt, hits] : outcome.hunt_hits) {
      hits_by_class_hunt[outcome.scenario_class + "/" + hunt] += hits;
    }
    // Every detection a device reports carries observed-trace provenance.
    for (const detect::Detection& d : outcome.detections) {
      EXPECT_TRUE(d.has_trace()) << d.hunt << " on device " << outcome.index;
      EXPECT_FALSE(d.note.empty());
    }
  }
  // The two follow-up hunts each catch their evasion profile, and the alarm
  // hunt ports the defender's incident.
  EXPECT_GE(hits_by_class_hunt["churn/followup.death-churn"], 1u);
  EXPECT_GE(hits_by_class_hunt["drip/followup.slow-drip"], 1u);
  EXPECT_GE(hits_by_class_hunt["flood/defense.alarm-report"], 1u);
  // The flood devices never read as a drip, and the churn devices never
  // alarm (that is the point of the evasion profiles).
  EXPECT_EQ(hits_by_class_hunt["flood/followup.slow-drip"], 0u);
  EXPECT_EQ(hits_by_class_hunt["churn/defense.alarm-report"], 0u);

  // The census JSON carries the per-hunt counters.
  const std::string census = result.aggregator.ToJson().Dump();
  EXPECT_NE(census.find("hunt_hits"), std::string::npos);
  EXPECT_NE(census.find("followup.death-churn"), std::string::npos);
  // Absolute pin over drip think time, churn and the hunt pass.
  snapshot::Serializer pinned;
  pinned.Str(census);
  EXPECT_EQ(pinned.Hash(), 0xb305e2db644b3d83ULL);
}

TEST(DetectFleetTest, CatalogResolvesFleetDetectionsToCensusIdentity) {
  // With a catalog wired in, a churn device's accusation lands on the same
  // "<service>.<method>" identity the static hunts use — the fusion join.
  const detect::InterfaceCatalog catalog = detect::BuildDefaultCatalog();
  fleet::FleetMatrix matrix = HuntMatrix();
  matrix.scenarios = {ChurnPlan()};
  matrix.defense = {{"none"}};
  fleet::FleetOptions options;
  options.jobs = 1;
  options.catalog = &catalog;
  fleet::FleetRunner runner(fleet::ExpandMatrix(matrix), options);
  const fleet::FleetResult result = runner.Run();
  ASSERT_EQ(result.outcomes.size(), 1u);

  bool churn_named = false;
  for (const detect::Detection& d : result.outcomes[0].detections) {
    if (d.hunt != "followup.death-churn") continue;
    churn_named = true;
    EXPECT_EQ(d.service, "account");
    EXPECT_EQ(d.method, "setCallback");
    EXPECT_EQ(d.FusionKey(), "account.setCallback");
  }
  EXPECT_TRUE(churn_named);
}

}  // namespace
}  // namespace jgre
