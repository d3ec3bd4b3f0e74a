// Taint-engine tests: interprocedural retention (annotated on a helper
// instead of the IPC entry), fixpoint termination over recursive helpers,
// the rule-4 member-slot cap, witness-path integrity, and the census gate —
// the analysis must reproduce, verdict for verdict, the entry-local
// detector's frozen verdicts on the AOSP corpus (tests/data/
// legacy_verdicts.tsv).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analysis/pipeline.h"
#include "analysis/taint/engine.h"
#include "core/android_system.h"
#include "model/corpus.h"

namespace jgre {
namespace {

constexpr char kSvc[] = "testsvc";

// One exploitable JNI entry whose native side reaches the JGR sink.
void AddJgrEntry(model::CodeModel* m, const std::string& java_method,
                 const std::string& native_method) {
  model::NativeMethodModel native;
  native.name = native_method;
  native.is_jni_entry = true;
  native.callees.push_back(std::string(model::kJgrSinkFunction));
  m->native_methods[native_method] = native;
  m->jni_registrations.push_back({java_method, native_method});
}

// A minimal one-service model: the onTransact strong-binder receive is the
// JGR entry behind every takes_binder verdict.
model::CodeModel NewServiceModel() {
  model::CodeModel m;
  m.registrations.push_back(
      {kSvc, "com.test.Svc",
       model::ServiceRegistration::Registrar::kAddService});
  model::NativeMethodModel sink;
  sink.name = std::string(model::kJgrSinkFunction);
  m.native_methods[sink.name] = sink;
  AddJgrEntry(&m, std::string(model::kReadStrongBinderEntry),
              "android_os_Parcel_readStrongBinder");
  return m;
}

model::JavaMethodModel& AddIpcMethod(model::CodeModel* m,
                                     const std::string& id,
                                     const std::string& name,
                                     std::uint32_t code) {
  model::JavaMethodModel method;
  method.id = id;
  method.clazz = "com.test.Svc";
  method.name = name;
  method.service = kSvc;
  method.transaction_code = code;
  method.overrides_aidl = true;
  method.args = {services::ArgKind::kBinder};
  return m->java_methods.emplace(id, std::move(method)).first->second;
}

model::JavaMethodModel& AddHelper(model::CodeModel* m, const std::string& id) {
  model::JavaMethodModel method;
  method.id = id;
  method.clazz = "com.test.Helper";
  method.name = id;
  return m->java_methods.emplace(id, std::move(method)).first->second;
}

const analysis::AnalyzedInterface* Find(const analysis::AnalysisReport& report,
                                        const std::string& id) {
  for (const analysis::AnalyzedInterface& iface : report.interfaces) {
    if (iface.id == id) return &iface;
  }
  return nullptr;
}

// The multi-hop case: the entry's own body only hands the binder off
// (annotated transient), but the helper it calls retains it in a
// collection. The engine must surface the helper's retention at the entry
// and keep it a candidate.
TEST(TaintEngineTest, HelperRetentionSurfacesAtTheTransientEntry) {
  model::CodeModel m = NewServiceModel();
  auto& entry = AddIpcMethod(&m, "com.test.Svc.register", "register", 1);
  entry.facts = {model::BodyFact::kUsesParamTransiently};
  entry.callees = {"com.test.Helper.retain"};
  auto& helper = AddHelper(&m, "com.test.Helper.retain");
  helper.facts = {model::BodyFact::kStoresParamInCollection};

  const analysis::AnalysisReport engine = analysis::RunAnalysis(m);
  const analysis::AnalyzedInterface* iface = Find(engine, entry.id);
  ASSERT_NE(iface, nullptr);
  EXPECT_EQ(iface->retention, analysis::taint::Retention::kCollection);
  EXPECT_EQ(iface->retention_via, "com.test.Helper.retain");
  EXPECT_FALSE(iface->sifted_out());
  ASSERT_EQ(engine.Candidates().size(), 1u);
}

TEST(TaintEngineTest, ReadOnlyKeyLookupBehindOneHopIsSifted) {
  model::CodeModel m = NewServiceModel();
  auto& entry = AddIpcMethod(&m, "com.test.Svc.isRegistered", "isRegistered", 1);
  entry.callees = {"com.test.Helper.lookup"};  // no facts of its own
  auto& helper = AddHelper(&m, "com.test.Helper.lookup");
  helper.facts = {model::BodyFact::kUsesParamAsReadOnlyKey};

  const analysis::AnalysisReport engine = analysis::RunAnalysis(m);
  const analysis::AnalyzedInterface* iface = Find(engine, entry.id);
  ASSERT_NE(iface, nullptr);
  EXPECT_EQ(iface->retention, analysis::taint::Retention::kReadOnlyKey);
  EXPECT_TRUE(iface->sifted_out());
  EXPECT_EQ(iface->sift_reason, analysis::SiftReason::kRule3ReadOnlyKey);
  EXPECT_EQ(iface->sift_reason_text(),
            "rule 3: binder only used as a read-only key into Map/Set/"
            "RemoteCallbackList (via com.test.Helper.lookup)");
}

TEST(TaintEngineTest, MutuallyRecursiveHelpersReachAFixpoint) {
  model::CodeModel m = NewServiceModel();
  auto& entry = AddIpcMethod(&m, "com.test.Svc.enqueue", "enqueue", 1);
  entry.callees = {"com.test.Helper.a"};
  auto& a = AddHelper(&m, "com.test.Helper.a");
  a.callees = {"com.test.Helper.b"};
  auto& b = AddHelper(&m, "com.test.Helper.b");
  b.callees = {"com.test.Helper.a"};  // a <-> b cycle
  b.facts = {model::BodyFact::kStoresParamInCollection};

  const analysis::AnalysisReport engine = analysis::RunAnalysis(m);
  const analysis::AnalyzedInterface* iface = Find(engine, entry.id);
  ASSERT_NE(iface, nullptr);
  // The retention annotated inside the cycle propagates out to the entry.
  EXPECT_EQ(iface->retention, analysis::taint::Retention::kCollection);
  EXPECT_FALSE(iface->sifted_out());
  EXPECT_GE(engine.engine_stats.nontrivial_sccs, 1);
  // Fixpoint took at least one extra pass over the cyclic component, and
  // terminated (we got here).
  EXPECT_GT(engine.engine_stats.fixpoint_iterations,
            engine.engine_stats.java_methods);
}

// Tarjan edge case: the exploitable native method recurses into itself on
// the far side of the JNI bridge. The summary fixpoint condenses the Java
// self-loop into one component and the native witness BFS terminates on the
// native self-loop — both without oscillating.
TEST(TaintEngineTest, SelfRecursiveNativeMethodAcrossJniBridgeConverges) {
  model::CodeModel m = NewServiceModel();
  auto& entry = AddIpcMethod(&m, "com.test.Svc.spin", "spin", 1);
  entry.args = {services::ArgKind::kInt32};  // no binder: witness via JNI
  entry.facts = {model::BodyFact::kStoresParamInCollection};
  entry.callees = {entry.id};  // Java-side self-recursion

  model::NativeMethodModel native;
  native.name = "com_test_Svc_nativeSpin";
  native.is_jni_entry = true;
  native.callees = {"com_test_Svc_nativeSpin",  // native-side self-recursion
                    std::string(model::kJgrSinkFunction)};
  m.native_methods[native.name] = native;
  m.jni_registrations.push_back({entry.id, native.name});

  analysis::taint::TaintEngine engine(&m, {entry.id});
  engine.Run();
  const analysis::taint::MethodSummary* summary = engine.SummaryOf(entry.id);
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->retention, analysis::taint::Retention::kCollection);
  EXPECT_EQ(summary->jgr_entries, std::set<std::string>{entry.id});
  // The self-loop is a nontrivial component; convergence took the one change
  // pass plus the check pass — no oscillation.
  EXPECT_GE(engine.stats().nontrivial_sccs, 1);
  EXPECT_LE(engine.stats().fixpoint_iterations, 4 * engine.stats().java_methods);

  const analysis::taint::WitnessPath witness =
      engine.WitnessFor(entry.id, /*takes_binder=*/false);
  ASSERT_FALSE(witness.empty());
  EXPECT_EQ(witness.reason, "jgr-entry");
  EXPECT_EQ(witness.steps.front().frame, entry.id);
  EXPECT_EQ(witness.steps[1].kind, analysis::taint::StepKind::kJniBridge);
  EXPECT_EQ(witness.steps[1].frame, native.name);
  EXPECT_EQ(witness.sink(), std::string(model::kJgrSinkFunction));
}

// Tarjan edge case: a two-node mutual-recursion cycle that spans the JNI
// bridge — Java entry A and helper B call each other, B drops into a native
// pair that also recurses mutually before reaching the sink. One condensed
// component per side; retention and reachability propagate around the Java
// cycle and the witness stitches through the native cycle.
TEST(TaintEngineTest, TwoNodeJavaNativeMutualRecursionCondensesAndConverges) {
  model::CodeModel m = NewServiceModel();
  auto& entry = AddIpcMethod(&m, "com.test.Svc.ping", "ping", 1);
  entry.args = {services::ArgKind::kInt32};
  entry.callees = {"com.test.Helper.pong"};
  auto& helper = AddHelper(&m, "com.test.Helper.pong");
  helper.callees = {entry.id};  // ping <-> pong
  helper.facts = {model::BodyFact::kStoresParamInCollection};

  model::NativeMethodModel na;
  na.name = "com_test_nativePing";
  na.is_jni_entry = true;
  na.callees = {"com_test_nativePong"};
  model::NativeMethodModel nb;
  nb.name = "com_test_nativePong";
  nb.callees = {"com_test_nativePing",  // native mutual recursion
                std::string(model::kJgrSinkFunction)};
  m.native_methods[na.name] = na;
  m.native_methods[nb.name] = nb;
  m.jni_registrations.push_back({helper.id, na.name});

  analysis::taint::TaintEngine engine(&m, {helper.id});
  engine.Run();
  const analysis::taint::MethodSummary* at_entry = engine.SummaryOf(entry.id);
  const analysis::taint::MethodSummary* at_helper = engine.SummaryOf(helper.id);
  ASSERT_NE(at_entry, nullptr);
  ASSERT_NE(at_helper, nullptr);
  // The helper's retention and JGR reachability propagate around the cycle.
  EXPECT_EQ(at_entry->retention, analysis::taint::Retention::kCollection);
  EXPECT_EQ(at_entry->retention_via, helper.id);
  EXPECT_EQ(at_entry->jgr_entries, std::set<std::string>{helper.id});
  EXPECT_EQ(at_helper->jgr_entries, std::set<std::string>{helper.id});
  EXPECT_GE(engine.stats().nontrivial_sccs, 1);
  EXPECT_EQ(engine.stats().max_scc_size, 2);
  // Converged without oscillation: the lattice height bounds the passes.
  EXPECT_LE(engine.stats().fixpoint_iterations, 4 * engine.stats().java_methods);

  const analysis::taint::WitnessPath witness =
      engine.WitnessFor(entry.id, /*takes_binder=*/false);
  ASSERT_FALSE(witness.empty());
  EXPECT_EQ(witness.reason, "jgr-entry");
  EXPECT_EQ(witness.steps.front().frame, entry.id);
  EXPECT_EQ(witness.steps[1].frame, helper.id);
  EXPECT_EQ(witness.steps[2].kind, analysis::taint::StepKind::kJniBridge);
  EXPECT_EQ(witness.steps[2].frame, na.name);
  EXPECT_EQ(witness.sink(), std::string(model::kJgrSinkFunction));
}

TEST(TaintEngineTest, MemberSlotCapAbsorbsCalleeRetention) {
  model::CodeModel m = NewServiceModel();
  // The replace-single pattern: the entry's net discipline is one slot,
  // implemented by calling a register helper that stores into a collection.
  auto& entry = AddIpcMethod(&m, "com.test.Svc.setCallback", "setCallback", 1);
  entry.facts = {model::BodyFact::kStoresParamInMemberSlot};
  entry.callees = {"com.test.Helper.register"};
  auto& helper = AddHelper(&m, "com.test.Helper.register");
  helper.facts = {model::BodyFact::kStoresParamInCollection};

  const analysis::AnalysisReport engine = analysis::RunAnalysis(m);
  const analysis::AnalyzedInterface* iface = Find(engine, entry.id);
  ASSERT_NE(iface, nullptr);
  EXPECT_EQ(iface->retention, analysis::taint::Retention::kMemberSlot);
  EXPECT_TRUE(iface->sifted_out());
  // The cap keeps the local verdict: no provenance suffix.
  EXPECT_EQ(iface->sift_reason, analysis::SiftReason::kRule4MemberSlot);
  EXPECT_EQ(iface->sift_reason_text(),
            "rule 4: member variable, previous binder revoked on the next "
            "call");

  analysis::taint::TaintEngine raw(&m, {});
  raw.Run();
  const analysis::taint::MethodSummary* summary = raw.SummaryOf(entry.id);
  ASSERT_NE(summary, nullptr);
  EXPECT_TRUE(summary->retention_capped);
  EXPECT_TRUE(summary->retention_via.empty());
}

TEST(TaintEngineTest, WitnessPathsOnSyntheticModelEndAtTheSink) {
  model::CodeModel m = NewServiceModel();
  auto& entry = AddIpcMethod(&m, "com.test.Svc.register", "register", 1);
  entry.facts = {model::BodyFact::kStoresParamInCollection};

  const analysis::AnalysisReport engine = analysis::RunAnalysis(m);
  const analysis::AnalyzedInterface* iface = Find(engine, entry.id);
  ASSERT_NE(iface, nullptr);
  ASSERT_FALSE(iface->witness.empty());
  EXPECT_EQ(iface->witness.reason, "binder-receive");
  EXPECT_EQ(iface->witness.steps.front().kind,
            analysis::taint::StepKind::kIpcEntry);
  EXPECT_EQ(iface->witness.steps.front().frame, entry.id);
  // The strong-binder receive happens in the onTransact stub, not in the
  // method's call graph — the witness records it as a synthetic stub step.
  EXPECT_EQ(iface->witness.steps[1].kind,
            analysis::taint::StepKind::kStubReceive);
  EXPECT_EQ(iface->witness.steps[1].frame,
            std::string(model::kReadStrongBinderEntry));
  EXPECT_EQ(iface->witness.steps.back().kind, analysis::taint::StepKind::kSink);
  EXPECT_EQ(iface->witness.sink(), std::string(model::kJgrSinkFunction));
}

// Regression for the pointer-invalidation hazard: Candidates() used to hand
// out raw pointers into `interfaces`, which dangled the moment the report was
// copied or taken from a temporary. Indices survive both.
TEST(TaintEngineTest, CandidateIndicesSurviveReportCopiesAndTemporaries) {
  model::CodeModel m = NewServiceModel();
  auto& entry = AddIpcMethod(&m, "com.test.Svc.register", "register", 1);
  entry.facts = {model::BodyFact::kStoresParamInCollection};
  AddIpcMethod(&m, "com.test.Svc.ping", "ping", 2).args = {
      services::ArgKind::kInt32};  // not risky

  // Taken from a temporary — with pointers this was already dangling.
  const std::vector<std::size_t> indices = analysis::RunAnalysis(m).Candidates();
  ASSERT_EQ(indices.size(), 1u);

  const analysis::AnalysisReport report = analysis::RunAnalysis(m);
  const analysis::AnalysisReport copy = report;  // reallocates `interfaces`
  for (const std::size_t index : indices) {
    ASSERT_LT(index, copy.interfaces.size());
    EXPECT_EQ(copy.interfaces[index].id, "com.test.Svc.register");
    EXPECT_EQ(report.interfaces[index].id, copy.interfaces[index].id);
  }
  EXPECT_EQ(report.Candidates(), copy.Candidates());
}

// --- census gate --------------------------------------------------------------

// One row of tests/data/legacy_verdicts.tsv: the entry-local detector's
// verdict on one AOSP interface, frozen before that detector was deleted.
struct GoldenVerdict {
  std::string id;
  bool risky = false;
  bool reaches_jgr_entry = false;
  bool takes_binder = false;
  bool sifted_out = false;
  std::string sift_reason;  // SiftReasonName
  std::string sift_reason_text;
  std::string protection;  // ProtectionClassName
  bool constraint_trusts_caller = false;

  bool candidate() const { return risky && !sifted_out; }
};

// Reads the golden file in row order; '#' lines and the header are skipped.
// A malformed row fails the calling test and is dropped.
std::vector<GoldenVerdict> LoadGoldenVerdicts(const std::string& path) {
  std::vector<GoldenVerdict> out;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    if (header) {
      header = false;
      continue;
    }
    std::vector<std::string> cols;
    std::istringstream fields(line);
    for (std::string col; std::getline(fields, col, '\t');) {
      cols.push_back(col);
    }
    if (cols.size() != 9) {
      ADD_FAILURE() << "malformed golden row: " << line;
      continue;
    }
    const auto flag = [](const std::string& col) { return col == "1"; };
    GoldenVerdict row;
    row.id = cols[0];
    row.risky = flag(cols[1]);
    row.reaches_jgr_entry = flag(cols[2]);
    row.takes_binder = flag(cols[3]);
    row.sifted_out = flag(cols[4]);
    row.sift_reason = cols[5];
    row.sift_reason_text = cols[6];
    row.protection = cols[7];
    row.constraint_trusts_caller = flag(cols[8]);
    out.push_back(std::move(row));
  }
  return out;
}

class CensusGateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new core::AndroidSystem();
    system_->Boot();
    model_ = new model::CodeModel(model::BuildAospModel(*system_));
    engine_ = new analysis::AnalysisReport(analysis::RunAnalysis(*model_));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete model_;
    delete system_;
    engine_ = nullptr;
    model_ = nullptr;
    system_ = nullptr;
  }

  static core::AndroidSystem* system_;
  static model::CodeModel* model_;
  static analysis::AnalysisReport* engine_;
};

core::AndroidSystem* CensusGateTest::system_ = nullptr;
model::CodeModel* CensusGateTest::model_ = nullptr;
analysis::AnalysisReport* CensusGateTest::engine_ = nullptr;

// Zero divergence: the analysis must reproduce the entry-local detector's
// frozen verdict on every interface of the AOSP corpus — same risky flag,
// same sift decision with the byte-identical reason text, same protection
// class, same report position and membership in Candidates(). Every failure
// names the interface it is about.
TEST_F(CensusGateTest, EngineMatchesTheLegacyDetectorVerdictForVerdict) {
  const std::vector<GoldenVerdict> golden =
      LoadGoldenVerdicts(JGRE_LEGACY_VERDICTS_TSV);
  ASSERT_EQ(golden.size(), 485u);
  EXPECT_EQ(engine_->interfaces.size(), golden.size());

  std::map<std::string, std::size_t> engine_index;
  for (std::size_t i = 0; i < engine_->interfaces.size(); ++i) {
    engine_index[engine_->interfaces[i].id] = i;
  }
  const std::vector<std::size_t> candidates = engine_->Candidates();
  const std::set<std::size_t> candidate_set(candidates.begin(),
                                            candidates.end());
  int golden_candidates = 0;
  for (std::size_t row = 0; row < golden.size(); ++row) {
    const GoldenVerdict& g = golden[row];
    golden_candidates += g.candidate() ? 1 : 0;
    const auto it = engine_index.find(g.id);
    if (it == engine_index.end()) {
      ADD_FAILURE() << g.id << ": in the golden file, not in the analysis";
      continue;
    }
    EXPECT_EQ(it->second, row) << g.id << ": report position";
    EXPECT_EQ(candidate_set.count(it->second) > 0, g.candidate())
        << g.id << ": in Candidates()";
    const analysis::AnalyzedInterface& e = engine_->interfaces[it->second];
    engine_index.erase(it);
    EXPECT_EQ(e.risky, g.risky) << g.id;
    EXPECT_EQ(e.reaches_jgr_entry, g.reaches_jgr_entry) << g.id;
    EXPECT_EQ(e.takes_binder, g.takes_binder) << g.id;
    EXPECT_EQ(e.sifted_out(), g.sifted_out) << g.id;
    EXPECT_EQ(analysis::SiftReasonName(e.sift_reason), g.sift_reason) << g.id;
    EXPECT_EQ(e.sift_reason_text(), g.sift_reason_text) << g.id;
    EXPECT_EQ(analysis::ProtectionClassName(e.protection), g.protection)
        << g.id;
    EXPECT_EQ(e.constraint_trusts_caller, g.constraint_trusts_caller) << g.id;
  }
  for (const auto& [id, index] : engine_index) {
    ADD_FAILURE() << id << ": in the analysis, not in the golden file";
  }
  EXPECT_EQ(golden_candidates, 60);
  EXPECT_EQ(candidates.size(), 60u);
}

// On the AOSP corpus every sift fact sits on the entry itself, so no engine
// reason may carry interprocedural provenance — that would be a divergence
// the byte-identity check above can't miss, but say it explicitly.
TEST_F(CensusGateTest, NoProvenanceSuffixOnTheAospCorpus) {
  for (const analysis::AnalyzedInterface& iface : engine_->interfaces) {
    EXPECT_EQ(iface.sift_reason_text().find(" (via "), std::string::npos)
        << iface.id;
  }
}

TEST_F(CensusGateTest, PaperCensusSplitsFiftyFourPlusThree) {
  int system_exploitable = 0;
  int app_exploitable = 0;
  int correctly_constrained = 0;
  for (const std::size_t index : engine_->Candidates()) {
    const analysis::AnalyzedInterface& iface = engine_->interfaces[index];
    const bool bounded =
        iface.protection == analysis::ProtectionClass::kServerConstraint &&
        !iface.constraint_trusts_caller;
    if (bounded) {
      ++correctly_constrained;
    } else if (iface.app_hosted) {
      ++app_exploitable;
    } else {
      ++system_exploitable;
    }
  }
  EXPECT_EQ(system_exploitable, 54);  // §IV.A
  EXPECT_EQ(app_exploitable, 3);      // Table IV
  EXPECT_EQ(correctly_constrained, 3);
}

TEST_F(CensusGateTest, EveryCandidateCarriesAWitnessEndingAtTheSink) {
  for (const std::size_t index : engine_->Candidates()) {
    const analysis::AnalyzedInterface& iface = engine_->interfaces[index];
    ASSERT_FALSE(iface.witness.empty()) << iface.id;
    EXPECT_FALSE(iface.witness.reason.empty()) << iface.id;
    EXPECT_EQ(iface.witness.steps.front().kind,
              analysis::taint::StepKind::kIpcEntry)
        << iface.id;
    EXPECT_EQ(iface.witness.steps.front().frame, iface.id);
    EXPECT_EQ(iface.witness.steps.back().kind, analysis::taint::StepKind::kSink)
        << iface.id;
    EXPECT_EQ(iface.witness.sink(), std::string(model::kJgrSinkFunction))
        << iface.id;
  }
  // Sifted interfaces carry no witness: there is no verdict to justify.
  for (const analysis::AnalyzedInterface& iface : engine_->interfaces) {
    if (iface.sifted_out()) EXPECT_TRUE(iface.witness.empty()) << iface.id;
  }
}

TEST_F(CensusGateTest, EngineStatsArePopulated) {
  EXPECT_GT(engine_->engine_stats.java_methods, 0);
  EXPECT_GT(engine_->engine_stats.call_edges, 0);
  EXPECT_GT(engine_->engine_stats.sccs, 0);
  EXPECT_GT(engine_->engine_stats.fixpoint_iterations, 0);
}

}  // namespace
}  // namespace jgre
