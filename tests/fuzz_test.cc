// Fuzzer subsystem tests: mutator determinism (same seed => byte-identical
// sequences), corpus gating and trim-based minimization against the live
// simulator, oracle verdicts on known-vulnerable and known-benign
// interfaces, the in-place reset contract, and campaign determinism across
// --jobs.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attack/vuln_registry.h"
#include "core/android_system.h"
#include "fuzz/campaign.h"
#include "fuzz/corpus.h"
#include "fuzz/executor.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "harness/branch_runner.h"
#include "model/corpus.h"
#include "services/registry_service.h"
#include "sim/device.h"
#include "snapshot/snapshot.h"

namespace jgre {
namespace {

class FuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::AndroidSystem system;
    system.Boot();
    model_ = new model::CodeModel(model::BuildAospModel(system));
    live_services_ = new std::set<std::string>();
    permissions_ = new std::set<std::string>();
    for (const auto& [id, method] : model_->java_methods) {
      if (!method.overrides_aidl || method.service.empty()) continue;
      if (!system.service_manager().HasService(method.service)) continue;
      live_services_->insert(method.service);
      if (!method.permission.empty()) permissions_->insert(method.permission);
    }
  }
  static void TearDownTestSuite() {
    delete permissions_;
    delete live_services_;
    delete model_;
  }

  static const model::JavaMethodModel* FindMethod(const std::string& service,
                                                  const std::string& name) {
    for (const auto& [id, method] : model_->java_methods) {
      if (method.service == service && method.name == name) return &method;
    }
    return nullptr;
  }

  // A benign interface: uses its parameter transiently, so GC reclaims
  // whatever the call pinned.
  static const model::JavaMethodModel* FindTransientMethod() {
    for (const auto& [id, method] : model_->java_methods) {
      if (!method.overrides_aidl || method.service.empty()) continue;
      if (live_services_->count(method.service) == 0) continue;
      if (method.HasFact(model::BodyFact::kUsesParamTransiently)) {
        return &method;
      }
    }
    return nullptr;
  }

  static fuzz::SequenceExecutor MakeExecutor() {
    fuzz::ExecOptions options;
    options.permissions = *permissions_;
    return fuzz::SequenceExecutor(model_, options);
  }

  static model::CodeModel* model_;
  static std::set<std::string>* live_services_;
  static std::set<std::string>* permissions_;
};

model::CodeModel* FuzzTest::model_ = nullptr;
std::set<std::string>* FuzzTest::live_services_ = nullptr;
std::set<std::string>* FuzzTest::permissions_ = nullptr;

TEST_F(FuzzTest, MutatorPoolIsLiveIpcOnly) {
  fuzz::Mutator mutator(model_, *live_services_);
  ASSERT_FALSE(mutator.pool().empty());
  for (const model::JavaMethodModel* method : mutator.pool()) {
    EXPECT_TRUE(method->overrides_aidl);
    EXPECT_FALSE(method->service.empty());
    EXPECT_TRUE(live_services_->count(method->service) > 0) << method->id;
  }
}

TEST_F(FuzzTest, GenerateSameSeedIsByteIdentical) {
  fuzz::Mutator mutator(model_, *live_services_);
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 20; ++i) {
    fuzz::Sequence sa = mutator.Generate(a);
    fuzz::Sequence sb = mutator.Generate(b);
    EXPECT_TRUE(sa == sb);
    EXPECT_EQ(sa.Fingerprint(), sb.Fingerprint());
  }
  // A different seed must not replay the same stream.
  Rng c(1235);
  EXPECT_NE(mutator.Generate(c).Fingerprint(), [&] {
    Rng d(1234);
    return mutator.Generate(d).Fingerprint();
  }());
}

TEST_F(FuzzTest, MutateSameSeedIsByteIdentical) {
  fuzz::Mutator mutator(model_, *live_services_);
  Rng seed_rng(99);
  const fuzz::Sequence seed = mutator.Generate(seed_rng);
  Rng a(777);
  Rng b(777);
  for (int i = 0; i < 20; ++i) {
    fuzz::Sequence sa = mutator.Mutate(seed, a);
    fuzz::Sequence sb = mutator.Mutate(seed, b);
    EXPECT_TRUE(sa == sb);
    EXPECT_EQ(sa.Fingerprint(), sb.Fingerprint());
  }
}

TEST_F(FuzzTest, CorpusKeepsOnlyNovelCoverage) {
  fuzz::Mutator mutator(model_, *live_services_);
  Rng rng(5);
  const fuzz::Sequence s1 = mutator.Generate(rng);
  const fuzz::Sequence s2 = mutator.Generate(rng);
  fuzz::Corpus corpus;
  EXPECT_TRUE(corpus.Add(s1, {10, 20}));
  EXPECT_FALSE(corpus.Add(s2, {20}));  // nothing new
  EXPECT_TRUE(corpus.Add(s2, {20, 30}));
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.element_count(), 3u);
  EXPECT_TRUE(corpus.Covers(30));
  EXPECT_FALSE(corpus.Covers(40));
}

// Minimization against the live simulator: a mixed sequence that screens
// suspicious must trim down to a shorter sequence that still screens
// suspicious — and the survivor must still contain the vulnerable call.
TEST_F(FuzzTest, MinimizedSeedStillTriggersSignature) {
  const model::JavaMethodModel* vulnerable =
      FindMethod("clipboard", "addPrimaryClipChangedListener");
  const model::JavaMethodModel* benign = FindTransientMethod();
  ASSERT_NE(vulnerable, nullptr);
  ASSERT_NE(benign, nullptr);

  fuzz::Mutator mutator(model_, *live_services_);
  Rng rng(42);
  fuzz::Sequence seq;
  for (int i = 0; i < 6; ++i) {
    seq.calls.push_back(mutator.MakeCall(*benign, rng));
    if (i % 2 == 0) {
      seq.calls.push_back(mutator.MakeCall(*vulnerable, rng));
    }
  }
  for (fuzz::ArgValue& arg : seq.calls.back().args) {
    if (arg.kind == services::ArgKind::kBinder) arg.fresh_binder = true;
  }

  const fuzz::SequenceExecutor executor = MakeExecutor();
  const fuzz::Oracle oracle;
  int executions = 0;
  const auto still_triggers = [&](const fuzz::Sequence& cand) {
    ++executions;
    core::AndroidSystem system;
    system.Boot();
    return oracle.Screen(executor.Execute(system, cand).obs).suspicious();
  };
  ASSERT_TRUE(still_triggers(seq));

  const fuzz::Sequence minimized = fuzz::Corpus::Minimize(seq, still_triggers);
  EXPECT_LT(minimized.calls.size(), seq.calls.size());
  EXPECT_GE(minimized.calls.size(), 1u);
  EXPECT_TRUE(still_triggers(minimized));
  bool has_vulnerable = false;
  for (const fuzz::IpcCall& call : minimized.calls) {
    if (call.method_id == vulnerable->id) has_vulnerable = true;
  }
  EXPECT_TRUE(has_vulnerable);
  EXPECT_GT(executions, 2);
}

TEST_F(FuzzTest, OracleConfirmsKnownVulnerableInterface) {
  const model::JavaMethodModel* vulnerable =
      FindMethod("clipboard", "addPrimaryClipChangedListener");
  ASSERT_NE(vulnerable, nullptr);
  fuzz::Mutator mutator(model_, *live_services_);
  Rng rng(7);
  fuzz::IpcCall call = mutator.MakeCall(*vulnerable, rng);
  for (fuzz::ArgValue& arg : call.args) {
    if (arg.kind == services::ArgKind::kBinder) arg.fresh_binder = true;
  }
  const fuzz::SequenceExecutor executor = MakeExecutor();
  core::AndroidSystem system;
  system.Boot();
  const fuzz::ExecOutcome outcome =
      executor.ExecuteRepeated(system, call, 400);
  const fuzz::OracleVerdict verdict = fuzz::Oracle().Confirm(outcome.obs);
  EXPECT_EQ(verdict.kind, fuzz::ExhaustionKind::kJgr);
  EXPECT_GE(verdict.jgr_growth_per_call, 0.5);
  EXPECT_FALSE(outcome.elements.empty());
}

TEST_F(FuzzTest, OracleClearsKnownBenignInterface) {
  const model::JavaMethodModel* benign = FindTransientMethod();
  ASSERT_NE(benign, nullptr);
  fuzz::Mutator mutator(model_, *live_services_);
  Rng rng(7);
  const fuzz::IpcCall call = mutator.MakeCall(*benign, rng);
  const fuzz::SequenceExecutor executor = MakeExecutor();
  core::AndroidSystem system;
  system.Boot();
  const fuzz::ExecOutcome outcome =
      executor.ExecuteRepeated(system, call, 400);
  const fuzz::OracleVerdict verdict = fuzz::Oracle().Confirm(outcome.obs);
  EXPECT_EQ(verdict.kind, fuzz::ExhaustionKind::kNone) << benign->id;
  EXPECT_LT(verdict.jgr_growth_per_call,
            model::kDefaultGrowthThresholds.bounded_jgr_per_call);
}

TEST(FuzzOracleUnitTest, ScreenAndConfirmThresholds) {
  const fuzz::Oracle oracle;
  fuzz::Observation obs;
  obs.calls = 24;
  obs.jgr_before = 100;
  obs.jgr_after = 110;  // +10 >= retained floor 8
  EXPECT_EQ(oracle.Screen(obs).kind, fuzz::ExhaustionKind::kJgr);
  // 10/24 < 0.5: the strict confirm bar is not met by the same observation.
  EXPECT_EQ(oracle.Confirm(obs).kind, fuzz::ExhaustionKind::kNone);

  obs.jgr_after = 100;
  obs.fd_before = 3;
  obs.fd_after = 30;
  EXPECT_EQ(oracle.Screen(obs).kind, fuzz::ExhaustionKind::kFd);
  EXPECT_EQ(oracle.Confirm(obs).kind, fuzz::ExhaustionKind::kFd);

  obs.fd_after = 3;
  EXPECT_EQ(oracle.Screen(obs).kind, fuzz::ExhaustionKind::kNone);
  obs.victim_aborted = true;
  EXPECT_EQ(oracle.Screen(obs).kind, fuzz::ExhaustionKind::kAbort);
  EXPECT_EQ(oracle.Confirm(obs).kind, fuzz::ExhaustionKind::kAbort);
}

// A --resume image captured under another JGR cap than the prefix boots
// with fails Prepare with a Status naming the file, and a restore from it
// names the failing shard, so a mid-campaign failure is attributable.
TEST(FuzzBranchIntegrationTest, RestoreFailureNamesShard) {
  core::SystemConfig small_table;
  small_table.system_server_max_jgr = 6'400;
  sim::DeviceSpec other;
  other.WithSeed(42).WithSystemConfig(small_table);
  auto captured = snapshot::SystemSnapshot::Capture(
      *sim::DeviceFactory(other).BootPrefix());
  ASSERT_TRUE(captured.ok());
  const std::string path = "fuzz_test_other_cap.ckpt";
  ASSERT_TRUE(captured.value().WriteFile(path).ok());

  sim::DeviceSpec prefix;
  prefix.WithSeed(42);
  harness::BranchOptions options;
  options.resume_path = path;
  harness::BranchRunner runner(prefix, options);
  const Status prepared = runner.Prepare();
  EXPECT_EQ(prepared.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(prepared.ToString().find(path), std::string::npos)
      << prepared.ToString();
  try {
    runner.AcquireSystem(prefix, 3);
    ADD_FAILURE() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("branch 3"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
  std::remove((path + snapshot::SystemSnapshot::kManifestSuffix).c_str());
}

// --- Reset in place ---------------------------------------------------------

// The campaign's reset image at test size: boot plus eight warm-up apps.
sim::DeviceSpec SmallResetPrefix() {
  sim::DeviceSpec prefix;
  prefix.WithSeed(42).WithWarmup(8, 2'000'000);
  return prefix;
}

// Capture, execute, restore in place, capture again: the restore leaves
// nothing of the executions behind that the serializer can see.
TEST_F(FuzzTest, RestoreInPlaceAfterExecutionsRecapturesTheImage) {
  harness::BranchRunner runner(SmallResetPrefix(), harness::BranchOptions{});
  ASSERT_TRUE(runner.Prepare().ok());
  const snapshot::SystemSnapshot& image = *runner.snapshot();
  sim::PooledSystem system = runner.AcquireSystem(SmallResetPrefix(), 0);
  const fuzz::SequenceExecutor executor = MakeExecutor();
  fuzz::Mutator mutator(model_, *live_services_);
  Rng rng(5);
  for (int i = 0; i < 3; ++i) executor.Execute(*system, mutator.Generate(rng));
  ASSERT_GT(system->driver().total_transactions(), 0);

  Status restored = image.RestoreInto(system.get());
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  auto recaptured = snapshot::SystemSnapshot::Capture(*system);
  ASSERT_TRUE(recaptured.ok()) << recaptured.status().ToString();
  EXPECT_EQ(recaptured.value().payload(), image.payload());
}

// Run A, restore in place, run B: B's event tape equals its tape on a fresh
// restore. A is drawn once from a 300-call confirm probe (hundreds of binder
// nodes, proxies and callback registrations minted since the image) and once
// from a protocol chain (a wired producer/consumer pair).
TEST_F(FuzzTest, ExecutionAfterInPlaceRestoreMatchesAFreshRestore) {
  const model::JavaMethodModel* clipboard =
      FindMethod("clipboard", "addPrimaryClipChangedListener");
  ASSERT_NE(clipboard, nullptr);
  fuzz::Mutator mutator(model_, *live_services_);
  Rng rng(11);
  fuzz::IpcCall probe_call = mutator.MakeCall(*clipboard, rng);
  for (fuzz::ArgValue& arg : probe_call.args) {
    if (arg.kind == services::ArgKind::kBinder) arg.fresh_binder = true;
  }
  const fuzz::Sequence b = mutator.Generate(rng);

  // A protocol chain, as a protocol-seeded campaign's corpus keeps it.
  fuzz::CampaignOptions options;
  options.seed = 42;
  options.budget = 12;
  options.confirm_calls = 100;
  options.warmup_apps = 8;
  options.warmup_foreground_us = 2'000'000;
  options.seed_from_protocol = true;
  fuzz::CampaignRunner campaign(options);
  campaign.Run();
  const fuzz::Sequence* chain = nullptr;
  for (const fuzz::CorpusEntry& entry : campaign.corpus().entries()) {
    for (const fuzz::IpcCall& call : entry.seq.calls) {
      for (const fuzz::ArgValue& arg : call.args) {
        if (arg.from_step >= 0) chain = &entry.seq;
      }
    }
    if (chain != nullptr) break;
  }
  ASSERT_NE(chain, nullptr);

  harness::BranchRunner runner(SmallResetPrefix(), harness::BranchOptions{});
  ASSERT_TRUE(runner.Prepare().ok());
  const fuzz::SequenceExecutor executor = MakeExecutor();
  const auto tape_of_b = [&](core::AndroidSystem& system) {
    snapshot::EventTape tape;
    system.kernel().bus().Subscribe(&tape, obs::kAllCategories);
    executor.Execute(system, b);
    executor.ExecuteRepeated(system, probe_call, 20);
    system.kernel().bus().Unsubscribe(&tape);
    return tape.events();
  };
  sim::PooledSystem fresh = runner.AcquireSystem(SmallResetPrefix(), 0);
  const std::vector<obs::TraceEvent> expected = tape_of_b(*fresh);
  ASSERT_FALSE(expected.empty());

  using RunA = std::function<void(core::AndroidSystem&)>;
  const std::vector<std::pair<const char*, RunA>> runs_a = {
      {"confirm probe",
       [&](core::AndroidSystem& system) {
         executor.ExecuteRepeated(system, probe_call, 300);
       }},
      {"protocol chain",
       [&](core::AndroidSystem& system) { executor.Execute(system, *chain); }},
  };
  for (const auto& [name, run_a] : runs_a) {
    sim::PooledSystem used = runner.AcquireSystem(SmallResetPrefix(), 1);
    run_a(*used);
    Status restored = runner.snapshot()->RestoreInto(used.get());
    ASSERT_TRUE(restored.ok()) << name << ": " << restored.ToString();
    const auto divergence =
        snapshot::FirstDivergence(expected, tape_of_b(*used));
    EXPECT_FALSE(divergence.has_value())
        << name << ": " << (divergence ? divergence->description : "");
  }
}

// Pooled systems a campaign cannot restore in place (one soft-rebooted, one
// whose com.android.bluetooth was killed) fall back to a fresh boot: the
// findings match a campaign that never saw them.
TEST(FuzzCampaignTest, UnrestorablePooledSystemsFallBackToAFreshBoot) {
  fuzz::CampaignOptions options;
  options.seed = 42;
  options.budget = 24;
  options.rounds = 2;
  options.shard_execs = 6;
  options.confirm_calls = 200;
  options.warmup_apps = 8;
  options.warmup_foreground_us = 2'000'000;

  fuzz::CampaignRunner clean(options);
  const fuzz::CampaignResult expected = clean.Run();

  fuzz::CampaignRunner poisoned(options);
  ASSERT_TRUE(poisoned.Prepare().ok());
  {
    auto rebooted = poisoned.ResetSystem(0);
    auto bluetooth_killed = poisoned.ResetSystem(1);
    rebooted->kernel().KillProcess(rebooted->system_server_pid(), "test");
    rebooted->Pump();
    ASSERT_EQ(rebooted->soft_reboots(), 1);
    bluetooth_killed->StopApp("com.android.bluetooth");
  }  // both go back to the pool
  const fuzz::CampaignResult got = poisoned.Run();

  ASSERT_EQ(expected.findings.size(), got.findings.size());
  for (std::size_t i = 0; i < got.findings.size(); ++i) {
    EXPECT_EQ(expected.findings[i].id, got.findings[i].id);
    EXPECT_EQ(expected.findings[i].kind, got.findings[i].kind);
    EXPECT_DOUBLE_EQ(expected.findings[i].growth_per_call,
                     got.findings[i].growth_per_call);
    EXPECT_EQ(expected.findings[i].minimized_calls,
              got.findings[i].minimized_calls);
    EXPECT_TRUE(expected.findings[i].witness == got.findings[i].witness);
  }
  EXPECT_EQ(expected.stats.suspects, got.stats.suspects);
  EXPECT_EQ(expected.stats.corpus_entries, got.stats.corpus_entries);
  EXPECT_EQ(expected.stats.signature_elements, got.stats.signature_elements);
  EXPECT_EQ(expected.stats.total_executions, got.stats.total_executions);
}

// In-place resets restore each pooled system over whatever the execution
// before it left behind; cold-boot resets re-simulate the prefix for every
// execution. Both run the same campaign: the same findings, executions,
// suspects and corpus entries.
TEST(FuzzCampaignTest, InPlaceResetsMatchColdBootResets) {
  fuzz::CampaignOptions options;
  options.seed = 42;
  options.budget = 12;
  options.rounds = 2;
  options.shard_execs = 6;
  options.confirm_calls = 120;
  options.warmup_apps = 4;
  options.warmup_foreground_us = 1'000'000;

  fuzz::CampaignRunner warm(options);
  ASSERT_TRUE(warm.Prepare().ok());
  const core::AndroidSystem* pooled = warm.ResetSystem(0).get();
  ASSERT_EQ(warm.ResetSystem(1).get(), pooled);  // restored in place
  const fuzz::CampaignResult in_place = warm.Run();

  options.cold_boot = true;
  fuzz::CampaignRunner cold_runner(options);
  const fuzz::CampaignResult cold = cold_runner.Run();

  ASSERT_FALSE(cold.findings.empty());
  ASSERT_EQ(in_place.findings.size(), cold.findings.size());
  for (std::size_t i = 0; i < cold.findings.size(); ++i) {
    EXPECT_EQ(in_place.findings[i].id, cold.findings[i].id);
    EXPECT_EQ(in_place.findings[i].kind, cold.findings[i].kind);
    EXPECT_DOUBLE_EQ(in_place.findings[i].growth_per_call,
                     cold.findings[i].growth_per_call);
    EXPECT_EQ(in_place.findings[i].minimized_calls,
              cold.findings[i].minimized_calls);
    EXPECT_TRUE(in_place.findings[i].witness == cold.findings[i].witness);
  }
  EXPECT_EQ(in_place.stats.total_executions, cold.stats.total_executions);
  EXPECT_EQ(in_place.stats.confirm_executions, cold.stats.confirm_executions);
  EXPECT_EQ(in_place.stats.minimize_executions,
            cold.stats.minimize_executions);
  EXPECT_EQ(in_place.stats.suspects, cold.stats.suspects);
  EXPECT_EQ(in_place.stats.corpus_entries, cold.stats.corpus_entries);
  EXPECT_EQ(in_place.stats.signature_elements, cold.stats.signature_elements);
}

// A small end-to-end campaign: deterministic across --jobs, and the
// confirmed findings carry consistent metadata. Each round runs 12
// executions, one pool task each, on 4 workers, so the corpus and the
// suspect list come out entry for entry the same only if results merge in
// submission order.
TEST(FuzzCampaignTest, SmallCampaignIsDeterministicAcrossJobs) {
  fuzz::CampaignOptions options;
  options.seed = 42;
  options.budget = 24;
  options.rounds = 2;
  options.shard_execs = 6;
  options.confirm_calls = 200;
  options.warmup_apps = 8;
  options.warmup_foreground_us = 2'000'000;

  options.jobs = 1;
  fuzz::CampaignRunner serial(options);
  const fuzz::CampaignResult a = serial.Run();

  options.jobs = 4;
  fuzz::CampaignRunner parallel(options);
  const fuzz::CampaignResult b = parallel.Run();

  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].id, b.findings[i].id);
    EXPECT_EQ(a.findings[i].kind, b.findings[i].kind);
    EXPECT_DOUBLE_EQ(a.findings[i].growth_per_call,
                     b.findings[i].growth_per_call);
    EXPECT_EQ(a.findings[i].minimized_calls, b.findings[i].minimized_calls);
    EXPECT_TRUE(a.findings[i].witness == b.findings[i].witness);
  }
  EXPECT_EQ(a.stats.screen_executions, 24);
  EXPECT_EQ(a.stats.suspects, b.stats.suspects);
  EXPECT_EQ(a.stats.corpus_entries, b.stats.corpus_entries);
  EXPECT_EQ(a.stats.signature_elements, b.stats.signature_elements);
  EXPECT_EQ(a.stats.confirm_executions, b.stats.confirm_executions);
  EXPECT_EQ(a.stats.minimize_executions, b.stats.minimize_executions);
  for (std::size_t i = 1; i < a.findings.size(); ++i) {
    EXPECT_LT(a.findings[i - 1].id, a.findings[i].id);  // sorted, unique
  }

  const auto fingerprints = [](const std::vector<fuzz::CorpusEntry>& entries) {
    std::vector<std::uint64_t> out;
    for (const fuzz::CorpusEntry& entry : entries) {
      out.push_back(entry.seq.Fingerprint());
    }
    return out;
  };
  ASSERT_GT(serial.corpus().size(), 1u);
  EXPECT_EQ(fingerprints(serial.corpus().entries()),
            fingerprints(parallel.corpus().entries()));
  ASSERT_GT(a.suspects.size(), 1u);
  ASSERT_EQ(a.suspects.size(), b.suspects.size());
  for (std::size_t i = 0; i < a.suspects.size(); ++i) {
    EXPECT_EQ(a.suspects[i].seq.Fingerprint(), b.suspects[i].seq.Fingerprint())
        << "suspect " << i;
    EXPECT_EQ(a.suspects[i].kind, b.suspects[i].kind) << "suspect " << i;
  }
}

// Analysis seeding: witness-bearing static candidates become initial
// sequences, executed before random screening and deducted from the same
// budget. With a budget that covers the candidate set, every witness-bearing
// interface is guaranteed a directed probe, so the seeded campaign re-finds
// more known-vulnerable interfaces than blind screening at the same spend —
// and stays deterministic across --jobs.
TEST(FuzzCampaignTest, AnalysisSeedingIsBudgetNeutralAndDeterministic) {
  fuzz::CampaignOptions options;
  options.seed = 42;
  options.budget = 80;
  options.rounds = 2;
  options.shard_execs = 6;
  options.confirm_calls = 200;
  options.warmup_apps = 8;
  options.warmup_foreground_us = 2'000'000;
  options.seed_from_analysis = true;

  options.jobs = 1;
  fuzz::CampaignRunner seeded(options);
  const fuzz::CampaignResult a = seeded.Run();
  EXPECT_GT(a.stats.seed_executions, 0);
  // Budget-neutral: seed + random screening spend exactly the budget.
  EXPECT_EQ(a.stats.seed_executions + a.stats.screen_executions, 80);

  options.jobs = 4;
  fuzz::CampaignRunner parallel(options);
  const fuzz::CampaignResult b = parallel.Run();
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].id, b.findings[i].id);
    EXPECT_EQ(a.findings[i].minimized_calls, b.findings[i].minimized_calls);
  }
  EXPECT_EQ(a.stats.seed_executions, b.stats.seed_executions);
  EXPECT_EQ(a.stats.suspects, b.stats.suspects);

  options.jobs = 1;
  options.seed_from_analysis = false;
  fuzz::CampaignRunner unseeded(options);
  const fuzz::CampaignResult c = unseeded.Run();
  EXPECT_EQ(c.stats.seed_executions, 0);
  EXPECT_EQ(c.stats.screen_executions, 80);

  // The metric seeding targets: known-vulnerable (attack-registry) interfaces
  // re-found at the same screening spend. Directed candidate probes beat
  // blind screening, which spends much of this tiny budget on safe services.
  const auto registry_refinds = [](const fuzz::CampaignResult& result,
                                   const analysis::AnalysisReport& report) {
    std::set<std::pair<std::string, std::uint32_t>> payloads;
    for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
      payloads.insert({vuln.service, vuln.code});
    }
    std::map<std::string, std::pair<std::string, std::uint32_t>> by_id;
    for (const analysis::AnalyzedInterface& iface : report.interfaces) {
      by_id[iface.id] = {iface.service, iface.transaction_code};
    }
    int refinds = 0;
    for (const fuzz::Finding& f : result.findings) {
      const auto it = by_id.find(f.id);
      if (it != by_id.end() && payloads.count(it->second) > 0) ++refinds;
    }
    return refinds;
  };
  EXPECT_GT(registry_refinds(a, seeded.report()),
            registry_refinds(c, unseeded.report()));
}

// --- Protocol dataflow mode --------------------------------------------------

// Golden two-call token protocol (BinderCracker §IV): mintSession replies
// with a capability token; registerWithToken retains its callback binder
// only behind a valid token. The token space is disjoint from the mutator's
// scalar dictionary, so the collection sink is unreachable without wiring
// the reply into the dependent call.
class TokenGateService : public services::RegistryServiceBase {
 public:
  static constexpr char kName[] = "tokengate";
  TokenGateService(services::SystemContext* sys, Pid host_pid)
      : RegistryServiceBase(
            sys, kName, "com.test.ITokenGate", host_pid, {"callbacks"},
            {services::MethodSpec{1, "mintSession",
                                  services::MethodKind::kMintToken},
             services::MethodSpec{2, "registerWithToken",
                                  services::MethodKind::kRegisterGated,
                                  {services::ArgKind::kInt64,
                                   services::ArgKind::kBinder},
                                  0, nullptr, {}, "",
                                  {"tokengate.token", ""}}}) {}
};

std::unique_ptr<core::AndroidSystem> MakeTokenGateSystem() {
  auto system = std::make_unique<core::AndroidSystem>();
  system->Boot();
  auto service = std::make_shared<TokenGateService>(
      &system->context(), system->system_server_pid());
  system->driver().RegisterBinder(service, system->system_server_pid());
  (void)system->service_manager().AddService(TokenGateService::kName, service,
                                             kSystemUid);
  system->KeepServiceAlive(TokenGateService::kName, service);
  return system;
}

// Same seed => same chain and same protocol-spliced mutation, byte for byte;
// and a mutator without links replays the historical 6-op stream unchanged,
// so enabling the mode elsewhere cannot disturb non-protocol campaigns.
TEST_F(FuzzTest, ProtocolSpliceIsDeterministicAndOffModeIsByteStable) {
  fuzz::Mutator plain(model_, *live_services_);
  fuzz::Mutator wired(model_, *live_services_);
  ASSERT_FALSE(wired.protocol_aware());
  const model::JavaMethodModel* producer =
      FindMethod("media_session", "createSession");
  const model::JavaMethodModel* consumer =
      FindMethod("notification", "enqueueToast");
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(consumer, nullptr);
  wired.EnableProtocolMode({{producer->id, consumer->id, 1, true, ""}});
  ASSERT_TRUE(wired.protocol_aware());

  fuzz::Mutator wired2(model_, *live_services_);
  wired2.EnableProtocolMode({{producer->id, consumer->id, 1, true, ""}});
  Rng a(7), b(7);
  for (int i = 0; i < 10; ++i) {
    const fuzz::Sequence ca = wired.GenerateChain(0, 8, a);
    const fuzz::Sequence cb = wired2.GenerateChain(0, 8, b);
    ASSERT_TRUE(ca == cb);
    EXPECT_EQ(ca.Fingerprint(), cb.Fingerprint());
    // Every pair wires the consumer to its own producer step.
    ASSERT_EQ(ca.calls.size(), 8u);
    for (std::size_t p = 0; p < ca.calls.size(); p += 2) {
      EXPECT_EQ(ca.calls[p].method_id, producer->id);
      EXPECT_EQ(ca.calls[p + 1].method_id, consumer->id);
      EXPECT_EQ(ca.calls[p + 1].args[1].from_step, static_cast<int>(p));
    }
  }
  Rng ma(99), mb(99);
  const fuzz::Sequence seed = plain.Generate(ma);
  (void)plain.Generate(mb);  // keep the two streams aligned
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(wired.Mutate(seed, ma).Fingerprint(),
              wired2.Mutate(seed, mb).Fingerprint());
  }
  // Off mode: identical op stream with or without the protocol splice code.
  Rng pa(55), pb(55);
  fuzz::Mutator plain2(model_, *live_services_);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(plain.Mutate(seed, pa).Fingerprint(),
              plain2.Mutate(seed, pb).Fingerprint());
  }
}

// The golden protocol is re-found only in dataflow mode at a minimal budget:
// unseeded sequences never pass the token gate, a wired chain retains a
// callback per pair, and the confirm-style probe (producer in the setup
// prefix, token wired across) passes the strict growth bar.
TEST(FuzzProtocolGoldenTest, TwoCallTokenProtocolNeedsDataflowSeeding) {
  std::unique_ptr<core::AndroidSystem> booted = MakeTokenGateSystem();
  model::CodeModel model = model::BuildAospModel(*booted);
  const std::string gated_id = "com.test.ITokenGate.registerWithToken";
  const std::string mint_id = "com.test.ITokenGate.mintSession";
  ASSERT_NE(model.FindJavaMethod(gated_id), nullptr);

  const std::set<std::string> live = {TokenGateService::kName};
  fuzz::Mutator mutator(&model, live);
  ASSERT_EQ(mutator.pool().size(), 2u);
  const fuzz::SequenceExecutor executor(&model, {});
  const fuzz::Oracle oracle;

  // Unseeded: random sequences over the same two methods never retain —
  // every registerWithToken call draws its token from the dictionary and is
  // rejected, so the service's callback registry stays empty.
  Rng rng(42);
  for (int i = 0; i < 12; ++i) {
    std::unique_ptr<core::AndroidSystem> system = MakeTokenGateSystem();
    const fuzz::Sequence seq = mutator.Generate(rng);
    (void)executor.Execute(*system, seq);
    auto* service = system->Service<TokenGateService>();
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->RegistryCount(0), 0u) << "iteration " << i;
  }

  // Dataflow mode: the chain wires each pair's minted token into its own
  // consumer; every pair registers one callback.
  mutator.EnableProtocolMode({{mint_id, gated_id, 0, false, ""}});
  fuzz::Sequence chain = mutator.GenerateChain(0, 20, rng);
  ASSERT_EQ(chain.calls.size(), 20u);
  std::unique_ptr<core::AndroidSystem> system = MakeTokenGateSystem();
  const fuzz::ExecOutcome outcome = executor.Execute(*system, chain);
  EXPECT_EQ(system->Service<TokenGateService>()->RegistryCount(0), 10u);
  EXPECT_TRUE(oracle.Screen(outcome.obs).suspicious());

  // Confirm discipline: the producer runs once in the setup prefix, the
  // repeated gated call re-uses its minted token (tokens are multi-use) with
  // a fresh callback binder per repetition.
  fuzz::IpcCall setup = chain.calls[0];
  fuzz::IpcCall probe = chain.calls[1];
  probe.args[0].from_step = 0;
  probe.args[1].from_step = -1;
  probe.args[1].fresh_binder = true;
  std::unique_ptr<core::AndroidSystem> confirm_system = MakeTokenGateSystem();
  const fuzz::ExecOutcome confirmed =
      executor.ExecuteRepeated(*confirm_system, probe, 300, {setup});
  const fuzz::OracleVerdict verdict = fuzz::Oracle().Confirm(confirmed.obs);
  EXPECT_EQ(verdict.kind, fuzz::ExhaustionKind::kJgr);
  EXPECT_GE(verdict.jgr_growth_per_call, 0.5);
}

// Protocol seeding end-to-end: budget-neutral, deterministic across --jobs,
// and the protocol-mode fingerprint layout round-trips through a campaign.
TEST(FuzzCampaignTest, ProtocolSeedingIsBudgetNeutralAndDeterministic) {
  fuzz::CampaignOptions options;
  options.seed = 42;
  options.budget = 80;
  options.rounds = 2;
  options.shard_execs = 6;
  options.confirm_calls = 200;
  options.warmup_apps = 8;
  options.warmup_foreground_us = 2'000'000;
  options.seed_from_analysis = true;
  options.seed_from_protocol = true;

  options.jobs = 1;
  fuzz::CampaignRunner seeded(options);
  const fuzz::CampaignResult a = seeded.Run();
  EXPECT_GT(a.stats.protocol_seed_executions, 0);
  ASSERT_NE(seeded.protocol_graph(), nullptr);
  EXPECT_GT(seeded.protocol_graph()->stats().multi_service_chains, 0u);
  // Budget-neutral: chain seeds + analysis seeds + random screening == budget.
  EXPECT_EQ(a.stats.protocol_seed_executions + a.stats.seed_executions +
                a.stats.screen_executions,
            80);

  options.jobs = 4;
  fuzz::CampaignRunner parallel(options);
  const fuzz::CampaignResult b = parallel.Run();
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].id, b.findings[i].id);
    EXPECT_EQ(a.findings[i].minimized_calls, b.findings[i].minimized_calls);
    EXPECT_TRUE(a.findings[i].witness == b.findings[i].witness);
  }
  EXPECT_EQ(a.stats.protocol_seed_executions, b.stats.protocol_seed_executions);
  EXPECT_EQ(a.stats.suspects, b.stats.suspects);
  EXPECT_EQ(a.stats.corpus_entries, b.stats.corpus_entries);
}

}  // namespace
}  // namespace jgre
