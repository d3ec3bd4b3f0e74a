// Cross-validation: the repository encodes the paper's vulnerability census
// twice, independently — as executable attack payloads (attack/vuln_registry)
// and as code-level facts the pipeline analyzes (model/corpus). These tests
// pin the two views to each other and to the live system, so neither can
// drift silently.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/pipeline.h"
#include "attack/vuln_registry.h"
#include "core/android_system.h"
#include "model/corpus.h"

namespace jgre {
namespace {

class CrossValidationTest : public ::testing::Test {
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
  }

  static const analysis::AnalyzedInterface* FindAnalyzed(
      const std::string& service, std::uint32_t code) {
    for (const auto& iface : report_->interfaces) {
      if (iface.service == service && iface.transaction_code == code) {
        return &iface;
      }
    }
    return nullptr;
  }

  static core::AndroidSystem* system_;
  static model::CodeModel* model_;
  static analysis::AnalysisReport* report_;
};

core::AndroidSystem* CrossValidationTest::system_ = nullptr;
model::CodeModel* CrossValidationTest::model_ = nullptr;
analysis::AnalysisReport* CrossValidationTest::report_ = nullptr;

TEST_F(CrossValidationTest, EveryAttackPayloadIsAPipelineCandidate) {
  // Anything the attack registry can exploit, the static pipeline must have
  // flagged as risky and kept through the sifter.
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    const analysis::AnalyzedInterface* iface =
        FindAnalyzed(vuln.service, vuln.code);
    ASSERT_NE(iface, nullptr) << vuln.service << "." << vuln.interface;
    EXPECT_TRUE(iface->risky) << vuln.service << "." << vuln.interface;
    EXPECT_FALSE(iface->sifted_out())
        << vuln.service << "." << vuln.interface << ": "
        << iface->sift_reason_text();
  }
}

TEST_F(CrossValidationTest, PermissionsAgreeBetweenRegistryAndCorpus) {
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    const analysis::AnalyzedInterface* iface =
        FindAnalyzed(vuln.service, vuln.code);
    ASSERT_NE(iface, nullptr);
    EXPECT_EQ(iface->permission, vuln.permission)
        << vuln.service << "." << vuln.interface;
  }
}

TEST_F(CrossValidationTest, ProtectionClassesAgree) {
  const std::map<attack::Protection, analysis::ProtectionClass> expected = {
      {attack::Protection::kNone, analysis::ProtectionClass::kUnprotected},
      {attack::Protection::kHelperClass,
       analysis::ProtectionClass::kHelperGuard},
      {attack::Protection::kPerProcessFlawed,
       analysis::ProtectionClass::kServerConstraint},
  };
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    const analysis::AnalyzedInterface* iface =
        FindAnalyzed(vuln.service, vuln.code);
    ASSERT_NE(iface, nullptr);
    EXPECT_EQ(iface->protection, expected.at(vuln.protection))
        << vuln.service << "." << vuln.interface;
  }
}

TEST_F(CrossValidationTest, PipelineCandidatesMinusProtectedEqualTheRegistry) {
  // The converse direction: every unsifted candidate that is NOT a correct
  // per-process constraint must have an attack payload. (The three correct
  // Table III constraints are candidates that dynamic verification bounds.)
  std::set<std::pair<std::string, std::uint32_t>> payloads;
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    payloads.insert({vuln.service, vuln.code});
  }
  int unmatched_constrained = 0;
  for (const std::size_t index : report_->Candidates()) {
    const analysis::AnalyzedInterface& iface = report_->interfaces[index];
    const bool has_payload =
        payloads.count({iface.service, iface.transaction_code}) > 0;
    if (has_payload) continue;
    // Must be one of the correctly constrained interfaces.
    EXPECT_EQ(iface.protection, analysis::ProtectionClass::kServerConstraint)
        << iface.service << "." << iface.method;
    EXPECT_FALSE(iface.constraint_trusts_caller);
    ++unmatched_constrained;
  }
  EXPECT_EQ(unmatched_constrained, 3);  // display + input x2
}

TEST_F(CrossValidationTest, EveryPayloadTargetsALiveRegisteredService) {
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    EXPECT_TRUE(system_->service_manager().HasService(vuln.service))
        << vuln.service;
    if (vuln.victim == attack::VictimKind::kPrebuiltApp) {
      services::AppProcess* victim = system_->FindApp(vuln.victim_package);
      ASSERT_NE(victim, nullptr) << vuln.victim_package;
      EXPECT_TRUE(victim->alive());
    }
  }
}

TEST_F(CrossValidationTest, TableIIHelperGuardsCoverExactlyTheRegistryRows) {
  std::set<std::string> guarded_ids;
  for (const auto& guard : model_->helper_guards) {
    guarded_ids.insert(guard.guarded_method);
  }
  int helper_rows = 0;
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    if (vuln.protection != attack::Protection::kHelperClass) continue;
    ++helper_rows;
    const std::string id = vuln.descriptor + "." + vuln.interface;
    EXPECT_TRUE(guarded_ids.count(id) > 0) << id;
  }
  EXPECT_EQ(helper_rows, static_cast<int>(guarded_ids.size()));
}

}  // namespace
}  // namespace jgre
