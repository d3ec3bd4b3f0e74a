// Static-analysis pipeline tests: the census of §IV must be *derived* by the
// pipeline from code-level facts, not hard-wired. These tests pin the derived
// numbers to the paper's.
#include <gtest/gtest.h>

#include <set>

#include "analysis/pipeline.h"
#include "core/android_system.h"
#include "model/corpus.h"

namespace jgre {
namespace {

class PipelineTest : public ::testing::Test {
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

core::AndroidSystem* PipelineTest::system_ = nullptr;
model::CodeModel* PipelineTest::model_ = nullptr;
analysis::AnalysisReport* PipelineTest::report_ = nullptr;

TEST_F(PipelineTest, ExtractsTheFullServiceCensus) {
  EXPECT_EQ(report_->ipc_methods.services_registered, 104);
  // The five natively implemented services (§III.A).
  EXPECT_EQ(report_->ipc_methods.native_service_registrations, 5);
  EXPECT_GT(report_->ipc_methods.service_methods.size(), 300u);
  // Prebuilt app IPC methods (gatt, adapter, picotts).
  EXPECT_EQ(report_->ipc_methods.app_methods.size(), 8u);
}

TEST_F(PipelineTest, NativePathCountsMatchThePaper) {
  EXPECT_EQ(report_->jgr_entries.native_paths_total, 147);
  EXPECT_EQ(report_->jgr_entries.native_paths_init_only, 67);
  EXPECT_EQ(report_->jgr_entries.native_paths_exploitable, 80);
}

TEST_F(PipelineTest, JavaJgrEntriesIncludeTheCriticalMappings) {
  const auto& entries = report_->jgr_entries.java_entries;
  EXPECT_TRUE(entries.count("android.os.Parcel.nativeReadStrongBinder"));
  EXPECT_TRUE(entries.count("android.os.Parcel.nativeWriteStrongBinder"));
  EXPECT_TRUE(entries.count("android.os.Binder.linkToDeath"));
  EXPECT_TRUE(entries.count("java.lang.Thread.nativeCreate"));
  // Runtime-init-only paths must NOT contribute entries.
  for (const std::string& entry : entries) {
    EXPECT_EQ(entry.find("CacheClass"), std::string::npos) << entry;
  }
}

TEST_F(PipelineTest, CandidateCountsMatchThePaper) {
  const auto candidates = report_->Candidates();
  // 54 exploitable system interfaces + 3 correctly per-process-protected
  // (display 1, input 2) + 3 prebuilt-app interfaces = 60 candidates for
  // dynamic verification.
  EXPECT_EQ(candidates.size(), 60u);

  std::set<std::string> services;
  int system_side = 0;
  int app_side = 0;
  for (const std::size_t index : candidates) {
    const auto& iface = report_->interfaces[index];
    if (iface.app_hosted) {
      ++app_side;
    } else {
      ++system_side;
      services.insert(iface.service);
    }
  }
  EXPECT_EQ(system_side, 57);
  EXPECT_EQ(app_side, 3);
  // 32 vulnerable services + display + input(already vulnerable via vibrate).
  EXPECT_EQ(services.size(), 33u);
}

TEST_F(PipelineTest, ProtectionClassificationMatchesTablesIIandIII) {
  const auto helper =
      report_->CandidatesWithProtection(analysis::ProtectionClass::kHelperGuard);
  EXPECT_EQ(helper.size(), 9u);  // Table II
  const auto server = report_->CandidatesWithProtection(
      analysis::ProtectionClass::kServerConstraint);
  EXPECT_EQ(server.size(), 4u);  // Table III
  int flawed = 0;
  for (const std::size_t index : server) {
    if (report_->interfaces[index].constraint_trusts_caller) ++flawed;
  }
  EXPECT_EQ(flawed, 1);  // enqueueToast
}

TEST_F(PipelineTest, SifterDischargesTheBenignPatterns) {
  int rule2 = 0, rule3 = 0, rule4 = 0, rule1 = 0, perm = 0;
  for (const auto& iface : report_->interfaces) {
    if (!iface.sifted_out()) continue;
    if (iface.sift_reason == analysis::SiftReason::kRule1ThreadOnly) ++rule1;
    if (iface.sift_reason == analysis::SiftReason::kRule2Transient) ++rule2;
    if (iface.sift_reason == analysis::SiftReason::kRule3ReadOnlyKey) ++rule3;
    if (iface.sift_reason == analysis::SiftReason::kRule4MemberSlot) ++rule4;
    if (iface.sift_reason == analysis::SiftReason::kSignaturePermission) ++perm;
  }
  EXPECT_GT(rule1, 0);  // thread-create-only methods
  EXPECT_GE(rule2, 71); // every safe service's oneShot
  EXPECT_GT(rule3, 30); // all unregister-style methods
  EXPECT_GE(rule4, 142);  // safe services' setCallback + registerObserver
  EXPECT_GT(perm, 0);   // forceStopPackage (signature)
}

TEST_F(PipelineTest, UnprotectedPermissionBreakdownMatchesTableI) {
  // Among the unprotected, exploitable-pattern system-service candidates:
  // 19 services reachable with no permission, 4 with normal, 3 with
  // dangerous (Table I's breakdown of the 26 unprotected services).
  std::map<std::string, model::PermissionLevel> strongest;
  for (const std::size_t index : report_->CandidatesWithProtection(
           analysis::ProtectionClass::kUnprotected)) {
    const auto& iface = report_->interfaces[index];
    if (iface.app_hosted) continue;
    // A service is attackable at the *weakest* requirement over its
    // unprotected vulnerable interfaces.
    auto it = strongest.find(iface.service);
    if (it == strongest.end() || iface.permission_level < it->second) {
      strongest[iface.service] = iface.permission_level;
    }
  }
  int none = 0, normal = 0, dangerous = 0;
  for (const auto& [service, level] : strongest) {
    switch (level) {
      case model::PermissionLevel::kNone:
        ++none;
        break;
      case model::PermissionLevel::kNormal:
        ++normal;
        break;
      case model::PermissionLevel::kDangerous:
        ++dangerous;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(none, 19);
  EXPECT_EQ(normal, 4);
  EXPECT_EQ(dangerous, 3);
}

}  // namespace
}  // namespace jgre
