// ProtocolGraph tests: the explicit mint/consume join, the summary-derived
// implicit binder edges, per-chain acyclicity with reported (never silent)
// truncation, and the index-stability contract — the graph stores entry
// indices into AnalysisReport::interfaces, never pointers, so a graph built
// from a temporary report stays valid for any equal report the caller keeps
// (the PR-5 lesson, re-audited here for the protocol layer).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/pipeline.h"
#include "analysis/protocol/protocol_graph.h"
#include "core/android_system.h"
#include "model/corpus.h"

namespace jgre {
namespace {

using analysis::protocol::BuildOptions;
using analysis::protocol::ProtocolChain;
using analysis::protocol::ProtocolEdge;
using analysis::protocol::ProtocolGraph;

// Two-service synthetic corpus: the registrations plus the onTransact
// strong-binder receive every takes_binder verdict hangs off.
model::CodeModel NewTwoServiceModel() {
  model::CodeModel m;
  m.registrations.push_back(
      {"svcA", "com.test.A", model::ServiceRegistration::Registrar::kAddService});
  m.registrations.push_back(
      {"svcB", "com.test.B", model::ServiceRegistration::Registrar::kAddService});
  model::NativeMethodModel sink;
  sink.name = std::string(model::kJgrSinkFunction);
  m.native_methods[sink.name] = sink;
  model::NativeMethodModel reader;
  reader.name = "android_os_Parcel_readStrongBinder";
  reader.is_jni_entry = true;
  reader.callees.push_back(std::string(model::kJgrSinkFunction));
  m.native_methods[reader.name] = reader;
  m.jni_registrations.push_back(
      {std::string(model::kReadStrongBinderEntry), reader.name});
  return m;
}

model::JavaMethodModel& AddIpcMethod(model::CodeModel* m,
                                     const std::string& service,
                                     const std::string& clazz,
                                     const std::string& name,
                                     std::uint32_t code) {
  model::JavaMethodModel method;
  method.id = clazz + "." + name;
  method.clazz = clazz;
  method.name = name;
  method.service = service;
  method.transaction_code = code;
  method.overrides_aidl = true;
  return m->java_methods.emplace(method.id, std::move(method)).first->second;
}

std::size_t IndexOf(const analysis::AnalysisReport& report,
                    const std::string& id) {
  for (std::size_t i = 0; i < report.interfaces.size(); ++i) {
    if (report.interfaces[i].id == id) return i;
  }
  ADD_FAILURE() << "no interface " << id;
  return report.interfaces.size();
}

TEST(ProtocolGraphTest, ExplicitConsumeEdgeJoinsMintWithDeclaredProvenance) {
  model::CodeModel m = NewTwoServiceModel();
  auto& mint = AddIpcMethod(&m, "svcA", "com.test.A", "mintSession", 1);
  mint.args = {};
  mint.returns = {model::ValueKind::kToken, "a.token"};
  auto& gated = AddIpcMethod(&m, "svcB", "com.test.B", "registerWithToken", 1);
  gated.args = {services::ArgKind::kInt64, services::ArgKind::kBinder};
  gated.facts = {model::BodyFact::kStoresParamInCollection,
                 model::BodyFact::kLinksToDeath};
  gated.arg_provenance = {{model::ValueKind::kToken, "a.token"}, {}};

  const analysis::AnalysisReport report = analysis::RunAnalysis(m);
  const ProtocolGraph graph = ProtocolGraph::Build(m, report);
  const std::size_t producer = IndexOf(report, mint.id);
  const std::size_t consumer = IndexOf(report, gated.id);

  ASSERT_EQ(graph.stats().minting_entries, 1u);
  EXPECT_EQ(graph.mints()[0].entry, producer);
  EXPECT_EQ(graph.mints()[0].kind, model::ValueKind::kToken);

  // Exactly one edge: the token declaration. The binder slot of the gated
  // method is retention-relevant but no kBinderHandle mint exists to feed it.
  ASSERT_EQ(graph.edges().size(), 1u);
  const ProtocolEdge& edge = graph.edges()[0];
  EXPECT_EQ(edge.producer, producer);
  EXPECT_EQ(edge.consumer, consumer);
  EXPECT_EQ(edge.arg_index, 0u);
  EXPECT_TRUE(edge.explicit_consume);
  EXPECT_TRUE(edge.cross_service);
  EXPECT_EQ(graph.stats().explicit_edges, 1u);

  // The consumer is risky and unsifted, so the edge terminates a chain.
  ASSERT_EQ(graph.chains().size(), 1u);
  EXPECT_EQ(graph.chains()[0].depth(), 1);
  EXPECT_TRUE(graph.chains()[0].multi_service);
  EXPECT_EQ(graph.chains()[0].entries.back(), consumer);
  EXPECT_EQ(graph.EdgesFrom(producer).size(), 1u);
  EXPECT_EQ(graph.EdgesInto(consumer).size(), 1u);
}

TEST(ProtocolGraphTest, WildcardProvenanceDomainMatchesEveryMintOfItsKind) {
  model::CodeModel m = NewTwoServiceModel();
  auto& mint_a = AddIpcMethod(&m, "svcA", "com.test.A", "mintA", 1);
  mint_a.returns = {model::ValueKind::kToken, "a.token"};
  auto& mint_b = AddIpcMethod(&m, "svcB", "com.test.B", "mintB", 1);
  mint_b.returns = {model::ValueKind::kToken, "b.token"};
  auto& any = AddIpcMethod(&m, "svcB", "com.test.B", "redeemAny", 2);
  any.args = {services::ArgKind::kInt64};
  any.facts = {model::BodyFact::kStoresParamInCollection};
  any.arg_provenance = {{model::ValueKind::kToken, "*"}};

  const ProtocolGraph graph =
      ProtocolGraph::Build(m, analysis::RunAnalysis(m));
  EXPECT_EQ(graph.stats().minting_entries, 2u);
  ASSERT_EQ(graph.edges().size(), 2u);
  for (const ProtocolEdge& edge : graph.edges()) {
    EXPECT_TRUE(edge.explicit_consume);
    EXPECT_EQ(edge.kind, model::ValueKind::kToken);
  }
  // One edge per mint domain, both into the wildcard consumer.
  EXPECT_NE(graph.edges()[0].domain, graph.edges()[1].domain);
  EXPECT_EQ(graph.edges()[0].consumer, graph.edges()[1].consumer);
}

TEST(ProtocolGraphTest, ImplicitBinderEdgesRequireRetentionRelevantConsumers) {
  model::CodeModel m = NewTwoServiceModel();
  auto& session = AddIpcMethod(&m, "svcA", "com.test.A", "openSession", 1);
  session.args = {services::ArgKind::kBinder};
  session.facts = {model::BodyFact::kStoresParamInCollection,
                   model::BodyFact::kCreatesServerSession};
  session.returns = {model::ValueKind::kBinderHandle, "a.session"};
  auto& retains = AddIpcMethod(&m, "svcB", "com.test.B", "register", 1);
  retains.args = {services::ArgKind::kBinder};
  retains.facts = {model::BodyFact::kStoresParamInCollection};
  auto& transient = AddIpcMethod(&m, "svcB", "com.test.B", "ping", 2);
  transient.args = {services::ArgKind::kBinder};
  transient.facts = {model::BodyFact::kUsesParamTransiently};

  const analysis::AnalysisReport report = analysis::RunAnalysis(m);
  const ProtocolGraph graph = ProtocolGraph::Build(m, report);

  // The collection-band consumer gets the implicit edge; the transient one
  // does not, and the minting entry never feeds itself.
  const std::size_t retainer = IndexOf(report, retains.id);
  const std::size_t pinger = IndexOf(report, transient.id);
  const std::size_t minter = IndexOf(report, session.id);
  ASSERT_EQ(graph.edges().size(), 1u);
  EXPECT_EQ(graph.edges()[0].producer, minter);
  EXPECT_EQ(graph.edges()[0].consumer, retainer);
  EXPECT_FALSE(graph.edges()[0].explicit_consume);
  EXPECT_TRUE(graph.EdgesInto(pinger).empty());
  EXPECT_TRUE(graph.EdgesInto(minter).empty());
}

TEST(ProtocolGraphTest, ChainsAreAcyclicPerChainAndTruncationIsReported) {
  // Mutual mint cycle: A's session feeds B, B's session feeds A. Chains must
  // terminate (no repeated entries, no repeated domains) instead of looping.
  model::CodeModel m = NewTwoServiceModel();
  auto& a = AddIpcMethod(&m, "svcA", "com.test.A", "openA", 1);
  a.args = {services::ArgKind::kBinder};
  a.facts = {model::BodyFact::kStoresParamInCollection,
             model::BodyFact::kCreatesServerSession};
  a.returns = {model::ValueKind::kBinderHandle, "a.session"};
  auto& b = AddIpcMethod(&m, "svcB", "com.test.B", "openB", 1);
  b.args = {services::ArgKind::kBinder};
  b.facts = {model::BodyFact::kStoresParamInCollection,
             model::BodyFact::kCreatesServerSession};
  b.returns = {model::ValueKind::kBinderHandle, "b.session"};

  const analysis::AnalysisReport report = analysis::RunAnalysis(m);
  const ProtocolGraph graph = ProtocolGraph::Build(m, report);
  EXPECT_EQ(graph.edges().size(), 2u);  // A→B and B→A, no self-edges
  ASSERT_GE(graph.chains().size(), 2u);
  for (const ProtocolChain& chain : graph.chains()) {
    std::set<std::size_t> entries(chain.entries.begin(), chain.entries.end());
    EXPECT_EQ(entries.size(), chain.entries.size()) << "repeated entry";
    std::set<std::string> domains;
    for (const std::size_t edge_id : chain.edge_ids) {
      EXPECT_TRUE(domains.insert(graph.edges()[edge_id].domain).second)
          << "repeated mint domain";
    }
  }

  // A unit cap drops chains loudly: the count of what was cut is reported.
  BuildOptions capped;
  capped.max_chains = 1;
  const ProtocolGraph truncated = ProtocolGraph::Build(m, report, capped);
  EXPECT_EQ(truncated.chains().size(), 1u);
  EXPECT_GT(truncated.stats().truncated_chains, 0u);
}

// PR-5 regression, protocol edition: the graph must store indices into
// AnalysisReport::interfaces. Built from a temporary report, its entries
// still resolve inside a separately computed (equal) report and a copy.
TEST(ProtocolGraphTest, GraphIndicesSurviveReportCopiesAndTemporaries) {
  model::CodeModel m = NewTwoServiceModel();
  auto& mint = AddIpcMethod(&m, "svcA", "com.test.A", "mintSession", 1);
  mint.returns = {model::ValueKind::kToken, "a.token"};
  auto& gated = AddIpcMethod(&m, "svcB", "com.test.B", "registerWithToken", 1);
  gated.args = {services::ArgKind::kInt64, services::ArgKind::kBinder};
  gated.facts = {model::BodyFact::kStoresParamInCollection};
  gated.arg_provenance = {{model::ValueKind::kToken, "a.token"}, {}};

  // Built against a temporary — with pointers this graph would dangle here.
  const ProtocolGraph graph = ProtocolGraph::Build(m, analysis::RunAnalysis(m));

  const analysis::AnalysisReport report = analysis::RunAnalysis(m);
  const analysis::AnalysisReport copy = report;  // reallocates `interfaces`
  ASSERT_EQ(graph.edges().size(), 1u);
  for (const ProtocolEdge& edge : graph.edges()) {
    ASSERT_LT(edge.producer, copy.interfaces.size());
    ASSERT_LT(edge.consumer, copy.interfaces.size());
    EXPECT_EQ(copy.interfaces[edge.producer].id, mint.id);
    EXPECT_EQ(copy.interfaces[edge.consumer].id, gated.id);
    EXPECT_EQ(report.interfaces[edge.consumer].id,
              copy.interfaces[edge.consumer].id);
  }
  for (const ProtocolChain& chain : graph.chains()) {
    for (const std::size_t entry : chain.entries) {
      ASSERT_LT(entry, copy.interfaces.size());
    }
  }
}

// The AOSP corpus end-to-end: deterministic stats, at least one
// multi-service chain, and every chain index in bounds with the terminal
// carrying a taint witness (the witness contract the detect hunt relies on).
TEST(ProtocolGraphTest, AospGraphHasWitnessedMultiServiceChains) {
  core::AndroidSystem system;
  system.Boot();
  const model::CodeModel model = model::BuildAospModel(system);
  const analysis::AnalysisReport report = analysis::RunAnalysis(model);
  const ProtocolGraph graph = ProtocolGraph::Build(model, report);

  EXPECT_EQ(graph.stats().nodes, report.interfaces.size());
  EXPECT_GT(graph.stats().minting_entries, 0u);
  EXPECT_GT(graph.stats().multi_service_chains, 0u);
  for (const ProtocolChain& chain : graph.chains()) {
    ASSERT_FALSE(chain.entries.empty());
    for (const std::size_t entry : chain.entries) {
      ASSERT_LT(entry, report.interfaces.size());
    }
    const analysis::AnalyzedInterface& terminal =
        report.interfaces[chain.entries.back()];
    EXPECT_TRUE(terminal.risky);
    EXPECT_FALSE(terminal.sifted_out());
    EXPECT_FALSE(terminal.witness.empty()) << terminal.id;
  }

  // Same (model, report) pair twice: identical graph, regardless of when.
  const ProtocolGraph again = ProtocolGraph::Build(model, report);
  EXPECT_TRUE(graph.edges() == again.edges());
  EXPECT_TRUE(graph.mints() == again.mints());
  ASSERT_EQ(graph.chains().size(), again.chains().size());
  for (std::size_t i = 0; i < graph.chains().size(); ++i) {
    EXPECT_EQ(graph.chains()[i].entries, again.chains()[i].entries);
    EXPECT_EQ(graph.chains()[i].edge_ids, again.chains()[i].edge_ids);
  }
}

}  // namespace
}  // namespace jgre
