// bench_protocol_graph — builds the cross-transaction ProtocolGraph
// (src/analysis/protocol) over the derived AOSP model and reports:
//   * graph shape: minting entries, explicit vs summary-derived edges,
//     cross-service edges, and the chain-depth histogram,
//   * the multi-service chain inventory — retention chains that acquire a
//     minted value from one service and retain it via another, the protocols
//     the single-entry taint engine structurally cannot represent,
//   * the protocol.cross-call-retention hunt's detections (static chain +
//     terminal taint witness, fused with the campaign's reproducers),
//   * the dataflow-aware fuzzing comparison: census re-finds at the same
//     screening budget for unseeded, analysis-seeded, and protocol-seeded
//     campaigns.
//
// Every reported section is a pure function of --seed and --budget:
// BENCH_protocol.json is byte-identical for any --jobs (record_jobs=false is
// the marker CI's byte-compare keys on), so no wall-clock numbers are
// emitted.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/protocol/protocol_graph.h"
#include "bench_util.h"
#include "common/log.h"
#include "detect/hunt.h"
#include "detect/hunts.h"
#include "dynamic/verifier.h"
#include "fuzz/campaign.h"
#include "harness/bench_report.h"
#include "harness/branch_runner.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"

using namespace jgre;

namespace {

std::string ChainPath(const analysis::protocol::ProtocolChain& chain,
                      const analysis::AnalysisReport& report) {
  std::string path;
  for (std::size_t j = 0; j < chain.entries.size(); ++j) {
    if (j > 0) path += " -> ";
    path += report.interfaces[chain.entries[j]].id;
  }
  return path;
}

harness::Json StringArray(const std::vector<std::string>& values) {
  harness::Json arr = harness::Json::Array();
  for (const std::string& v : values) arr.Push(v);
  return arr;
}

}  // namespace

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "protocol";
  spec.default_seed = 42;
  spec.extra_flags = harness::BranchFlags();
  spec.extra_flags.push_back(
      {"--budget", true, "screening executions per campaign (default 240)"});
  spec.extra_flags.push_back(
      {"--min-refound", true,
       "fail unless the protocol-seeded campaign re-finds >= N census "
       "interfaces (default 54)"});
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;
  SetLogLevel(LogLevel::kError);

  int budget = 240;
  int min_refound = 54;
  if (!harness::IntFlag(opts, "--budget", &budget) ||
      !harness::IntFlag(opts, "--min-refound", &min_refound)) {
    return 2;
  }
  const harness::BranchOptions branch = harness::BranchOptionsFromHarness(opts);

  bench::PrintBanner("PROTOCOL DATAFLOW GRAPH",
                     "Cross-transaction retention chains and "
                     "dependency-aware fuzzing");
  // --jobs deliberately not echoed: stdout is part of the determinism
  // contract and must be byte-identical for any worker count.
  std::printf("\nseed %llu, budget %d\n",
              static_cast<unsigned long long>(opts.seed), budget);

  // --- the protocol-seeded campaign owns the model/report/graph -------------
  fuzz::CampaignOptions protocol_options;
  protocol_options.seed = opts.seed;
  protocol_options.jobs = opts.jobs;
  protocol_options.budget = budget;
  protocol_options.cold_boot = branch.cold;
  protocol_options.checkpoint_path = branch.checkpoint_path;
  protocol_options.resume_path = branch.resume_path;
  protocol_options.seed_from_analysis = true;
  protocol_options.seed_from_protocol = true;
  fuzz::CampaignRunner runner(protocol_options);
  if (Status status = runner.Prepare(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const analysis::AnalysisReport& report = runner.report();
  const analysis::protocol::ProtocolGraph& graph = *runner.protocol_graph();
  const analysis::protocol::GraphStats& gs = graph.stats();

  std::printf("\ngraph: %zu entries, %zu minting, %zu edges "
              "(%zu explicit, %zu cross-service)\n",
              gs.nodes, gs.minting_entries, gs.edges, gs.explicit_edges,
              gs.cross_service_edges);
  std::printf("chains: %zu (%zu multi-service, %zu truncated by cap)\n",
              gs.chains, gs.multi_service_chains, gs.truncated_chains);

  std::map<int, int> depth_histogram;
  for (const analysis::protocol::ProtocolChain& chain : graph.chains()) {
    ++depth_histogram[chain.depth()];
  }
  std::printf("chain depth histogram:");
  for (const auto& [depth, count] : depth_histogram) {
    std::printf("  %d:%d", depth, count);
  }
  std::printf("\n");

  // Multi-service inventory: the acquire-from-A/retain-via-B chains, in the
  // graph's canonical order, capped for the report (count is exact).
  constexpr std::size_t kInventoryCap = 12;
  std::vector<std::string> inventory;
  for (const analysis::protocol::ProtocolChain& chain : graph.chains()) {
    if (!chain.multi_service) continue;
    if (inventory.size() >= kInventoryCap) break;
    inventory.push_back(ChainPath(chain, report));
  }
  std::printf("\nmulti-service chains (%zu total, first %zu):\n",
              gs.multi_service_chains, inventory.size());
  for (const std::string& path : inventory) {
    std::printf("  %s\n", path.c_str());
  }

  // --- campaigns at equal budget: none vs analysis vs protocol seeding ------
  const fuzz::CampaignResult protocol_result = runner.Run();

  fuzz::CampaignOptions analysis_options = protocol_options;
  analysis_options.seed_from_protocol = false;
  fuzz::CampaignRunner analysis_runner(analysis_options);
  const fuzz::CampaignResult analysis_result = analysis_runner.Run();

  fuzz::CampaignOptions unseeded_options = protocol_options;
  unseeded_options.seed_from_analysis = false;
  unseeded_options.seed_from_protocol = false;
  fuzz::CampaignRunner unseeded_runner(unseeded_options);
  const fuzz::CampaignResult unseeded_result = unseeded_runner.Run();

  // The directed verifier's census at the same seed is the re-find yardstick.
  dynamic::VerifyOptions verify_options;
  verify_options.max_calls = 4000;
  verify_options.probe_calls = 1200;
  verify_options.gc_every_calls = 250;
  verify_options.seed = opts.seed;
  const std::vector<std::size_t> candidates = report.Candidates();
  const std::vector<dynamic::Verdict> census =
      harness::RunOrdered<dynamic::Verdict>(
          candidates.size(), opts.jobs, [&](std::size_t i) {
            dynamic::JgreVerifier verifier(verify_options);
            return verifier.Verify(report.interfaces[candidates[i]],
                                   runner.model());
          });
  const fuzz::ConsistencyReport protocol_cons =
      fuzz::CrossCheck(protocol_result.findings, report, census);
  const fuzz::ConsistencyReport analysis_cons =
      fuzz::CrossCheck(analysis_result.findings, report, census);
  const fuzz::ConsistencyReport unseeded_cons =
      fuzz::CrossCheck(unseeded_result.findings, report, census);

  std::printf("\nre-found census interfaces at a %d-execution budget "
              "(census: %d):\n", budget, protocol_cons.census_total);
  std::printf("  unseeded:         %zu\n", unseeded_cons.refound.size());
  std::printf("  analysis-seeded:  %zu\n", analysis_cons.refound.size());
  std::printf("  protocol-seeded:  %zu (floor: %d)\n",
              protocol_cons.refound.size(), min_refound);
  for (const std::string& id : protocol_cons.not_refound) {
    std::printf("  still missed: %s\n", id.c_str());
  }
  std::printf("  protocol-seeded false positives: %zu (must be 0)\n",
              protocol_cons.false_positives.size());

  // --- the protocol hunt over (analysis, graph, findings) -------------------
  detect::DataSources sources;
  sources.code_model = &runner.model();
  sources.analysis = &report;
  sources.protocol = &graph;
  sources.fuzz_findings = &protocol_result.findings;
  const detect::ProtocolChainHunt hunt;
  const std::vector<detect::Detection> detections =
      hunt.Run(sources, detect::Scope{});
  int confirmed = 0;
  int witnessed = 0;
  for (const detect::Detection& d : detections) {
    if (d.certainty == detect::Certainty::kConfirmed) ++confirmed;
    if (d.has_witness()) ++witnessed;
  }
  std::printf("\n%s: %zu detections (%d confirmed by a reproducer, "
              "%d carrying a taint witness)\n",
              std::string(hunt.id()).c_str(), detections.size(), confirmed,
              witnessed);

  if (opts.emit_json) {
    harness::Json histogram = harness::Json::Object();
    for (const auto& [depth, count] : depth_histogram) {
      histogram.Set(std::to_string(depth), count);
    }
    harness::Json detections_json = harness::Json::Array();
    for (const detect::Detection& d : detections) {
      detections_json.Push(harness::Json::Object()
                               .Set("interface_id", d.interface_id)
                               .Set("certainty",
                                    detect::CertaintyName(d.certainty))
                               .Set("note", d.note)
                               .Set("has_witness", d.has_witness())
                               .Set("has_reproducer", d.has_reproducer()));
    }
    // Jobs-invariant report: no wall-clock, record_jobs=false.
    harness::BenchReport bench_report(spec.name, opts, /*schema_version=*/1,
                                      /*record_jobs=*/false);
    bench_report.Set("budget", budget)
        .Set("graph",
             harness::Json::Object()
                 .Set("nodes", gs.nodes)
                 .Set("minting_entries", gs.minting_entries)
                 .Set("edges", gs.edges)
                 .Set("explicit_edges", gs.explicit_edges)
                 .Set("cross_service_edges", gs.cross_service_edges)
                 .Set("chains", gs.chains)
                 .Set("multi_service_chains", gs.multi_service_chains)
                 .Set("truncated_chains", gs.truncated_chains))
        .Set("chain_depth_histogram", std::move(histogram))
        .Set("multi_service_inventory",
             harness::Json::Object()
                 .Set("total", gs.multi_service_chains)
                 .Set("listed", StringArray(inventory)))
        .Set("hunt",
             harness::Json::Object()
                 .Set("id", std::string(hunt.id()))
                 .Set("detections", detections.size())
                 .Set("confirmed", confirmed)
                 .Set("witnessed", witnessed)
                 .Set("items", std::move(detections_json)))
        .Set("seeding",
             harness::Json::Object()
                 .Set("census_total", protocol_cons.census_total)
                 .Set("unseeded_refound",
                      static_cast<int>(unseeded_cons.refound.size()))
                 .Set("analysis_refound",
                      static_cast<int>(analysis_cons.refound.size()))
                 .Set("protocol_refound",
                      static_cast<int>(protocol_cons.refound.size()))
                 .Set("protocol_not_refound",
                      StringArray(protocol_cons.not_refound))
                 .Set("protocol_seed_executions",
                      protocol_result.stats.protocol_seed_executions)
                 .Set("analysis_seed_executions",
                      protocol_result.stats.seed_executions)
                 .Set("false_positives",
                      StringArray(protocol_cons.false_positives)));
    if (!bench_report.Write()) return 1;
  }

  bool ok = true;
  if (gs.multi_service_chains == 0) {
    std::fprintf(stderr, "FAIL: no multi-service retention chain found\n");
    ok = false;
  }
  if (witnessed != static_cast<int>(detections.size())) {
    std::fprintf(stderr,
                 "FAIL: %zu detections but only %d carry a taint witness\n",
                 detections.size(), witnessed);
    ok = false;
  }
  if (static_cast<int>(protocol_cons.refound.size()) < min_refound) {
    std::fprintf(stderr,
                 "FAIL: protocol-seeded campaign re-found %zu (< %d)\n",
                 protocol_cons.refound.size(), min_refound);
    ok = false;
  }
  if (protocol_cons.refound.size() < analysis_cons.refound.size()) {
    std::fprintf(stderr,
                 "FAIL: protocol seeding re-found %zu < analysis seeding's "
                 "%zu\n",
                 protocol_cons.refound.size(), analysis_cons.refound.size());
    ok = false;
  }
  if (!protocol_cons.false_positives.empty()) {
    std::fprintf(stderr, "FAIL: %zu false positives\n",
                 protocol_cons.false_positives.size());
    ok = false;
  }
  return ok ? 0 : 1;
}
