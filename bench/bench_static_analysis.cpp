// bench_static_analysis — runs the summary-based interprocedural taint
// engine (src/analysis/taint) against the simulated AOSP image and reports:
//   * engine workload: methods, call edges, SCC structure, fixpoint
//     iterations, summary-computation runtime (console only),
//   * precision/recall of the candidate set against the paper's
//     57-interface census (the attack registry ground truth),
//   * the witness-path length histogram over all surviving candidates.
//
// BENCH_analysis.json carries the summary blocks above; --analysis-json PATH
// additionally writes the full per-interface witness report. Neither holds
// a wall-clock field, so two runs at any --jobs are byte-identical, which CI
// asserts with cmp; scripts/validate_analysis_report.py validates the
// witness report. Verdict-for-verdict agreement with the entry-local
// detector's frozen verdicts is taint_engine_test's census gate.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pipeline.h"
#include "attack/vuln_registry.h"
#include "bench_util.h"
#include "common/log.h"
#include "core/android_system.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "model/corpus.h"

using namespace jgre;

namespace {

harness::Json WitnessJson(const analysis::taint::WitnessPath& witness) {
  harness::Json steps = harness::Json::Array();
  for (const analysis::taint::WitnessStep& step : witness.steps) {
    steps.Push(harness::Json::Object()
                   .Set("kind", analysis::taint::StepKindName(step.kind))
                   .Set("frame", step.frame));
  }
  return harness::Json::Object()
      .Set("reason", witness.reason)
      .Set("steps", std::move(steps));
}

}  // namespace

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "analysis";
  spec.default_seed = 42;
  spec.extra_flags.push_back(
      {"--analysis-json", true,
       "also write the full per-interface witness report to PATH"});
  spec.extra_flags.push_back(
      {"--min-precision", true,
       "fail unless candidate precision vs the census >= X (default 0.9)"});
  spec.extra_flags.push_back(
      {"--min-recall", true,
       "fail unless candidate recall vs the census >= X (default 1.0)"});
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;
  SetLogLevel(LogLevel::kError);

  double min_precision = 0.9;
  double min_recall = 1.0;
  if (!harness::DoubleFlag(opts, "--min-precision", &min_precision) ||
      !harness::DoubleFlag(opts, "--min-recall", &min_recall)) {
    return 2;
  }

  bench::PrintBanner("STATIC ANALYSIS",
                     "Summary-based interprocedural taint engine with "
                     "witness paths");

  core::AndroidSystem system;
  system.Boot();
  const model::CodeModel model = model::BuildAospModel(system);

  const auto engine_start = std::chrono::steady_clock::now();
  const analysis::AnalysisReport report = analysis::RunAnalysis(model);
  const double engine_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - engine_start)
          .count();

  const analysis::taint::EngineStats& stats = report.engine_stats;
  std::printf("\nengine: %d java methods, %d call edges, %d SCCs "
              "(%d nontrivial, max size %d)\n",
              stats.java_methods, stats.call_edges, stats.sccs,
              stats.nontrivial_sccs, stats.max_scc_size);
  std::printf("fixpoint: %d member passes, %d summary updates, "
              "%.2f ms summaries; full pipeline %.1f ms\n",
              stats.fixpoint_iterations, stats.summary_updates,
              stats.runtime_ms, engine_wall_ms);

  // --- precision/recall vs the paper's census (attack registry) -------------
  std::set<std::pair<std::string, std::uint32_t>> census;
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    census.insert({vuln.service, vuln.code});
  }
  const std::vector<std::size_t> candidates = report.Candidates();
  int true_positives = 0;
  for (const std::size_t index : candidates) {
    const analysis::AnalyzedInterface& iface = report.interfaces[index];
    if (census.count({iface.service, iface.transaction_code}) > 0) {
      ++true_positives;
    }
  }
  const double precision =
      candidates.empty()
          ? 0.0
          : static_cast<double>(true_positives) / candidates.size();
  const double recall =
      census.empty() ? 0.0
                     : static_cast<double>(true_positives) / census.size();
  std::printf("\ncensus: %zu candidates vs %zu known-vulnerable interfaces -> "
              "precision %.3f (floor %.2f), recall %.3f (floor %.2f)\n",
              candidates.size(), census.size(), precision, min_precision,
              recall, min_recall);

  // --- witness-path length histogram ----------------------------------------
  std::map<std::size_t, int> histogram;
  int missing_witness = 0;
  for (const std::size_t index : candidates) {
    const analysis::taint::WitnessPath& witness =
        report.interfaces[index].witness;
    if (witness.empty() ||
        witness.sink() != std::string(model::kJgrSinkFunction)) {
      ++missing_witness;
      std::printf("  MISSING WITNESS: %s\n",
                  report.interfaces[index].id.c_str());
      continue;
    }
    ++histogram[witness.size()];
  }
  std::printf("\nwitness path lengths over %zu candidates "
              "(%d missing, must be 0):\n",
              candidates.size(), missing_witness);
  for (const auto& [length, count] : histogram) {
    std::printf("  %2zu frames: %3d %s\n", length, count,
                std::string(static_cast<std::size_t>(count), '#').c_str());
  }

  if (opts.emit_json) {
    harness::Json histogram_json = harness::Json::Array();
    for (const auto& [length, count] : histogram) {
      histogram_json.Push(harness::Json::Object()
                              .Set("frames", length)
                              .Set("candidates", count));
    }
    // v2: host times (summary and pipeline ms) stay on the console, so the
    // report is byte-identical across runs and --jobs values. v3: verdict
    // agreement is taint_engine_test's census gate, not a report block.
    harness::BenchReport bench_report(spec.name, opts, /*schema_version=*/3);
    bench_report.Set("engine",
             harness::Json::Object()
                 .Set("java_methods", stats.java_methods)
                 .Set("call_edges", stats.call_edges)
                 .Set("sccs", stats.sccs)
                 .Set("max_scc_size", stats.max_scc_size)
                 .Set("nontrivial_sccs", stats.nontrivial_sccs)
                 .Set("fixpoint_iterations", stats.fixpoint_iterations)
                 .Set("summary_updates", stats.summary_updates))
        .Set("census",
             harness::Json::Object()
                 .Set("candidates", static_cast<int>(candidates.size()))
                 .Set("known_vulnerable", static_cast<int>(census.size()))
                 .Set("true_positives", true_positives)
                 .Set("precision", precision)
                 .Set("recall", recall))
        .Set("witnesses",
             harness::Json::Object()
                 .Set("missing", missing_witness)
                 .Set("length_histogram", std::move(histogram_json)));
    if (!bench_report.Write()) return 1;
  }

  if (const std::string* path = harness::FlagValue(opts, "--analysis-json")) {
    harness::Json ifaces = harness::Json::Array();
    for (const analysis::AnalyzedInterface& iface : report.interfaces) {
      harness::Json entry =
          harness::Json::Object()
              .Set("id", iface.id)
              .Set("service", iface.service)
              .Set("method", iface.method)
              .Set("transaction_code", iface.transaction_code)
              .Set("risky", iface.risky)
              .Set("reaches_jgr_entry", iface.reaches_jgr_entry)
              .Set("takes_binder", iface.takes_binder)
              .Set("sifted_out", iface.sifted_out())
              .Set("sift_reason", iface.sift_reason_text())
              .Set("retention",
                   analysis::taint::RetentionName(iface.retention))
              .Set("retention_via", iface.retention_via)
              .Set("links_to_death", iface.links_to_death)
              .Set("mints_session", iface.mints_session)
              .Set("protection",
                   analysis::ProtectionClassName(iface.protection))
              .Set("permission", iface.permission)
              .Set("app_hosted", iface.app_hosted);
      if (iface.risky && !iface.sifted_out()) {
        entry.Set("witness", WitnessJson(iface.witness));
      }
      ifaces.Push(std::move(entry));
    }
    harness::Json doc = harness::Json::Object();
    doc.Set("schema", "jgre-analysis-report-v1")
        .Set("sink", std::string(model::kJgrSinkFunction))
        .Set("pipeline",
             harness::Json::Object()
                 .Set("services_registered",
                      report.ipc_methods.services_registered)
                 .Set("native_paths_total", report.jgr_entries.native_paths_total)
                 .Set("native_paths_init_only",
                      report.jgr_entries.native_paths_init_only)
                 .Set("native_paths_exploitable",
                      report.jgr_entries.native_paths_exploitable)
                 .Set("java_jgr_entries",
                      report.jgr_entries.java_entries.size()))
        .Set("interfaces", std::move(ifaces));
    if (!harness::WriteJsonFile(*path, doc)) return 1;
    std::printf("\nwrote per-interface witness report to %s\n", path->c_str());
  }

  bool ok = true;
  if (missing_witness != 0) {
    std::fprintf(stderr, "FAIL: %d candidates without a sink witness\n",
                 missing_witness);
    ok = false;
  }
  if (precision < min_precision) {
    std::fprintf(stderr, "FAIL: precision %.3f (< %.2f)\n", precision,
                 min_precision);
    ok = false;
  }
  if (recall < min_recall) {
    std::fprintf(stderr, "FAIL: recall %.3f (< %.2f)\n", recall, min_recall);
    ok = false;
  }
  return ok ? 0 : 1;
}
