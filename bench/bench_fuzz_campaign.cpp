// bench_fuzz_campaign — runs a coverage-guided fuzzing campaign (src/fuzz)
// against the simulated image and reports:
//   * the campaign's confirmed findings (service, method, exhaustion kind,
//     confirmed growth rate, minimized witness length),
//   * a consistency report cross-checking the findings against the static
//     pipeline and a directed-verifier census run at the same seed: how many
//     of the census-vulnerable interfaces the fuzzer re-found, what it found
//     that the static stages were blind to (fd exhaustion), and — the
//     zero-tolerance check — any finding the census says is bounded,
//   * snapshot-reset throughput: executions/second with warm restores vs
//     re-simulating the boot+warmup prefix per execution (target: >= 3x).
//
// The whole campaign is a pure function of --seed and --budget: the findings
// and consistency blocks of BENCH_fuzz.json are byte-identical across runs
// and across --jobs, which CI asserts with scripts/validate_fuzz_findings.py.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "bench_util.h"
#include "common/log.h"
#include "dynamic/verifier.h"
#include "fuzz/campaign.h"
#include "harness/branch_runner.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"

using namespace jgre;

namespace {

harness::Json StringArray(const std::vector<std::string>& values) {
  harness::Json arr = harness::Json::Array();
  for (const std::string& v : values) arr.Push(v);
  return arr;
}

}  // namespace

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "fuzz";
  spec.default_seed = 42;
  spec.extra_flags = harness::BranchFlags();
  spec.extra_flags.push_back(
      {"--budget", true, "screening executions across all rounds (default 240)"});
  spec.extra_flags.push_back(
      {"--min-refound", true,
       "fail unless >= N census interfaces are re-found (default 10)"});
  spec.extra_flags.push_back(
      {"--min-speedup", true,
       "fail unless warm/cold exec throughput ratio >= X (default 3.0)"});
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;
  SetLogLevel(LogLevel::kError);

  int budget = 240;
  int min_refound = 10;
  double min_speedup = 3.0;
  if (!harness::IntFlag(opts, "--budget", &budget) ||
      !harness::IntFlag(opts, "--min-refound", &min_refound) ||
      !harness::DoubleFlag(opts, "--min-speedup", &min_speedup)) {
    return 2;
  }
  const harness::BranchOptions branch =
      harness::BranchOptionsFromHarness(opts);

  bench::PrintBanner("FUZZ CAMPAIGN",
                     "Coverage-guided binder IPC fuzzing with "
                     "snapshot-based resets");
  std::printf("\nseed %llu, budget %d, jobs %d%s\n",
              static_cast<unsigned long long>(opts.seed), budget, opts.jobs,
              branch.cold ? " (cold: no snapshot resets)" : "");

  fuzz::CampaignOptions campaign_options;
  campaign_options.seed = opts.seed;
  campaign_options.jobs = opts.jobs;
  campaign_options.budget = budget;
  campaign_options.cold_boot = branch.cold;
  campaign_options.checkpoint_path = branch.checkpoint_path;
  campaign_options.resume_path = branch.resume_path;
  campaign_options.seed_from_analysis = true;
  fuzz::CampaignRunner runner(campaign_options);
  if (Status status = runner.Prepare(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const fuzz::CampaignResult result = runner.Run();

  std::printf("\ncampaign: %d seed + %d screen + %d confirm + %d minimize = "
              "%d executions in %.1f ms (%.1f exec/s)\n",
              result.stats.seed_executions, result.stats.screen_executions,
              result.stats.confirm_executions,
              result.stats.minimize_executions, result.stats.total_executions,
              result.stats.wall_ms, result.stats.execs_per_sec);
  std::printf("corpus: %d seeds covering %zu signature elements; %d suspects\n",
              result.stats.corpus_entries, result.stats.signature_elements,
              result.stats.suspects);
  std::printf("\n%-64s %-14s %8s %5s\n", "FINDING", "KIND", "RATE", "MIN");
  for (const fuzz::Finding& f : result.findings) {
    std::printf("%-64s %-14s %8.3f %5d\n", f.id.c_str(),
                fuzz::ExhaustionKindName(f.kind), f.growth_per_call,
                f.minimized_calls);
  }
  std::printf("%zu confirmed findings\n", result.findings.size());

  // --- census cross-check: the directed verifier at the same seed -----------
  dynamic::VerifyOptions verify_options;
  verify_options.max_calls = 4000;
  verify_options.probe_calls = 1200;
  verify_options.gc_every_calls = 250;
  verify_options.seed = opts.seed;
  const std::vector<std::size_t> candidates = runner.report().Candidates();
  const std::vector<dynamic::Verdict> census =
      harness::RunOrdered<dynamic::Verdict>(
          candidates.size(), opts.jobs, [&](std::size_t i) {
            dynamic::JgreVerifier verifier(verify_options);
            return verifier.Verify(runner.report().interfaces[candidates[i]],
                                   runner.model());
          });
  const fuzz::ConsistencyReport consistency =
      fuzz::CrossCheck(result.findings, runner.report(), census);
  std::printf("\nconsistency vs census (%d exploitable interfaces):\n",
              consistency.census_total);
  std::printf("  re-found by fuzzer:   %zu (floor: %d)\n",
              consistency.refound.size(), min_refound);
  std::printf("  not re-found:         %zu\n", consistency.not_refound.size());
  std::printf("  static-pipeline blind: %zu\n", consistency.static_blind.size());
  for (const std::string& id : consistency.static_blind) {
    std::printf("    %s\n", id.c_str());
  }
  std::printf("  false positives:      %zu (must be 0)\n",
              consistency.false_positives.size());
  for (const std::string& id : consistency.false_positives) {
    std::printf("    FALSE POSITIVE: %s\n", id.c_str());
  }

  // --- seeded vs unseeded: census re-finds at the same budget ---------------
  fuzz::CampaignOptions unseeded_options = campaign_options;
  unseeded_options.seed_from_analysis = false;
  fuzz::CampaignRunner unseeded_runner(unseeded_options);
  const fuzz::CampaignResult unseeded = unseeded_runner.Run();
  const fuzz::ConsistencyReport unseeded_consistency =
      fuzz::CrossCheck(unseeded.findings, runner.report(), census);
  std::printf("\nseeding (same %d-execution budget): seeded re-found %zu, "
              "unseeded re-found %zu\n",
              budget, consistency.refound.size(),
              unseeded_consistency.refound.size());

  // --- warm vs cold reset throughput ---------------------------------------
  constexpr int kWarmExecs = 16;
  constexpr int kColdExecs = 6;
  const double warm_eps = runner.MeasureResetThroughput(kWarmExecs);
  fuzz::CampaignOptions cold_options = campaign_options;
  cold_options.cold_boot = true;
  cold_options.checkpoint_path.clear();
  cold_options.resume_path.clear();
  fuzz::CampaignRunner cold_runner(cold_options);
  const double cold_eps = cold_runner.MeasureResetThroughput(kColdExecs);
  const double speedup = cold_eps > 0.0 ? warm_eps / cold_eps : 0.0;
  std::printf("\nreset throughput: warm %.1f exec/s, cold %.1f exec/s -> "
              "%.2fx (floor: %.1fx)\n",
              warm_eps, cold_eps, speedup, min_speedup);

  if (opts.emit_json) {
    harness::Json findings = harness::Json::Array();
    for (const fuzz::Finding& f : result.findings) {
      findings.Push(harness::Json::Object()
                        .Set("id", f.id)
                        .Set("service", f.service)
                        .Set("method", f.method)
                        .Set("kind", fuzz::ExhaustionKindName(f.kind))
                        .Set("growth_per_call", f.growth_per_call)
                        .Set("victim_aborted",
                             f.kind == fuzz::ExhaustionKind::kAbort)
                        .Set("minimized_calls", f.minimized_calls));
    }
    // Wall-clock bench (execs/sec, speedups): stamp the resolved --jobs.
    harness::BenchReport report(spec.name, opts, /*schema_version=*/1,
                                /*record_jobs=*/true);
    report.Set("budget", budget)
        .Set("campaign",
             harness::Json::Object()
                 .Set("seed_executions", result.stats.seed_executions)
                 .Set("screen_executions", result.stats.screen_executions)
                 .Set("confirm_executions", result.stats.confirm_executions)
                 .Set("minimize_executions", result.stats.minimize_executions)
                 .Set("total_executions", result.stats.total_executions)
                 .Set("suspects", result.stats.suspects)
                 .Set("corpus_entries", result.stats.corpus_entries)
                 .Set("signature_elements", result.stats.signature_elements)
                 .Set("wall_ms", result.stats.wall_ms)
                 .Set("execs_per_sec", result.stats.execs_per_sec))
        .Set("findings", std::move(findings))
        .Set("consistency",
             harness::Json::Object()
                 .Set("census_total", consistency.census_total)
                 .Set("refound_count",
                      static_cast<int>(consistency.refound.size()))
                 .Set("refound", StringArray(consistency.refound))
                 .Set("not_refound", StringArray(consistency.not_refound))
                 .Set("static_blind", StringArray(consistency.static_blind))
                 .Set("false_positives",
                      StringArray(consistency.false_positives)))
        .Set("seeding",
             harness::Json::Object()
                 .Set("enabled", true)
                 .Set("seed_executions", result.stats.seed_executions)
                 .Set("seeded_refound",
                      static_cast<int>(consistency.refound.size()))
                 .Set("unseeded_refound",
                      static_cast<int>(unseeded_consistency.refound.size()))
                 .Set("unseeded_findings",
                      static_cast<int>(unseeded.findings.size())))
        .Set("throughput",
             harness::Json::Object()
                 .Set("warm_execs", kWarmExecs)
                 .Set("cold_execs", kColdExecs)
                 .Set("warm_execs_per_sec", warm_eps)
                 .Set("cold_execs_per_sec", cold_eps)
                 .Set("speedup", speedup));
    if (!report.Write()) return 1;
  }

  bool ok = true;
  if (static_cast<int>(consistency.refound.size()) < min_refound) {
    std::fprintf(stderr, "FAIL: re-found %zu census interfaces (< %d)\n",
                 consistency.refound.size(), min_refound);
    ok = false;
  }
  if (!consistency.false_positives.empty()) {
    std::fprintf(stderr, "FAIL: %zu false positives\n",
                 consistency.false_positives.size());
    ok = false;
  }
  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: warm/cold speedup %.2fx (< %.1fx)\n", speedup,
                 min_speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
