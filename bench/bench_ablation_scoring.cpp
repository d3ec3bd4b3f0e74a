// bench_ablation_scoring — the design-choice ablation DESIGN.md calls out:
// Algorithm 1's two scorers measured against each other — the batched
// difference-array engine (JgreScoreForApp) and the naive O(interval-length)
// vote array that serves as its oracle (NaiveJgreScoreForApp). Synthetic
// incident data of growing size; the naive engine's cost grows with Δ
// (wider vote intervals), the batched engine's flat passes do not.
//
// Every workload is first scored by both engines (jobs-wide via the shared
// harness); they must agree score-for-score and counter-for-counter, or the
// bench exits 1. Those scores and work counters are the BENCH_*.json
// payload, byte-identical for any --jobs. Wall-clock cost per engine is
// then timed serially with std::chrono::steady_clock and printed to the
// console only.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "defense/scoring.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"

using namespace jgre;

namespace {

using Clock = std::chrono::steady_clock;

// Each engine is timed for at least this long (and at least kMinRuns runs).
constexpr double kMinTimedSeconds = 0.2;
constexpr int kMinRuns = 3;

struct Workload {
  std::vector<defense::IpcEvent> calls;
  std::vector<TimeUs> adds;
};

// Synthesizes an attack-shaped recording: `n` IPC calls of one type at ~1 ms
// cadence, each causing two JGR adds ~500 µs later (plus jitter).
Workload MakeWorkload(int n, std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  TimeUs t = 1'000'000;
  for (int i = 0; i < n; ++i) {
    t += 800 + rng.UniformU64(400);
    w.calls.push_back(defense::IpcEvent{t, defense::MakeIpcTypeKey(1, 1)});
    const TimeUs add = t + 450 + rng.UniformU64(150);
    w.adds.push_back(add);
    w.adds.push_back(add + 5 + rng.UniformU64(20));
  }
  return w;
}

struct Case {
  int ipc_calls;
  DurationUs delta_us;
};

struct Check {
  std::int64_t score = 0;
  defense::ScoringCost cost;
  bool agree = false;
};

defense::ScoringParams ParamsFor(const Case& c) {
  defense::ScoringParams params;
  params.delta_us = c.delta_us;
  return params;
}

bool SameCost(const defense::ScoringCost& a, const defense::ScoringCost& b) {
  return a.ipc_events == b.ipc_events && a.jgr_events == b.jgr_events &&
         a.pairs == b.pairs && a.range_ops == b.range_ops;
}

// Mean wall-clock milliseconds per `score()` pass.
template <typename Score>
double TimeEngineMs(const Score& score) {
  int runs = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  while (runs < kMinRuns || elapsed < kMinTimedSeconds) {
    (void)score();
    ++runs;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return 1e3 * elapsed / runs;
}

}  // namespace

int main(int argc, char** argv) {
  harness::HarnessSpec spec;
  spec.name = "ablation_scoring";
  spec.default_seed = 99;
  const harness::HarnessOptions opts =
      harness::ParseHarnessOptions(spec, argc, argv);
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;

  bench::PrintBanner("ABLATION: ALGORITHM 1 ENGINES",
                     "Batched difference array vs the naive vote array");
  const std::vector<Case> cases = {
      {500, 1800}, {2000, 1800}, {8000, 1800}, {2000, 10000}};
  std::vector<Workload> workloads;
  for (const Case& c : cases) {
    workloads.push_back(MakeWorkload(c.ipc_calls, opts.seed));
  }

  const std::vector<Check> checks = harness::RunOrdered<Check>(
      cases.size(), opts.jobs, [&](std::size_t i) {
        const Workload& w = workloads[i];
        const defense::ScoringParams params = ParamsFor(cases[i]);
        Check batched;
        batched.score = defense::JgreScoreForApp(w.calls, w.adds, params,
                                                 &batched.cost);
        Check naive;
        naive.score = defense::NaiveJgreScoreForApp(w.calls, w.adds, params,
                                                    &naive.cost);
        batched.agree =
            batched.score == naive.score && SameCost(batched.cost, naive.cost);
        return batched;
      });

  harness::Json rows = harness::Json::Array();
  bool all_agree = true;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Check& check = checks[i];
    all_agree = all_agree && check.agree;
    rows.Push(harness::Json::Object()
                  .Set("ipc_calls", cases[i].ipc_calls)
                  .Set("delta_us", cases[i].delta_us)
                  .Set("score", check.score)
                  .Set("pairs", check.cost.pairs)
                  .Set("range_ops", check.cost.range_ops)
                  .Set("engines_agree", check.agree));
    if (!check.agree) {
      std::fprintf(stderr,
                   "scoring engines disagree at n=%d delta=%llu us\n",
                   cases[i].ipc_calls,
                   static_cast<unsigned long long>(cases[i].delta_us));
    }
  }
  if (!all_agree) return 1;

  std::printf("\n%9s %9s %8s %12s %12s %9s\n", "ipc_calls", "delta_us",
              "score", "batched_ms", "naive_ms", "speedup");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Workload& w = workloads[i];
    const defense::ScoringParams params = ParamsFor(cases[i]);
    const double batched_ms = TimeEngineMs(
        [&] { return defense::JgreScoreForApp(w.calls, w.adds, params); });
    const double naive_ms = TimeEngineMs(
        [&] { return defense::NaiveJgreScoreForApp(w.calls, w.adds, params); });
    std::printf("%9d %9llu %8lld %12.3f %12.3f %8.1fx\n", cases[i].ipc_calls,
                static_cast<unsigned long long>(cases[i].delta_us),
                static_cast<long long>(checks[i].score), batched_ms, naive_ms,
                naive_ms / batched_ms);
  }
  std::printf("\n(wall-clock ms per scoring pass; console only, never in "
              "the JSON report)\n");

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    report.Set("cases", std::move(rows));
    if (!report.Write()) return 1;
  }
  return 0;
}
