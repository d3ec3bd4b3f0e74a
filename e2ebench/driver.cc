// e2e_driver — one run of one workload of the end-to-end benchmark.
//
//   e2e_driver --workload fuzz|fleet|matrix|paper [--seed N] [--seconds S]
//              [--trace 0|1] [--trace-out FILE]
//
// Every workload runs on 4 pool threads, or on as many as the host has
// cores if that is fewer.
//
// --trace 0 times the workload from outside, with spans off: whole passes,
// each with a fresh set-up, run until --seconds have gone by, and the mean
// time of one set-up build and the median pass throughput are reported.
// --trace 1 runs one untraced pass as the reference, then traced passes for
// --seconds, and reports the per-layer figures. Either way every pass's
// outputs are checked, and the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/log.h"
#include "spans.h"
#include "workloads.h"

namespace e2e {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 4;  // not a flag: see main()
  std::string trace_out;
};

// Passes measured per untraced run, however short --seconds is.
constexpr int kMinPasses = 3;

bool ParseUnsigned(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

bool Parse(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--trace-out") {
      opts->trace_out = value;
    } else if (!ParseUnsigned(value, &number)) {
      std::fprintf(stderr, "error: %s wants a non-negative integer, got '%s'\n",
                   flag.c_str(), value);
      return false;
    } else if (flag == "--seed") {
      opts->seed = number;
    } else if (flag == "--seconds" && number >= 1) {
      opts->seconds = static_cast<double>(number);
    } else if (flag == "--trace" && number <= 1) {
      opts->trace = number == 1;
    } else {
      std::fprintf(stderr, "error: bad flag or value: %s %s\n", flag.c_str(),
                   value);
      return false;
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), opts->workload) == names.end()) {
    std::fprintf(stderr, "error: --workload must be one of fuzz, fleet, "
                         "matrix, paper\n");
    return false;
  }
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// Peak resident memory of this process so far.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void Add(const PassResult& pass, int index) {
    attempted += pass.checks;
    failed += static_cast<std::int64_t>(pass.failures.size());
    for (const std::string& failure : pass.failures) {
      std::fprintf(stderr, "FAIL (pass %d): %s\n", index, failure.c_str());
    }
  }
  // The self-test: simulated work depends only on the seed.
  void Same(const std::string& what, std::int64_t a, std::int64_t b) {
    ++attempted;
    if (a != b) {
      ++failed;
      std::fprintf(stderr, "FAIL: %s differs: %lld vs %lld\n", what.c_str(),
                   static_cast<long long>(a), static_cast<long long>(b));
    }
  }
};

void PrintResult(const Tally& tally, const std::map<std::string, Metric>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(1, tally.attempted)),
              static_cast<long long>(tally.failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

// Runs the checks that need the whole run, then tallies every pass. The
// self-test: simulated work depends only on the seed, so every pass must
// report the first one's units, `found` and work counts.
void CheckPasses(Workload& workload, std::vector<PassResult>* passes,
                 Tally* tally) {
  workload.CheckOutputs(passes);
  const PassResult& first = passes->front();
  for (std::size_t i = 0; i < passes->size(); ++i) {
    const PassResult& pass = (*passes)[i];
    tally->Add(pass, static_cast<int>(i));
    if (i == 0) continue;
    tally->Same("units", first.units, pass.units);
    tally->Same("found", first.found, pass.found);
    for (const auto& [name, value] : first.counts) {
      auto it = pass.counts.find(name);
      tally->Same(name, value, it == pass.counts.end() ? -1 : it->second);
    }
  }
  std::fprintf(stderr, "%zu passes, %lld units each\n", passes->size(),
               static_cast<long long>(first.units));
  for (const auto& [name, value] : first.counts) {
    std::fprintf(stderr, "  %s = %lld\n", name.c_str(),
                 static_cast<long long>(value));
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::map<std::string, Metric> Untraced(Workload& workload, const Options& opts,
                                       Tally* tally) {
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<PassResult> passes;
  const auto start = std::chrono::steady_clock::now();
  while (SecondsSince(start) < opts.seconds ||
         static_cast<int>(passes.size()) < kMinPasses) {
    passes.push_back(workload.Pass(nullptr));
    const PassResult& pass = passes.back();
    setups.insert(setups.end(), pass.setup_s.begin(), pass.setup_s.end());
    rates.push_back(static_cast<double>(pass.units) / pass.run_s);
  }
  // Read before the checks run: their reference work is not the workload's.
  const double peak_rss_mb = PeakRssMb();
  CheckPasses(workload, &passes, tally);
  std::fprintf(stderr, "  units/s by pass:");
  for (const double rate : rates) std::fprintf(stderr, " %.1f", rate);
  std::fprintf(stderr, "\n  set-up ms by pass (median build):");
  for (const PassResult& pass : passes) {
    std::fprintf(stderr, " %.3f", Quantile(pass.setup_s, 0.5) * 1e3);
  }
  std::fprintf(stderr, "\n  %zu set-up builds\n", setups.size());
  // The mean, not the median: the host's single-thread speed switches
  // between a fast and a slow state that each last a whole pass's set-up
  // builds, so the median of a run's builds jumps between the two states
  // while the mean moves with the share of time spent in each.
  double setup_total = 0.0;
  for (const double setup : setups) setup_total += setup;
  return {
      {"units_per_s", {Quantile(rates, 0.5), "1/s"}},
      {"setup_s", {setup_total / static_cast<double>(setups.size()), "s"}},
      {"peak_rss_mb", {peak_rss_mb, "MB"}},
      {"found", {static_cast<double>(passes.front().found), "count"}},
  };
}

// Layers whose public calls carry spans, by span name.
const std::vector<std::string>& SpannedLayers() {
  static const std::vector<std::string> layers = {
      "snapshot.restore", "snapshot.capture",  "core.boot",
      "core.teardown",    "sim.boot_prefix",   "sim.create_device",
      "model.build",      "analysis.run",      "protocol.build",
      "fuzz.execute",     "fuzz.confirm",      "fleet.scenario",
      "fleet.aggregate",  "experiment.attack", "dynamic.verify"};
  return layers;
}

std::map<std::string, Metric> Traced(Workload& workload, const Options& opts,
                                     Tally* tally) {
  // The untraced reference: every traced pass must reproduce its counts.
  std::vector<PassResult> passes;
  passes.push_back(workload.Pass(nullptr));

  SetTracing(true);
  std::map<std::string, double> summed;
  const auto start = std::chrono::steady_clock::now();
  while (SecondsSince(start) < opts.seconds || passes.size() < 2) {
    LayerFigures figures;
    passes.push_back(workload.Pass(&figures));
    for (const auto& [name, value] : figures) summed[name] += value;
  }
  SetTracing(false);
  const std::vector<Span> spans = CollectSpans();
  if (!opts.trace_out.empty() && !WriteChromeTrace(spans, opts.trace_out)) {
    std::fprintf(stderr, "warning: could not write %s\n", opts.trace_out.c_str());
  }

  CheckPasses(workload, &passes, tally);
  const double traced = static_cast<double>(passes.size() - 1);
  // Per-pass means of the figures; counts repeat, so their mean is exact.
  for (auto& [name, value] : summed) value /= traced;
  const std::map<std::string, SpanStats> stats = ReduceSpans(spans);
  const auto find = [&stats](const std::string& name) {
    auto it = stats.find(name);
    return it == stats.end() ? SpanStats{} : it->second;
  };
  // Shares are of the pool's capacity over the workload's timed batch
  // (the "bench.pass" spans): self time / (pass wall time x jobs).
  const double capacity_ms = find("bench.pass").total_ms * opts.jobs;
  const auto share = [capacity_ms](double ms) {
    return capacity_ms > 0.0 ? ms / capacity_ms : 0.0;
  };

  std::map<std::string, Metric> m;
  for (const std::string& layer : SpannedLayers()) {
    const SpanStats s = find(layer);
    m[layer + "_ms"] = {Quantile(s.durations_ms, 0.5), "ms"};
    m[layer + "_ms.p90"] = {Quantile(s.durations_ms, 0.9), "ms"};
    m[layer + "_ms.n"] = {static_cast<double>(s.durations_ms.size()), "count"};
    m[layer + ".self_frac"] = {share(s.self_ms), "fraction"};
  }
  const auto value = [&summed](const std::string& name) {
    auto it = summed.find(name);
    return it == summed.end() ? 0.0 : it->second;
  };
  const auto ns_per_call = [&](const std::string& layer,
                               const std::string& calls) {
    const double n = value(calls);
    return n > 0.0 ? find(layer).total_ms * 1e6 / traced / n : 0.0;
  };
  m["fleet.ns_per_call"] = {ns_per_call("fleet.scenario", "fleet.calls"), "ns"};
  m["experiment.ns_per_call"] = {
      ns_per_call("experiment.attack", "experiment.calls"), "ns"};
  m["dynamic.ns_per_call"] = {ns_per_call("dynamic.verify", "dynamic.calls"),
                              "ns"};
  // Total time of spans named in `names` whose parent span is named `parent`.
  std::map<std::uint64_t, const char*> name_of;
  for (const Span& span : spans) name_of[span.id] = span.name;
  const auto under = [&](const std::string& parent,
                         const std::set<std::string>& names) {
    double ms = 0.0;
    for (const Span& span : spans) {
      auto it = name_of.find(span.parent);
      if (it != name_of.end() && parent == it->second &&
          names.count(span.name) != 0) {
        ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      }
    }
    return ms;
  };
  // A replayed screening execution's reset (boot + restore + teardown) as a
  // share of the execution; only the fuzz replay has "bench.screen" tasks.
  const double screen_ms = under("bench.pass", {"bench.screen"});
  m["fuzz.reset_frac"] = {
      screen_ms > 0.0 ? under("bench.screen", {"core.boot", "snapshot.restore",
                                               "core.teardown"}) /
                            screen_ms
                      : 0.0,
      "fraction"};
  // Time the batch's wrapped tasks kept the pool busy.
  m["harness.busy_frac"] = {
      share(under("bench.pass",
                  {"bench.screen", "bench.confirm", "bench.minimize",
                   "bench.device", "fleet.scenario", "dynamic.verify"})),
      "fraction"};
  // The workloads' non-span figures, with their units.
  const std::pair<const char*, const char*> figure_units[] = {
      {"snapshot.image_mb", "MB"},     {"fuzz.calls_per_exec", "ratio"},
      {"fuzz.corpus_yield", "ratio"},  {"fuzz.confirm_yield", "ratio"},
      {"arms.denied_frac", "ratio"},   {"binder.calls", "count"},
      {"runtime.jgr_adds", "count"},   {"fuzz.executions", "count"}};
  for (const auto& [name, unit] : figure_units) m[name] = {value(name), unit};
  std::fprintf(stderr, "%zu spans\n", spans.size());
  return m;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opts;
  if (!e2e::Parse(argc, argv, &opts)) return 2;
  // Never more workers than the host has cores.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  opts.jobs = cores > 0 ? std::min(4, cores) : 4;
  jgre::SetLogLevel(jgre::LogLevel::kNone);

  std::unique_ptr<e2e::Workload> workload =
      e2e::MakeWorkload(opts.workload, opts.seed, opts.jobs);
  e2e::Tally tally;
  std::map<std::string, e2e::Metric> metrics;
  try {
    metrics = opts.trace ? e2e::Traced(*workload, opts, &tally)
                         : e2e::Untraced(*workload, opts, &tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  e2e::PrintResult(tally, metrics);
  return 0;
}
