// Experiment harness: ordered parallel execution of independent simulations
// plus the shared --jobs/--seed/--json CLI used by every bench binary.
//
// Determinism contract: each task builds its own core::AndroidSystem from its
// own seed and shares no mutable state with other tasks. RunOrdered() stores
// task i's result in slot i, so downstream aggregation/printing sees results
// in submission order no matter which worker finished first, and the text and
// JSON output of a bench is byte-identical for --jobs 1 and --jobs N.
#ifndef JGRE_HARNESS_EXPERIMENT_RUNNER_H_
#define JGRE_HARNESS_EXPERIMENT_RUNNER_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/thread_pool.h"

namespace jgre::harness {

// A bench-specific flag the shared parser should accept (e.g. --curves).
// Matched flags land in HarnessOptions::extra (name, then the value if
// `takes_value`); anything undeclared is a parse error.
struct HarnessFlag {
  std::string name;  // including the leading "--"
  bool takes_value = false;
  std::string help;  // one-line description for the usage text
};

// Static description a bench binary hands to the CLI parser.
struct HarnessSpec {
  // Short bench name; the default JSON path is "BENCH_<name>.json".
  std::string name;
  // Overrides the basename of the default JSON path ("" = use `name`).
  std::string json_name;
  std::uint64_t default_seed = 42;
  // Bench-specific flags beyond the shared set.
  std::vector<HarnessFlag> extra_flags;
  // Observability: advertise `--trace PATH` / `--metrics` support.
  bool supports_trace = false;
  bool supports_metrics = false;
  // Free-form extra usage text appended to the flag list ("" if none).
  std::string extra_usage;
};

struct HarnessOptions {
  int jobs = 1;            // resolved worker count (>= 1)
  std::uint64_t seed = 0;  // base seed (spec default unless --seed given)
  bool emit_json = true;   // --no-json disables
  std::string json_path;   // resolved ("BENCH_<name>.json" unless --json)
  std::string trace_path;  // --trace PATH ("" = tracing off)
  bool emit_metrics = false;  // --metrics seen
  bool help = false;       // --help seen: usage already printed, exit 0
  std::string error;       // non-empty: parse failure, usage printed, exit 2
  // Matched spec.extra_flags, in order: the flag name, then its value for
  // value-taking flags.
  std::vector<std::string> extra;
};

// Parses `--jobs N` (0 = hardware concurrency), `--seed S`, `--json PATH`,
// `--no-json`, `--help`, plus `--trace PATH` / `--metrics` when the spec
// supports them and any declared spec.extra_flags. Every flag also accepts
// the `--flag=value` spelling. Unknown arguments are parse errors: the
// usage text goes to stderr and `error` is set.
HarnessOptions ParseHarnessOptions(const HarnessSpec& spec, int argc,
                                   char** argv);

// True if `name` (e.g. "--curves") was matched into `options.extra`.
bool HasFlag(const HarnessOptions& options, std::string_view name);

// The value following `name` in `options.extra`, or nullptr. Only meaningful
// for flags declared with takes_value.
const std::string* FlagValue(const HarnessOptions& options,
                             std::string_view name);

// Strict numeric readers for value-taking extra flags: a non-negative int
// (parsed like --jobs, so nothing past INT_MAX is narrowed) or a finite
// non-negative number. An absent flag leaves `*out` as is and returns true; a
// malformed value prints "error: <name> wants ..." to stderr and returns
// false, on which benches exit 2.
bool IntFlag(const HarnessOptions& options, std::string_view name, int* out);
bool DoubleFlag(const HarnessOptions& options, std::string_view name,
                double* out);

// 0 -> std::thread::hardware_concurrency (min 1); otherwise clamped >= 1.
int ResolveJobs(int jobs);

// Runs `task(0) .. task(task_count-1)`, at most `jobs` concurrently, and
// returns the results indexed by task id (= submission order). jobs <= 1 (or
// a single task) executes inline on the calling thread with no pool at all —
// the serial path is exactly the pre-harness loop. If any task throws, the
// first exception (by task index) is rethrown after all tasks finish.
template <typename Result>
std::vector<Result> RunOrdered(std::size_t task_count, int jobs,
                               const std::function<Result(std::size_t)>& task) {
  std::vector<Result> results(task_count);
  jobs = ResolveJobs(jobs);
  if (jobs <= 1 || task_count <= 1) {
    for (std::size_t i = 0; i < task_count; ++i) results[i] = task(i);
    return results;
  }
  std::vector<std::exception_ptr> errors(task_count);
  {
    ThreadPool pool(jobs > static_cast<int>(task_count)
                        ? static_cast<int>(task_count)
                        : jobs);
    for (std::size_t i = 0; i < task_count; ++i) {
      pool.Submit([&results, &errors, &task, i] {
        try {
          results[i] = task(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.Wait();
  }
  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  return results;
}

}  // namespace jgre::harness

#endif  // JGRE_HARNESS_EXPERIMENT_RUNNER_H_
