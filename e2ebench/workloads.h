// The four closed-batch workloads of the end-to-end benchmark. Each one is
// a bench the repo already runs, at that bench's default settings; README.md
// in this directory says why each was chosen and which layers it loads.
#ifndef JGRE_E2EBENCH_WORKLOADS_H_
#define JGRE_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

// One pass: a fresh set-up, then the whole batch of units.
struct PassResult {
  // Seconds of each set-up build: a pass builds its set-up (everything
  // before its first timed unit) several times and keeps the last build.
  std::vector<double> setup_s;
  double run_s = 0.0;  // the batch, first unit to last
  std::int64_t units = 0;
  // Exact count of the results the output checks look at: census
  // interfaces re-found (fuzz), exploitable verdicts plus attacks detected
  // with the attacker ranked first (paper), devices or cells run to
  // completion (fleet, matrix).
  std::int64_t found = 0;
  // Simulated work counts. They depend only on the seed, so every pass of
  // a run must report the same values.
  std::map<std::string, std::int64_t> counts;
  int checks = 0;                     // output checks made
  std::vector<std::string> failures;  // the ones that failed
};

// Per-layer figures from a traced pass that are not span timings, by name.
using LayerFigures = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  // One pass. With tracing on, spans wrap each call into a layer (fleet,
  // paper) or the pass replays the batch's resets through the layers'
  // public calls (fuzz, matrix); `figures` then receives the non-span
  // per-layer figures.
  virtual PassResult Pass(LayerFigures* figures) = 0;

  // Checks that need a reference computed once per run, after the passes
  // (in pass order, as returned by Pass); fills `found` and the checks.
  virtual void CheckOutputs(std::vector<PassResult>* /*passes*/) {}
};

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, int jobs);

const std::vector<std::string>& WorkloadNames();

}  // namespace e2e

#endif  // JGRE_E2EBENCH_WORKLOADS_H_
