// CampaignRunner — the coverage-guided fuzzing loop, composed from the three
// prior subsystems: snapshot restore as the reset primitive (src/snapshot via
// harness::BranchRunner), the EventBus as the coverage feed (src/obs), and
// the work-stealing pool for the per-execution fan-out (src/harness).
//
// One campaign:
//   1. Prepare: derive the code model + static analysis from a booted device,
//      build the reset image (boot + warmup prefix, captured once), and the
//      call pool of live IPC interfaces.
//   2. Screen (rounds): each round first draws its randomized/mutated
//      sequences against the corpus as of the round boundary, shard_execs
//      per RNG stream, each stream seeded from (--seed, round, shard). Every
//      sequence then runs as its own pool task on a freshly reset system.
//      Executions that reach new signature elements seed the corpus;
//      executions the oracle screens as suspicious become suspects. Results
//      merge in submission order, so the corpus and suspect list are
//      identical for any --jobs.
//   3. Confirm: every distinct interface appearing in a suspect gets one
//      homogeneous probe (the suspect's exact call, repeated) judged at the
//      shared exploitable rate — only these become findings, which is what
//      keeps benign services at zero false positives.
//   4. Minimize: each finding's witness sequence is trimmed to the shortest
//      sequence that still screens suspicious and still contains the found
//      interface.
//
// Cross-checking: CrossCheck() compares the findings against the static
// pipeline's candidate set and the directed verifier's census — which
// known-vulnerable interfaces the fuzzer re-found, and which findings the
// sift rules (or the JGR-centric pipeline itself) discharged.
#ifndef JGRE_FUZZ_CAMPAIGN_H_
#define JGRE_FUZZ_CAMPAIGN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/protocol/protocol_graph.h"
#include "common/status.h"
#include "common/types.h"
#include "core/android_system.h"
#include "dynamic/verifier.h"
#include "fuzz/corpus.h"
#include "fuzz/executor.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "harness/branch_runner.h"
#include "model/code_model.h"

namespace jgre::fuzz {

struct CampaignOptions {
  std::uint64_t seed = 42;
  int jobs = 1;
  // Screening budget: total randomized sequence executions across all
  // rounds and shards. The round/shard split is a pure function of the
  // budget, so results do not depend on --jobs.
  int budget = 240;
  int rounds = 3;  // corpus-feedback barriers
  // Sequences drawn per RNG stream. A round splits its share of the budget
  // into streams of this many draws; each drawn sequence then executes as
  // its own task, so this sets the draws, not the fan-out.
  int shard_execs = 20;
  // Probability a draw mutates a corpus seed (vs generating fresh) once the
  // corpus is non-empty.
  double mutate_probability = 0.75;
  int confirm_calls = 300;  // homogeneous confirmation probe length
  int max_suspects = 32;    // screening keeps at most this many suspects
  // Seed the screen phase from the static analysis: every witness-bearing
  // candidate whose service is live contributes one short homogeneous
  // sequence, executed before random screening. Seed executions are deducted
  // from `budget`, so a seeded campaign compares against an unseeded one at
  // the same total screening spend; analysis-derived suspects ride above the
  // max_suspects cap (they already carry a static witness and must not crowd
  // out — or be crowded out by — random screening).
  bool seed_from_analysis = false;
  // Calls per analysis-derived seed sequence: long enough that a genuinely
  // retaining interface clears the screen oracle's retained-JGR floor.
  int seed_sequence_calls = 12;
  // Seed from the ProtocolGraph as well: each chain's terminal edge becomes
  // a ProtocolLink and contributes one wired producer→consumer chain seed
  // (GenerateChain), executed alongside the analysis seeds and deducted from
  // the same budget. Also switches the mutator to protocol mode, so random
  // screening can splice wired pairs. Covers what single-entry seeding
  // structurally cannot: interfaces that retain only when fed a value minted
  // by an earlier call, caller-identity spoofs, and app-hosted victims.
  bool seed_from_protocol = false;
  int minimize_exec_cap = 24;  // per-finding witness-trim execution budget
  // Reset by re-simulating the boot+warmup prefix instead of restoring the
  // snapshot (the cold baseline the bench compares against).
  bool cold_boot = false;
  MutatorOptions mutator;
  OracleOptions oracle;
  int gc_every_calls = 64;
  // The reset-image prefix: boot plus a benign warmup workload, shared by
  // every execution (the state the snapshot captures).
  int warmup_apps = 40;
  DurationUs warmup_foreground_us = 20'000'000;
  DurationUs warmup_interaction_period_us = 200'000;
  // BranchRunner passthrough: persist / reuse the reset image.
  std::string checkpoint_path;
  std::string resume_path;
};

struct Finding {
  std::string id;  // code-model method id
  std::string service;
  std::string method;
  ExhaustionKind kind = ExhaustionKind::kNone;
  double growth_per_call = 0.0;  // JGR or fd rate, per kind
  int minimized_calls = 0;  // length of the minimized witness sequence
  IpcCall witness;          // the confirmed concrete call
};

struct CampaignStats {
  int seed_executions = 0;  // analysis-derived seed sequences executed
  int protocol_seed_executions = 0;  // ProtocolGraph chain seeds executed
  int screen_executions = 0;
  int confirm_executions = 0;
  int minimize_executions = 0;
  int total_executions = 0;
  int suspects = 0;
  int corpus_entries = 0;
  std::size_t signature_elements = 0;
  double wall_ms = 0.0;
  double execs_per_sec = 0.0;  // total executions over wall time
};

// A screened sequence the oracle flagged: a candidate for confirmation.
struct Suspect {
  Sequence seq;
  ExhaustionKind kind = ExhaustionKind::kNone;
};

struct CampaignResult {
  std::vector<Finding> findings;  // sorted by id
  // In merge order (seeds, then screening): the confirm phase probes each
  // method through the first suspect carrying it.
  std::vector<Suspect> suspects;
  CampaignStats stats;
};

// Fuzzer findings vs the static pipeline and the directed verifier's census.
struct ConsistencyReport {
  int census_total = 0;  // dynamically verified exploitable interfaces
  std::vector<std::string> refound;      // census interfaces the fuzzer confirmed
  std::vector<std::string> not_refound;  // census interfaces it did not reach
  // Findings the static stages would have discharged: sifted out, never
  // risky, or invisible to the JGR-centric pipeline (fd exhaustion).
  std::vector<std::string> static_blind;
  // Findings the census says are bounded — must be empty; any entry is a
  // fuzzer false positive.
  std::vector<std::string> false_positives;
};

ConsistencyReport CrossCheck(const std::vector<Finding>& findings,
                             const analysis::AnalysisReport& report,
                             const std::vector<dynamic::Verdict>& census);

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options);
  ~CampaignRunner();

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  // Builds the code model, static report, call pool, and the reset image
  // (restored via --resume or captured from a fresh prefix). Idempotent;
  // Run() calls it implicitly.
  Status Prepare();

  CampaignResult Run();

  // Timing probe for the bench: `execs` generated-sequence executions
  // (reset + replay, no oracle bookkeeping), returning executions/second
  // under the configured reset mode.
  double MeasureResetThroughput(int execs);

  const CampaignOptions& options() const { return options_; }
  const model::CodeModel& model() const { return model_; }
  const analysis::AnalysisReport& report() const { return report_; }
  const Corpus& corpus() const { return corpus_; }
  // Built by Prepare() when seed_from_protocol is set; nullptr otherwise.
  const analysis::protocol::ProtocolGraph* protocol_graph() const {
    return protocol_graph_ ? &*protocol_graph_ : nullptr;
  }

  // A system reset to the prefix state: a pooled system restored in place
  // (or a fresh restore on a pool miss), or a cold prefix rebuild under
  // cold_boot. Dropping the handle returns the system to the pool. `shard`
  // labels restore failures with the failing shard.
  sim::PooledSystem ResetSystem(std::size_t shard);

 private:
  // One executed sequence: its coverage and the oracle's screen verdict.
  struct Screened {
    Sequence seq;
    std::vector<std::uint64_t> elements;
    OracleVerdict screen;
  };

  Sequence PickSequence(Rng& rng,
                        const std::vector<CorpusEntry>& entries) const;

  CampaignOptions options_;
  bool prepared_ = false;
  model::CodeModel model_;
  analysis::AnalysisReport report_;
  std::optional<Mutator> mutator_;
  std::optional<analysis::protocol::ProtocolGraph> protocol_graph_;
  std::optional<SequenceExecutor> executor_;
  Oracle oracle_;
  sim::DeviceSpec prefix_;
  std::optional<harness::BranchRunner> branch_;
  Corpus corpus_;
};

}  // namespace jgre::fuzz

#endif  // JGRE_FUZZ_CAMPAIGN_H_
