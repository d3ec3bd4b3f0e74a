#include "fuzz/campaign.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "harness/experiment_runner.h"
#include "model/corpus.h"
#include "snapshot/serializer.h"

namespace jgre::fuzz {

namespace {

// Deterministic shard-stream seed: every (round, shard) pair gets an
// independent Rng stream derived only from the campaign seed and its own
// coordinates — never from --jobs or scheduling order.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  snapshot::Serializer out;
  out.U64(seed);
  out.U64(a);
  out.U64(b);
  return out.Hash();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ConsistencyReport CrossCheck(const std::vector<Finding>& findings,
                             const analysis::AnalysisReport& report,
                             const std::vector<dynamic::Verdict>& census) {
  ConsistencyReport out;
  std::set<std::string> exploitable;
  std::set<std::string> bounded;
  for (const dynamic::Verdict& v : census) {
    if (!v.tested) continue;
    (v.exploitable ? exploitable : bounded).insert(v.id);
  }
  out.census_total = static_cast<int>(exploitable.size());

  std::set<std::string> found;
  for (const Finding& f : findings) found.insert(f.id);
  for (const std::string& id : exploitable) {
    (found.count(id) != 0 ? out.refound : out.not_refound).push_back(id);
  }

  std::map<std::string, const analysis::AnalyzedInterface*> ifaces;
  for (const analysis::AnalyzedInterface& iface : report.interfaces) {
    ifaces[iface.id] = &iface;
  }
  for (const std::string& id : found) {
    if (bounded.count(id) != 0) out.false_positives.push_back(id);
    auto it = ifaces.find(id);
    if (it == ifaces.end() || it->second->sifted_out() || !it->second->risky) {
      out.static_blind.push_back(id);
    }
  }
  return out;
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)), oracle_(options_.oracle) {}

CampaignRunner::~CampaignRunner() = default;

Status CampaignRunner::Prepare() {
  if (prepared_) return Status::Ok();

  // A bare booted device is enough to derive the code model, the static
  // report, and the live-service pool; the (expensive) warmed-up reset image
  // is built separately below.
  core::SystemConfig sys_config;
  sys_config.seed = options_.seed;
  core::AndroidSystem bare(sys_config);
  bare.Boot();
  model_ = model::BuildAospModel(bare);
  report_ = analysis::RunAnalysis(model_);

  std::set<std::string> live_services;
  std::set<std::string> permissions;
  for (const auto& [id, method] : model_.java_methods) {
    if (!method.overrides_aidl || method.service.empty()) continue;
    if (!bare.service_manager().HasService(method.service)) continue;
    live_services.insert(method.service);
    // Like the directed verifier, the probe app holds whatever permission an
    // interface demands: permission checks gate reachability, not retention.
    if (!method.permission.empty()) permissions.insert(method.permission);
  }
  mutator_.emplace(&model_, live_services, options_.mutator);

  if (options_.seed_from_protocol) {
    protocol_graph_.emplace(
        analysis::protocol::ProtocolGraph::Build(model_, report_));
    // Each chain's terminal edge becomes one link; chains iterate in the
    // graph's canonical DFS order, and the first chain reaching a consumer
    // wins, so the link list is deterministic. The mutator drops links whose
    // endpoints are not in the live pool.
    std::vector<ProtocolLink> links;
    std::set<std::string> linked_consumers;
    for (const analysis::protocol::ProtocolChain& chain :
         protocol_graph_->chains()) {
      const analysis::protocol::ProtocolEdge& edge =
          protocol_graph_->edges()[chain.edge_ids.back()];
      const analysis::AnalyzedInterface& consumer =
          report_.interfaces[edge.consumer];
      if (!linked_consumers.insert(consumer.id).second) continue;
      ProtocolLink link;
      link.producer_id = report_.interfaces[edge.producer].id;
      link.consumer_id = consumer.id;
      link.arg_index = edge.arg_index;
      link.spoof_caller = consumer.constraint_trusts_caller;
      link.victim_hint = consumer.app_hosted ? consumer.package : "";
      links.push_back(std::move(link));
    }
    mutator_->EnableProtocolMode(std::move(links));
  }

  ExecOptions exec;
  exec.gc_every_calls = options_.gc_every_calls;
  exec.permissions = std::move(permissions);
  executor_.emplace(&model_, std::move(exec));
  oracle_ = Oracle(options_.oracle);

  prefix_ = sim::DeviceSpec();
  prefix_.WithSeed(options_.seed)
      .WithSystemConfig(sys_config)
      .WithWarmup(options_.warmup_apps, options_.warmup_foreground_us,
                  options_.warmup_interaction_period_us);
  harness::BranchOptions branch_options;
  branch_options.jobs = options_.jobs;
  branch_options.cold = options_.cold_boot;
  branch_options.checkpoint_path = options_.checkpoint_path;
  branch_options.resume_path = options_.resume_path;
  branch_.emplace(prefix_, branch_options);
  if (!options_.cold_boot) {
    JGRE_RETURN_IF_ERROR(branch_->Prepare());
  }

  prepared_ = true;
  return Status::Ok();
}

sim::PooledSystem CampaignRunner::ResetSystem(std::size_t shard) {
  return branch_->AcquireSystem(prefix_, shard);
}

Sequence CampaignRunner::PickSequence(
    Rng& rng, const std::vector<CorpusEntry>& entries) const {
  if (!entries.empty() && rng.Chance(options_.mutate_probability)) {
    const Sequence& seed = entries[rng.UniformU64(entries.size())].seq;
    return mutator_->Mutate(seed, rng);
  }
  return mutator_->Generate(rng);
}

CampaignResult CampaignRunner::Run() {
  const auto start = std::chrono::steady_clock::now();
  Status prepared = Prepare();
  if (!prepared.ok()) throw std::runtime_error(prepared.ToString());

  CampaignResult result;
  CampaignStats& stats = result.stats;

  std::vector<Suspect> suspects;
  std::set<std::uint64_t> suspect_fingerprints;
  std::size_t seeded_suspects = 0;

  // --- Seed: ProtocolGraph chains as wired multi-call sequences -------------
  // Chain seeds run *before* the analysis seeds: the confirm phase probes the
  // first suspect carrying each method, and a chain's call embeds protocol
  // knowledge (spoofed caller, wired token) that the homogeneous analysis
  // seed for the same method lacks. enqueueToast is the concrete case — its
  // analysis seed screens suspicious with a random package that the
  // per-package cap then bounds during confirm, masking the spoofed variant.
  if (options_.seed_from_protocol && mutator_->protocol_aware()) {
    const std::size_t n_links =
        std::min(mutator_->links().size(),
                 static_cast<std::size_t>(std::max(0, options_.budget)));
    std::vector<ShardExec> chain_execs = harness::RunOrdered<ShardExec>(
        n_links, options_.jobs, [&](std::size_t i) {
          Rng rng(MixSeed(options_.seed, 0x5052'4F54ull /* "PROT" */, i));
          Sequence seq = mutator_->GenerateChain(
              i, std::max(2, options_.seed_sequence_calls), rng);
          auto system = ResetSystem(400'000 + i);
          ExecOutcome outcome = executor_->Execute(*system, seq);
          return ShardExec{std::move(seq), std::move(outcome.elements),
                           oracle_.Screen(outcome.obs)};
        });
    for (ShardExec& exec : chain_execs) {
      ++stats.protocol_seed_executions;
      corpus_.Add(exec.seq, exec.elements);
      if (exec.screen.suspicious() &&
          suspect_fingerprints.insert(exec.seq.Fingerprint()).second) {
        suspects.push_back({std::move(exec.seq), exec.screen.kind});
      }
    }
    seeded_suspects = suspects.size();
  }

  // --- Seed: witness-bearing static candidates as initial sequences ---------
  if (options_.seed_from_analysis) {
    std::set<std::string> pool_ids;
    for (const model::JavaMethodModel* method : mutator_->pool()) {
      pool_ids.insert(method->id);
    }
    std::vector<const analysis::AnalyzedInterface*> seed_ifaces;
    for (const std::size_t index : report_.Candidates()) {
      const analysis::AnalyzedInterface& iface = report_.interfaces[index];
      if (iface.witness.empty() || pool_ids.count(iface.id) == 0) continue;
      seed_ifaces.push_back(&iface);
    }
    // Never seed past the screening budget: seed + random spend == budget.
    const std::size_t seed_cap = static_cast<std::size_t>(
        std::max(0, options_.budget - stats.protocol_seed_executions));
    if (seed_ifaces.size() > seed_cap) seed_ifaces.resize(seed_cap);
    std::vector<ShardExec> seed_execs = harness::RunOrdered<ShardExec>(
        seed_ifaces.size(), options_.jobs, [&](std::size_t i) {
          Rng rng(MixSeed(options_.seed, 0x5345'4544ull /* "SEED" */, i));
          const model::JavaMethodModel* method =
              model_.FindJavaMethod(seed_ifaces[i]->id);
          Sequence seq;
          for (int c = 0; c < std::max(1, options_.seed_sequence_calls); ++c) {
            seq.calls.push_back(mutator_->MakeCall(*method, rng));
          }
          auto system = ResetSystem(300'000 + i);
          ExecOutcome outcome = executor_->Execute(*system, seq);
          return ShardExec{std::move(seq), std::move(outcome.elements),
                           oracle_.Screen(outcome.obs)};
        });
    for (ShardExec& exec : seed_execs) {
      ++stats.seed_executions;
      corpus_.Add(exec.seq, exec.elements);
      if (exec.screen.suspicious() &&
          suspect_fingerprints.insert(exec.seq.Fingerprint()).second) {
        suspects.push_back({std::move(exec.seq), exec.screen.kind});
      }
    }
    seeded_suspects = suspects.size();
  }

  // --- Screen: rounds x shards of randomized sequences ----------------------
  const int rounds = std::max(1, options_.rounds);
  // Seed executions come out of the screening budget: a seeded campaign and
  // an unseeded one spend the same number of executions.
  const int budget =
      std::max(0, options_.budget - stats.seed_executions -
                      stats.protocol_seed_executions);
  const int per_round = budget / rounds;
  for (int round = 0; round < rounds; ++round) {
    const int round_budget =
        per_round + (round == rounds - 1 ? budget - per_round * rounds : 0);
    if (round_budget <= 0) continue;
    const int shard_execs = std::max(1, options_.shard_execs);
    const std::size_t shards =
        static_cast<std::size_t>((round_budget + shard_execs - 1) /
                                 shard_execs);
    // Shards mutate against the corpus as of the round boundary: a stable
    // snapshot, so picks do not depend on intra-round completion order.
    const std::vector<CorpusEntry> entries = corpus_.entries();
    std::vector<std::vector<ShardExec>> reports =
        harness::RunOrdered<std::vector<ShardExec>>(
            shards, options_.jobs, [&](std::size_t shard) {
              Rng rng(MixSeed(options_.seed, static_cast<std::uint64_t>(round),
                              shard));
              const int execs =
                  std::min(shard_execs,
                           round_budget - static_cast<int>(shard) * shard_execs);
              std::vector<ShardExec> out;
              out.reserve(static_cast<std::size_t>(execs));
              for (int e = 0; e < execs; ++e) {
                Sequence seq = PickSequence(rng, entries);
                auto system =
                    ResetSystem(static_cast<std::size_t>(round) * 1000 + shard);
                ExecOutcome outcome = executor_->Execute(*system, seq);
                out.push_back({std::move(seq), std::move(outcome.elements),
                               oracle_.Screen(outcome.obs)});
              }
              return out;
            });
    // Merge in submission order: corpus contents and the suspect list are
    // identical for --jobs 1 and --jobs N.
    for (std::vector<ShardExec>& report : reports) {
      for (ShardExec& exec : report) {
        ++stats.screen_executions;
        corpus_.Add(exec.seq, exec.elements);
        if (exec.screen.suspicious() &&
            static_cast<int>(suspects.size() - seeded_suspects) <
                options_.max_suspects &&
            suspect_fingerprints.insert(exec.seq.Fingerprint()).second) {
          suspects.push_back({std::move(exec.seq), exec.screen.kind});
        }
      }
    }
  }
  stats.suspects = static_cast<int>(suspects.size());
  stats.corpus_entries = static_cast<int>(corpus_.size());
  stats.signature_elements = corpus_.element_count();

  // --- Confirm: one homogeneous strict probe per distinct suspect method ----
  struct Target {
    IpcCall call;
    std::size_t suspect;
    // Producer calls the homogeneous probe needs once up front (mint the
    // token / open the session the repeated call's from_step consumes).
    std::vector<IpcCall> setup;
  };
  std::vector<Target> targets;
  std::set<std::string> targeted;
  for (std::size_t si = 0; si < suspects.size(); ++si) {
    const std::vector<IpcCall>& witness_calls = suspects[si].seq.calls;
    for (const IpcCall& call : witness_calls) {
      if (targeted.insert(call.method_id).second) {
        Target target{call, si, {}};
        // The strict probe follows the census's §III.D discipline — a fresh
        // Binder per call — so a witness that drew the shared-binder variant
        // does not mask retention. Other argument values (e.g. an "android"
        // spoof string) are preserved. Scalar protocol wirings survive too:
        // the producer call is copied into the setup prefix and from_step
        // rebased onto it, so a gated target still sees a valid token on
        // every repetition (tokens are multi-use; a wired binder would dedupe
        // across repetitions, so binder slots revert to fresh mints).
        for (ArgValue& arg : target.call.args) {
          if (arg.kind == services::ArgKind::kBinder) {
            arg.fresh_binder = true;
            arg.from_step = -1;
          } else if (arg.from_step >= 0 &&
                     static_cast<std::size_t>(arg.from_step) <
                         witness_calls.size()) {
            target.setup.push_back(witness_calls[arg.from_step]);
            for (ArgValue& produced : target.setup.back().args) {
              produced.from_step = -1;  // producers run first, nothing before
            }
            arg.from_step = static_cast<int>(target.setup.size()) - 1;
          } else {
            arg.from_step = -1;
          }
        }
        targets.push_back(std::move(target));
      }
    }
  }
  std::vector<OracleVerdict> verdicts = harness::RunOrdered<OracleVerdict>(
      targets.size(), options_.jobs, [&](std::size_t i) {
        auto system = ResetSystem(100'000 + i);
        ExecOutcome outcome = executor_->ExecuteRepeated(
            *system, targets[i].call, options_.confirm_calls,
            targets[i].setup);
        return oracle_.Confirm(outcome.obs);
      });
  stats.confirm_executions = static_cast<int>(targets.size());

  std::vector<std::size_t> finding_suspect;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (!verdicts[i].suspicious()) continue;
    const IpcCall& call = targets[i].call;
    Finding f;
    f.id = call.method_id;
    f.service = call.service;
    const model::JavaMethodModel* method = model_.FindJavaMethod(call.method_id);
    f.method = method != nullptr ? method->name : call.method_id;
    f.kind = verdicts[i].kind;
    f.growth_per_call = verdicts[i].kind == ExhaustionKind::kFd
                            ? verdicts[i].fd_growth_per_call
                            : verdicts[i].jgr_growth_per_call;
    f.witness = call;
    result.findings.push_back(std::move(f));
    finding_suspect.push_back(targets[i].suspect);
  }

  // --- Minimize: trim each finding's witness sequence -----------------------
  struct MinimizeResult {
    int calls = 0;
    int execs = 0;
  };
  std::vector<MinimizeResult> minimized =
      harness::RunOrdered<MinimizeResult>(
          result.findings.size(), options_.jobs, [&](std::size_t i) {
            const Finding& f = result.findings[i];
            const Sequence& witness = suspects[finding_suspect[i]].seq;
            MinimizeResult mr;
            const auto still_triggers = [&](const Sequence& cand) {
              if (mr.execs >= options_.minimize_exec_cap) return false;
              bool has_method = false;
              for (const IpcCall& call : cand.calls) {
                if (call.method_id == f.id) {
                  has_method = true;
                  break;
                }
              }
              if (!has_method) return false;  // free reject, no execution
              ++mr.execs;
              auto system = ResetSystem(200'000 + i);
              ExecOutcome outcome = executor_->Execute(*system, cand);
              return oracle_.Screen(outcome.obs).suspicious();
            };
            // Pre-trim: if the homogeneous subsequence (the finding's calls
            // alone) still screens, minimize that instead of the full witness.
            Sequence homogeneous;
            for (const IpcCall& call : witness.calls) {
              if (call.method_id == f.id) homogeneous.calls.push_back(call);
            }
            const Sequence& base =
                homogeneous.calls.size() < witness.calls.size() &&
                        still_triggers(homogeneous)
                    ? homogeneous
                    : witness;
            mr.calls =
                static_cast<int>(Corpus::Minimize(base, still_triggers)
                                     .calls.size());
            return mr;
          });
  for (std::size_t i = 0; i < minimized.size(); ++i) {
    result.findings[i].minimized_calls = minimized[i].calls;
    stats.minimize_executions += minimized[i].execs;
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) { return a.id < b.id; });

  stats.total_executions = stats.seed_executions +
                           stats.protocol_seed_executions +
                           stats.screen_executions + stats.confirm_executions +
                           stats.minimize_executions;
  stats.wall_ms = SecondsSince(start) * 1000.0;
  stats.execs_per_sec = stats.wall_ms > 0.0
                            ? stats.total_executions / (stats.wall_ms / 1000.0)
                            : 0.0;
  return result;
}

double CampaignRunner::MeasureResetThroughput(int execs) {
  Status prepared = Prepare();
  if (!prepared.ok()) throw std::runtime_error(prepared.ToString());
  Rng rng(MixSeed(options_.seed, 0x5448'524F'5547'48ull /* "THROUGH" */, 0));
  std::vector<Sequence> sequences;
  sequences.reserve(static_cast<std::size_t>(execs));
  for (int i = 0; i < execs; ++i) sequences.push_back(mutator_->Generate(rng));
  const auto start = std::chrono::steady_clock::now();
  harness::RunOrdered<int>(
      static_cast<std::size_t>(execs), options_.jobs, [&](std::size_t i) {
        auto system = ResetSystem(i);
        return executor_->Execute(*system, sequences[i]).obs.calls;
      });
  const double seconds = SecondsSince(start);
  return seconds > 0.0 ? static_cast<double>(execs) / seconds : 0.0;
}

}  // namespace jgre::fuzz
