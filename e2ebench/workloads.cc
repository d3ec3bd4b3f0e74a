#include "workloads.h"

#include <chrono>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "analysis/pipeline.h"
#include "analysis/protocol/protocol_graph.h"
#include "arms/matrix.h"
#include "attack/vuln_registry.h"
#include "core/android_system.h"
#include "detect/catalog.h"
#include "dynamic/verifier.h"
#include "experiment/experiment.h"
#include "fleet/runner.h"
#include "fleet/spec.h"
#include "fuzz/campaign.h"
#include "fuzz/corpus.h"
#include "fuzz/executor.h"
#include "fuzz/sequence.h"
#include "harness/experiment_runner.h"
#include "model/corpus.h"
#include "runtime/runtime.h"
#include "sim/device.h"
#include "snapshot/snapshot.h"
#include "spans.h"

namespace e2e {

namespace {

using namespace jgre;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Check(PassResult* out, bool ok, std::string what) {
  ++out->checks;
  if (!ok) out->failures.push_back(std::move(what));
}

std::int64_t SystemServerAdds(core::AndroidSystem& system) {
  rt::Runtime* runtime = system.system_runtime();
  return runtime != nullptr ? runtime->vm().total_global_adds() : 0;
}

std::unique_ptr<core::AndroidSystem> BootSystem(
    const core::SystemConfig& config) {
  ScopedSpan span("core.boot");
  auto system = std::make_unique<core::AndroidSystem>(config);
  system->Boot();
  return system;
}

void Restore(const snapshot::SystemSnapshot& image,
             core::AndroidSystem* system) {
  ScopedSpan span("snapshot.restore");
  const Status status = image.RestoreInto(system);
  if (!status.ok()) throw std::runtime_error(status.ToString());
}

snapshot::SystemSnapshot CaptureImage(core::AndroidSystem& system) {
  ScopedSpan span("snapshot.capture");
  auto captured = snapshot::SystemSnapshot::Capture(system);
  if (!captured.ok()) throw std::runtime_error(captured.status().ToString());
  return std::move(captured).value();
}

template <typename T>
void TearDown(std::unique_ptr<T>& owner) {
  ScopedSpan span("core.teardown");
  owner.reset();
}

// Set-up is timed over repeated builds: one build of the fleet or matrix
// runner takes under a millisecond, too short to time once on a shared host.
// Builds until kSetupSeconds have gone into building and returns the last
// build; `setup_s` receives the time of each. Each discarded build is
// destroyed outside the timing.
constexpr double kSetupSeconds = 0.2;

template <typename Build>
auto RepeatedSetup(const Build& build, std::vector<double>* setup_s) {
  decltype(build()) built;
  double total = 0.0;
  while (setup_s->empty() || total < kSetupSeconds) {
    built = nullptr;
    const auto start = Clock::now();
    built = build();
    setup_s->push_back(SecondsSince(start));
    total += setup_s->back();
  }
  return built;
}

// --- fuzz -------------------------------------------------------------------
//
// bench_protocol_graph's protocol-seeded campaign (analysis and protocol
// seeding, default 240-execution screening budget). CampaignRunner::Run has
// no per-execution hook, so the traced pass replays the campaign's
// executions, kind for kind, through the public calls a reset is made of:
// Boot, RestoreInto, SequenceExecutor::Execute or ExecuteRepeated, and
// destruction.
class FuzzWorkload : public Workload {
 public:
  FuzzWorkload(std::uint64_t seed, int jobs) {
    options_.seed = seed;
    options_.jobs = jobs;
    options_.seed_from_analysis = true;
    options_.seed_from_protocol = true;
  }

  PassResult Pass(LayerFigures* figures) override {
    PassResult out;
    // A fresh runner every pass: a second Run() on one runner continues from
    // the corpus the first one grew, so it does different work.
    const std::unique_ptr<fuzz::CampaignRunner> runner = RepeatedSetup(
        [this] {
          auto built = std::make_unique<fuzz::CampaignRunner>(options_);
          if (const Status status = built->Prepare(); !status.ok()) {
            throw std::runtime_error(status.ToString());
          }
          return built;
        },
        &out.setup_s);
    const auto run_start = Clock::now();
    const fuzz::CampaignResult result = runner->Run();
    out.run_s = SecondsSince(run_start);

    const fuzz::CampaignStats& stats = result.stats;
    out.units = stats.total_executions;
    out.counts = {{"fuzz.executions", stats.total_executions},
                  {"fuzz.findings", static_cast<std::int64_t>(
                                        result.findings.size())},
                  {"fuzz.suspects", stats.suspects},
                  {"fuzz.corpus_entries", stats.corpus_entries}};

    findings_.push_back(result.findings);
    if (!reference_.has_value()) {
      reference_.emplace(Reference{runner->model(), runner->report()});
    }

    if (figures != nullptr) {
      (*figures)["fuzz.corpus_yield"] =
          stats.screen_executions > 0
              ? static_cast<double>(stats.corpus_entries) /
                    stats.screen_executions
              : 0.0;
      (*figures)["fuzz.confirm_yield"] =
          stats.suspects > 0
              ? static_cast<double>(result.findings.size()) / stats.suspects
              : 0.0;
      (*figures)["fuzz.executions"] = stats.total_executions;
      Replay(*runner, result, figures);
    }
    return out;
  }

  // The check's reference is the census: the directed verifier at the
  // campaign seed, with bench_fuzz_campaign's settings, run once after the
  // passes so that it adds neither to their time nor to the peak memory.
  void CheckOutputs(std::vector<PassResult>* passes) override {
    if (!reference_.has_value()) return;
    dynamic::VerifyOptions verify;
    verify.max_calls = 4000;
    verify.probe_calls = 1200;
    verify.gc_every_calls = 250;
    verify.seed = options_.seed;
    const analysis::AnalysisReport& report = reference_->report;
    const std::vector<std::size_t> candidates = report.Candidates();
    const std::vector<dynamic::Verdict> census =
        harness::RunOrdered<dynamic::Verdict>(
            candidates.size(), options_.jobs, [&](std::size_t i) {
              dynamic::JgreVerifier verifier(verify);
              return verifier.Verify(report.interfaces[candidates[i]],
                                     reference_->model);
            });
    for (std::size_t i = 0; i < passes->size() && i < findings_.size(); ++i) {
      PassResult& out = (*passes)[i];
      const fuzz::ConsistencyReport consistency =
          fuzz::CrossCheck(findings_[i], report, census);
      out.found = static_cast<std::int64_t>(consistency.refound.size());
      Check(&out, consistency.false_positives.empty(),
            "fuzz: " + std::to_string(consistency.false_positives.size()) +
                " false positives");
      Check(&out, out.found >= kMinRefound,
            "fuzz: re-found " + std::to_string(out.found) + " of " +
                std::to_string(consistency.census_total) +
                " census interfaces (floor " + std::to_string(kMinRefound) +
                ")");
    }
    findings_.clear();
  }

 private:
  // The replay: Prepare's expensive steps, then one execution for each one
  // the campaign made, of the same kind and in the campaign's phase order,
  // each on a system reset from the captured prefix. Seed and screen
  // executions replay the campaign's corpus, sequences it executed, in
  // order and from the top again when it runs out. Confirm executions replay its homogeneous probe (ExecuteRepeated
  // at confirm_calls, a fresh binder per call) on each finding's witness
  // call, then on calls of further corpus methods, which stand in for the
  // suspects that did not confirm. Minimize executions continue through the
  // corpus: a trim replays part of a screening sequence.
  void Replay(const fuzz::CampaignRunner& runner,
              const fuzz::CampaignResult& result, LayerFigures* figures) {
    const std::vector<fuzz::CorpusEntry>& corpus = runner.corpus().entries();
    if (corpus.empty()) throw std::runtime_error("fuzz: empty corpus");
    const fuzz::CampaignStats& stats = result.stats;
    const std::size_t screens = static_cast<std::size_t>(
        stats.protocol_seed_executions + stats.seed_executions +
        stats.screen_executions);
    const std::size_t confirms =
        static_cast<std::size_t>(stats.confirm_executions);
    const std::size_t executions =
        static_cast<std::size_t>(stats.total_executions);

    std::vector<fuzz::IpcCall> targets;
    std::set<std::string> targeted;
    for (const fuzz::Finding& finding : result.findings) {
      if (targeted.insert(finding.witness.method_id).second) {
        targets.push_back(finding.witness);
      }
    }
    for (const fuzz::CorpusEntry& entry : corpus) {
      for (const fuzz::IpcCall& call : entry.seq.calls) {
        if (targets.size() < confirms &&
            targeted.insert(call.method_id).second) {
          targets.push_back(call);
        }
      }
    }
    for (fuzz::IpcCall& call : targets) {
      for (fuzz::ArgValue& arg : call.args) {
        if (arg.kind == services::ArgKind::kBinder) arg.fresh_binder = true;
        arg.from_step = -1;
      }
    }

    core::SystemConfig config;
    config.seed = options_.seed;
    model::CodeModel model;
    std::set<std::string> permissions;
    std::optional<snapshot::SystemSnapshot> image;
    {
      ScopedSpan setup("bench.setup");
      std::unique_ptr<core::AndroidSystem> bare = BootSystem(config);
      {
        ScopedSpan span("model.build");
        model = model::BuildAospModel(*bare);
      }
      analysis::AnalysisReport report;
      {
        ScopedSpan span("analysis.run");
        report = analysis::RunAnalysis(model);
      }
      {
        ScopedSpan span("protocol.build");
        (void)analysis::protocol::ProtocolGraph::Build(model, report);
      }
      // The probe's permissions, as Prepare derives them from the bare
      // device.
      for (const auto& [id, method] : model.java_methods) {
        if (!method.overrides_aidl || method.service.empty()) continue;
        if (!bare->service_manager().HasService(method.service)) continue;
        if (!method.permission.empty()) permissions.insert(method.permission);
      }
      TearDown(bare);
      sim::DeviceSpec prefix;
      prefix.WithSeed(options_.seed)
          .WithSystemConfig(config)
          .WithWarmup(options_.warmup_apps, options_.warmup_foreground_us,
                      options_.warmup_interaction_period_us);
      std::unique_ptr<core::AndroidSystem> warmed;
      {
        ScopedSpan span("sim.boot_prefix");
        warmed = sim::DeviceFactory(prefix).BootPrefix();
      }
      image = CaptureImage(*warmed);
      TearDown(warmed);
    }

    fuzz::ExecOptions exec_options;
    exec_options.gc_every_calls = options_.gc_every_calls;
    exec_options.permissions = permissions;
    const fuzz::SequenceExecutor executor(&model, exec_options);
    struct ExecCounts {
      std::int64_t calls = 0;
      std::int64_t jgr_adds = 0;
    };
    std::vector<ExecCounts> counts;
    {
      ScopedSpan pass("bench.pass");
      const std::uint64_t parent = pass.id();
      counts = harness::RunOrdered<ExecCounts>(
          executions, options_.jobs, [&](std::size_t i) {
            const bool confirm = i >= screens && i < screens + confirms;
            ScopedSpan exec(i < screens  ? "bench.screen"
                            : confirm    ? "bench.confirm"
                                         : "bench.minimize",
                            parent);
            std::unique_ptr<core::AndroidSystem> system = BootSystem(config);
            Restore(*image, system.get());
            const std::int64_t adds_before = SystemServerAdds(*system);
            fuzz::ExecOutcome outcome;
            if (confirm) {
              ScopedSpan span("fuzz.confirm");
              outcome = executor.ExecuteRepeated(
                  *system, targets[(i - screens) % targets.size()],
                  options_.confirm_calls);
            } else {
              const std::size_t entry = i < screens ? i : i - confirms;
              ScopedSpan span("fuzz.execute");
              outcome = executor.Execute(*system,
                                         corpus[entry % corpus.size()].seq);
            }
            ExecCounts c{outcome.obs.calls,
                         SystemServerAdds(*system) - adds_before};
            TearDown(system);
            return c;
          });
    }
    std::int64_t calls = 0;
    std::int64_t adds = 0;
    for (const ExecCounts& c : counts) {
      calls += c.calls;
      adds += c.jgr_adds;
    }
    (*figures)["snapshot.image_mb"] =
        static_cast<double>(image->payload().size()) / 1e6;
    (*figures)["fuzz.calls_per_exec"] =
        executions > 0 ? static_cast<double>(calls) / executions : 0.0;
    (*figures)["binder.calls"] = static_cast<double>(calls);
    (*figures)["runtime.jgr_adds"] = static_cast<double>(adds);
  }

  // bench_protocol_graph's own gate for this campaign. Re-finding every
  // census interface does not hold for every seed (56 of 57 at some), so the
  // exact count is reported as `found` instead of being checked.
  static constexpr std::int64_t kMinRefound = 54;

  struct Reference {
    model::CodeModel model;
    analysis::AnalysisReport report;
  };

  fuzz::CampaignOptions options_;
  // Filled by Pass, one entry per pass, until CheckOutputs.
  std::vector<std::vector<fuzz::Finding>> findings_;
  std::optional<Reference> reference_;
};

// --- fleet ------------------------------------------------------------------
//
// bench_fleet_census's default 324-device census. The traced pass is the
// workload itself, with RunDeviceScenario wrapped through
// FleetOptions::scenario_driver.
class FleetWorkload : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, int jobs) : seed_(seed), jobs_(jobs) {}

  PassResult Pass(LayerFigures* figures) override {
    PassResult out;
    const std::unique_ptr<fleet::FleetRunner> runner =
        RepeatedSetup([this] { return Setup(); }, &out.setup_s);
    const auto run_start = Clock::now();
    fleet::FleetResult result;
    {
      ScopedSpan pass("bench.pass");
      pass_span_ = pass.id();
      result = runner->Run();
    }
    out.run_s = SecondsSince(run_start);

    const std::size_t devices = runner->fleet().size();
    out.units = static_cast<std::int64_t>(result.outcomes.size());
    Check(&out, devices == 324 && result.outcomes.size() == devices,
          "fleet: " + std::to_string(result.outcomes.size()) + " of " +
              std::to_string(devices) + " devices reported (324 expected)");
    std::int64_t calls = 0, adds = 0, incidents = 0, exhausted = 0;
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      const fleet::DeviceOutcome& o = result.outcomes[i];
      const bool completed = o.index == i && o.virtual_duration_us > 0;
      Check(&out, completed,
            "fleet: device " + std::to_string(i) + " did not complete");
      out.found += completed ? 1 : 0;
      calls += o.ipc_calls;
      adds += o.jgr_adds;
      incidents += o.incident ? 1 : 0;
      exhausted += o.exhausted ? 1 : 0;
    }
    out.counts = {{"fleet.devices", out.units},
                  {"binder.calls", calls},
                  {"runtime.jgr_adds", adds},
                  {"fleet.incidents", incidents},
                  {"fleet.exhausted", exhausted}};

    if (figures != nullptr) {
      {
        // Run() folds the outcomes into its own aggregator; fold them again
        // here, where the call can be timed.
        ScopedSpan span("fleet.aggregate");
        fleet::FleetAggregator aggregator;
        for (const fleet::DeviceOutcome& o : result.outcomes) {
          aggregator.Absorb(o);
        }
      }
      (*figures)["fleet.calls"] = static_cast<double>(calls);
      (*figures)["binder.calls"] = static_cast<double>(calls);
      (*figures)["runtime.jgr_adds"] = static_cast<double>(adds);
    }
    return out;
  }

 private:
  std::unique_ptr<fleet::FleetRunner> Setup() const {
    fleet::FleetMatrix matrix;
    matrix.seed = seed_;
    fleet::FleetOptions options;
    options.jobs = jobs_;
    options.max_images = 4;
    if (TracingOn()) {
      options.scenario_driver = [this](const fleet::FleetDeviceSpec& spec,
                                       sim::DeviceSim& device,
                                       const detect::InterfaceCatalog* catalog) {
        ScopedSpan span("fleet.scenario", pass_span_);
        return fleet::RunDeviceScenario(spec, device, catalog);
      };
    }
    auto runner = std::make_unique<fleet::FleetRunner>(
        fleet::ExpandMatrix(matrix), options);
    const Status status = runner->Prepare();
    if (!status.ok()) throw std::runtime_error(status.ToString());
    return runner;
  }

  std::uint64_t seed_;
  int jobs_;
  std::uint64_t pass_span_ = 0;
};

// --- matrix -----------------------------------------------------------------
//
// bench_defense_matrix's default 125-cell matrix. MatrixRunner::Run has no
// per-cell hook, so after the real pass the traced run replays each cell's
// reset (image build and capture per operating point; Boot, RestoreInto,
// CreateDeviceOn and destruction per cell) to size those layers against it.
class MatrixWorkload : public Workload {
 public:
  MatrixWorkload(std::uint64_t seed, int jobs) : seed_(seed), jobs_(jobs) {}

  PassResult Pass(LayerFigures* figures) override {
    PassResult out;
    const std::unique_ptr<State> state =
        RepeatedSetup([this] { return Setup(); }, &out.setup_s);
    const auto run_start = Clock::now();
    arms::MatrixResult result;
    {
      ScopedSpan pass("bench.pass");
      result = state->runner->Run();
    }
    out.run_s = SecondsSince(run_start);

    const std::size_t expected = state->runner->cell_count();
    out.units = static_cast<std::int64_t>(result.cells.size());
    Check(&out, expected == 125 && result.cells.size() == expected,
          "matrix: " + std::to_string(result.cells.size()) + " of " +
              std::to_string(expected) + " cells reported (125 expected)");
    std::int64_t calls = 0, adds = 0, issued = 0, denied = 0;
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      const arms::MatrixCell& cell = result.cells[i];
      const bool completed =
          cell.index == i && cell.device.virtual_duration_us > 0;
      Check(&out, completed,
            "matrix: cell " + std::to_string(i) + " did not complete");
      out.found += completed ? 1 : 0;
      calls += cell.device.ipc_calls;
      adds += cell.device.jgr_adds;
      issued += cell.attacker.calls_issued;
      denied += cell.attacker.calls_denied;
    }
    out.counts = {{"arms.cells", out.units},
                  {"binder.calls", calls},
                  {"runtime.jgr_adds", adds},
                  {"arms.attacker_calls", issued},
                  {"arms.denied_calls", denied}};

    if (figures != nullptr) {
      (*figures)["arms.denied_frac"] =
          issued > 0 ? static_cast<double>(denied) / issued : 0.0;
      (*figures)["binder.calls"] = static_cast<double>(calls);
      (*figures)["runtime.jgr_adds"] = static_cast<double>(adds);
      ReplayResets(figures);
    }
    return out;
  }

 private:
  // On the heap: the runner keeps a pointer to the catalog.
  struct State {
    detect::InterfaceCatalog catalog;
    std::unique_ptr<arms::MatrixRunner> runner;
  };

  std::unique_ptr<State> Setup() const {
    auto state = std::make_unique<State>();
    state->catalog = detect::BuildDefaultCatalog();
    arms::ArmsMatrix matrix;
    matrix.seed = seed_;
    arms::MatrixRunner::Options options;
    options.jobs = jobs_;
    options.image_budget = 4;
    options.catalog = &state->catalog;
    state->runner =
        std::make_unique<arms::MatrixRunner>(std::move(matrix), options);
    return state;
  }

  // Mirrors MatrixRunner's expansion (operating points outermost, then
  // attacks, then defenses) so every replayed cell restores the image of
  // its own operating point and builds the device spec its cell runs.
  void ReplayResets(LayerFigures* figures) const {
    const arms::ArmsMatrix matrix;
    const std::vector<arms::OperatingPoint> points =
        arms::DefaultOperatingPoints();
    const std::vector<arms::DefenseConfig> defenses = arms::DefaultDefenses();
    const std::size_t per_point =
        arms::DefaultAttacks().size() * defenses.size();
    const auto prefix_of = [&](const arms::OperatingPoint& point) {
      core::SystemConfig sys;
      sys.system_server_max_jgr = point.jgr_cap;
      sim::DeviceSpec spec;
      spec.WithSeed(seed_).WithSystemConfig(sys).WithWarmup(
          matrix.warmup_apps, matrix.warmup_foreground_us);
      return spec;
    };

    ScopedSpan replay("bench.replay");
    const std::uint64_t parent = replay.id();
    std::vector<snapshot::SystemSnapshot> images;
    double image_bytes = 0.0;
    for (const arms::OperatingPoint& point : points) {
      std::unique_ptr<core::AndroidSystem> warmed;
      {
        ScopedSpan span("sim.boot_prefix");
        warmed = sim::DeviceFactory(prefix_of(point)).BootPrefix();
      }
      images.push_back(CaptureImage(*warmed));
      image_bytes += static_cast<double>(images.back().payload().size());
      TearDown(warmed);
    }
    (void)harness::RunOrdered<int>(
        points.size() * per_point, jobs_, [&](std::size_t i) {
          ScopedSpan cell("bench.cell", parent);
          const arms::OperatingPoint& point = points[i / per_point];
          const arms::DefenseConfig& defense = defenses[i % defenses.size()];
          sim::DeviceSpec spec = prefix_of(point);
          spec.WithScenarioSeed(fleet::MixFleetSeed(seed_, i))
              .WithBenignApps(point.benign_apps)
              .WithMaxAttackerCalls(matrix.max_calls);
          if (defense.defender) {
            spec.WithThresholds(defense.alarm_threshold,
                                defense.report_threshold);
          }
          core::SystemConfig config = spec.system_config();
          config.seed = seed_;
          std::unique_ptr<core::AndroidSystem> system = BootSystem(config);
          Restore(images[i / per_point], system.get());
          std::unique_ptr<sim::DeviceSim> device;
          {
            ScopedSpan span("sim.create_device");
            device = sim::DeviceFactory(spec).CreateDeviceOn(std::move(system));
          }
          TearDown(device);
          return 0;
        });
    (*figures)["snapshot.image_mb"] =
        image_bytes / static_cast<double>(images.size()) / 1e6;
  }

  std::uint64_t seed_;
  int jobs_;
};

// --- paper ------------------------------------------------------------------
//
// The §IV census as bench_census runs it (RunAnalysis, then the directed
// verifier over every candidate at 8,000 calls), then Fig 8 as
// bench_fig8_single_attacker runs it: 54 defended single-attacker devices
// with 100 benign apps each, every one built cold.
class PaperWorkload : public Workload {
 public:
  PaperWorkload(std::uint64_t seed, int jobs) : seed_(seed), jobs_(jobs) {
    defender_.scoring.delta_us = 1800;  // Fig 8: the services' average
  }

  PassResult Pass(LayerFigures* figures) override {
    PassResult out;
    const std::unique_ptr<State> state =
        RepeatedSetup([this] { return Setup(); }, &out.setup_s);

    struct AttackOut {
      bool ranked_first = false;
      std::int64_t attacker_calls = 0;
      std::int64_t transactions = 0;
      std::int64_t jgr_adds = 0;
    };
    const std::vector<std::size_t> candidates = state->report.Candidates();
    const std::vector<attack::VulnSpec> vulns =
        attack::SystemServerVulnerabilities();
    std::vector<dynamic::Verdict> verdicts;
    std::vector<AttackOut> attacks;
    const auto run_start = Clock::now();
    {
      ScopedSpan pass("bench.pass");
      const std::uint64_t parent = pass.id();
      dynamic::VerifyOptions verify;
      verify.max_calls = 8000;
      verify.seed = seed_;
      verdicts = harness::RunOrdered<dynamic::Verdict>(
          candidates.size(), jobs_, [&](std::size_t i) {
            ScopedSpan span("dynamic.verify", parent);
            dynamic::JgreVerifier verifier(verify);
            return verifier.Verify(state->report.interfaces[candidates[i]],
                                   state->model);
          });
      attacks = harness::RunOrdered<AttackOut>(
          vulns.size(), jobs_, [&](std::size_t i) {
            ScopedSpan device_span("bench.device", parent);
            sim::DeviceSpec spec;
            spec.WithSeed(seed_ + static_cast<std::uint64_t>(vulns[i].id))
                .WithBenignApps(100)
                .WithAttack(vulns[i])
                .WithDefenderConfig(defender_);
            const sim::DeviceFactory factory(spec);
            // CreateDevice() is CreateDeviceOn(BootPrefix()); split here so
            // the cold boot shows as its own span.
            std::unique_ptr<sim::DeviceSim> device;
            {
              ScopedSpan span("sim.create_device");
              std::unique_ptr<core::AndroidSystem> system;
              {
                ScopedSpan boot("sim.boot_prefix");
                system = factory.BootPrefix();
              }
              device = factory.CreateDeviceOn(std::move(system));
            }
            experiment::DefendedAttackResult result;
            {
              ScopedSpan span("experiment.attack");
              result = experiment::Experiment(*device).RunDefendedAttack();
            }
            AttackOut a;
            a.ranked_first = result.incident &&
                             !result.report.ranking.empty() &&
                             result.report.ranking.front().package ==
                                 spec.attack_package();
            a.attacker_calls = result.attacker_calls;
            a.transactions = device->system().driver().total_transactions();
            a.jgr_adds = SystemServerAdds(device->system());
            TearDown(device);
            return a;
          });
    }
    out.run_s = SecondsSince(run_start);
    TearDown(state->system);

    out.units = static_cast<std::int64_t>(verdicts.size() + attacks.size());
    std::int64_t exploitable = 0, verify_calls = 0;
    for (const dynamic::Verdict& v : verdicts) {
      exploitable += v.exploitable ? 1 : 0;
      verify_calls += v.calls_issued;
    }
    Check(&out, candidates.size() == 60 && exploitable == 57,
          "paper: " + std::to_string(exploitable) + " of " +
              std::to_string(candidates.size()) +
              " candidates exploitable (57 of 60 expected)");
    std::int64_t detected = 0, attacker_calls = 0, transactions = 0, adds = 0;
    for (std::size_t i = 0; i < attacks.size(); ++i) {
      Check(&out, attacks[i].ranked_first,
            "paper: attack on " + vulns[i].service + "." +
                vulns[i].interface + " not detected with the attacker first");
      detected += attacks[i].ranked_first ? 1 : 0;
      attacker_calls += attacks[i].attacker_calls;
      transactions += attacks[i].transactions;
      adds += attacks[i].jgr_adds;
    }
    Check(&out, attacks.size() == 54,
          "paper: " + std::to_string(attacks.size()) +
              " Fig 8 devices (54 expected)");
    out.found = exploitable + detected;
    out.counts = {{"paper.exploitable", exploitable},
                  {"paper.detected", detected},
                  {"binder.calls", verify_calls + transactions},
                  {"runtime.jgr_adds", adds},
                  {"experiment.attacker_calls", attacker_calls}};

    if (figures != nullptr) {
      (*figures)["dynamic.calls"] = static_cast<double>(verify_calls);
      (*figures)["experiment.calls"] = static_cast<double>(attacker_calls);
      (*figures)["binder.calls"] =
          static_cast<double>(verify_calls + transactions);
      (*figures)["runtime.jgr_adds"] = static_cast<double>(adds);
    }
    return out;
  }

 private:
  struct State {
    std::unique_ptr<core::AndroidSystem> system;
    model::CodeModel model;
    analysis::AnalysisReport report;
  };

  std::unique_ptr<State> Setup() const {
    ScopedSpan setup("bench.setup");
    auto state = std::make_unique<State>();
    core::SystemConfig config;
    config.seed = seed_;
    state->system = BootSystem(config);
    {
      ScopedSpan span("model.build");
      state->model = model::BuildAospModel(*state->system);
    }
    ScopedSpan span("analysis.run");
    state->report = analysis::RunAnalysis(state->model);
    return state;
  }

  std::uint64_t seed_;
  int jobs_;
  defense::JgreDefender::Config defender_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fuzz", "fleet", "matrix",
                                                 "paper"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, int jobs) {
  if (name == "fuzz") return std::make_unique<FuzzWorkload>(seed, jobs);
  if (name == "fleet") return std::make_unique<FleetWorkload>(seed, jobs);
  if (name == "matrix") return std::make_unique<MatrixWorkload>(seed, jobs);
  if (name == "paper") return std::make_unique<PaperWorkload>(seed, jobs);
  return nullptr;
}

}  // namespace e2e
