// The standard hunt battery.
//
// Three read verdicts the pipeline has already reached, behind the Hunt
// interface: the analysis report's sift verdicts, the fuzz campaign's
// confirmed findings and the defender's incident reports. Two are new
// detectors for the follow-up work's evasion patterns (arXiv 2405.00526):
// slow-drip retention that stays under the monitor's alarm threshold, and
// death-recipient/weak-reference churn that grows nothing net but burns the
// victim's table bandwidth through one interface.
#ifndef JGRE_DETECT_HUNTS_H_
#define JGRE_DETECT_HUNTS_H_

#include <string_view>
#include <vector>

#include "detect/hunt.h"

namespace jgre::detect {

// The static sifter's verdicts: accuses every candidate the analysis report
// left standing (AnalysisReport::Candidates(), risky and unsifted), in that
// order. Candidates with a taint witness are kStrong; a witness-free one
// yields kHypothetical.
class SiftRuleHunt : public Hunt {
 public:
  std::string_view id() const override { return "static.sift-rules"; }
  std::string_view description() const override {
    return "risky IPC interfaces surviving the four sift rules";
  }
  SourceMask required_sources() const override {
    return MaskOf(DataSource::kAnalysis);
  }
  std::vector<Detection> Run(const DataSources& sources,
                             const Scope& scope) const override;
};

// The fuzz oracle's verdicts: a campaign creates a finding only after the
// oracle's confirm stage passed, so every finding is accused kConfirmed — a
// victim abort during the confirmation probe, or growth at the confirm bar.
// The reproducer is the finding's minimized homogeneous witness sequence.
class ExhaustionOracleHunt : public Hunt {
 public:
  std::string_view id() const override { return "fuzz.exhaustion-oracle"; }
  std::string_view description() const override {
    return "fuzz findings confirmed at the oracle's confirm bar";
  }
  SourceMask required_sources() const override {
    return MaskOf(DataSource::kFuzzFindings);
  }
  std::vector<Detection> Run(const DataSources& sources,
                             const Scope& scope) const override;
};

// The defender's alarm-report check: one detection per incident report,
// carrying the victim's JGR trace window between alarm and report as
// provenance and attributing the interface via the top-ranked caller's
// dominant IPC type.
class AlarmReportHunt : public Hunt {
 public:
  std::string_view id() const override { return "defense.alarm-report"; }
  std::string_view description() const override {
    return "monitor alarm-to-report incidents with ranked attribution";
  }
  SourceMask required_sources() const override {
    return MaskOf(DataSource::kDefender) | MaskOf(DataSource::kTraceEvents);
  }
  std::vector<Detection> Run(const DataSources& sources,
                             const Scope& scope) const override;
};

// Protocol hunt: cross-call retention chains from the ProtocolGraph. One
// detection per distinct terminal interface, carrying the static chain
// (`A → B → sink`, the first — shortest-from-its-mint — chain the canonical
// enumeration reaches it by) in the note, the terminal's taint witness as
// provenance, and — when the run also supplies fuzz findings — the confirmed
// reproducer for the terminal, fused into the same detection. Requires the
// protocol-graph modality explicitly, so analysis-only runs (the census's
// static pass) never see it.
class ProtocolChainHunt : public Hunt {
 public:
  std::string_view id() const override { return "protocol.cross-call-retention"; }
  std::string_view description() const override {
    return "multi-transaction retention chains over minted values";
  }
  SourceMask required_sources() const override {
    return MaskOf(DataSource::kAnalysis) | MaskOf(DataSource::kProtocolGraph);
  }
  std::vector<Detection> Run(const DataSources& sources,
                             const Scope& scope) const override;
};

// Follow-up hunt: sustained net JGR retention at a creation rate low enough
// that the threshold monitor never alarms (the slow-drip evasion profile).
// Fires only when no incident was raised — a raised incident is the alarm
// hunt's finding — and the victim's table stayed under the alarm threshold.
class SlowDripHunt : public Hunt {
 public:
  struct Tuning {
    std::int64_t min_net_growth = 128;   // retained entries over the run
    std::int64_t strong_net_growth = 2048;
    double max_adds_per_sec = 512.0;     // above this it is a flood, not a drip
    DurationUs min_span_us = 1'000'000;  // rate needs a meaningful window
  };

  SlowDripHunt() = default;
  explicit SlowDripHunt(Tuning tuning) : tuning_(tuning) {}

  std::string_view id() const override { return "followup.slow-drip"; }
  std::string_view description() const override {
    return "sustained sub-alarm-threshold JGR retention";
  }
  SourceMask required_sources() const override {
    return MaskOf(DataSource::kTraceEvents);
  }
  std::vector<Detection> Run(const DataSources& sources,
                             const Scope& scope) const override;

 private:
  Tuning tuning_;
};

// Follow-up hunt: death-recipient/weak-reference churn — JGR creations and
// releases both high and nearly balanced, concentrated on one IPC interface
// from one caller (a flooded replace-single or register/unregister slot).
// Net table growth is ~zero, so neither the threshold monitor nor the
// exhaustion oracle ever fires; the signature is the balance plus the
// concentration.
class DeathRecipientChurnHunt : public Hunt {
 public:
  struct Tuning {
    std::int64_t min_adds = 512;          // total victim JGR creations
    double min_remove_ratio = 0.85;       // removes/adds balance
    std::int64_t max_net_growth = 128;    // |net| above this is retention
    std::int64_t min_top_calls = 256;     // calls from the dominant pair
    double min_concentration = 0.5;       // dominant pair's share of IPC
  };

  DeathRecipientChurnHunt() = default;
  explicit DeathRecipientChurnHunt(Tuning tuning) : tuning_(tuning) {}

  std::string_view id() const override { return "followup.death-churn"; }
  std::string_view description() const override {
    return "balanced add/remove churn concentrated on one interface";
  }
  SourceMask required_sources() const override {
    return MaskOf(DataSource::kTraceEvents);
  }
  std::vector<Detection> Run(const DataSources& sources,
                             const Scope& scope) const override;

 private:
  Tuning tuning_;
};

}  // namespace jgre::detect

#endif  // JGRE_DETECT_HUNTS_H_
