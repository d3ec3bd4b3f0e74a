// SystemSnapshot — deterministic checkpoint/restore for whole simulations.
//
// A checkpoint is the byte-stable serialization of every piece of mutable
// simulation state (virtual clock, RNG streams, heap + strong-hold graph,
// IRT/JGR tables, kernel process table + LMK, binder node table + IPC log +
// death links, service retention state), produced by the per-module
// SaveState hooks in a fixed module order. A defender is not part of an
// image: the one that guards a restored system is installed after the
// restore, and reads the kernel IPC log from that point on. Restoring into a
// Boot()ed AndroidSystem built from the same SystemConfig (fresh, or one
// that ran anything since short of a soft reboot) yields a simulation whose
// subsequent event stream is byte-identical to the original: the property
// the divergence auditor (below) checks event by event.
//
// On-disk format: "JGRESNAP" magic, little-endian header (version, seed,
// virtual time, payload size), the payload, and an FNV-1a trailer over the
// payload. A JSON manifest sidecar (<path>.manifest.json) carries the same
// identity fields for tooling (scripts/validate_snapshot_manifest.py).
#ifndef JGRE_SNAPSHOT_SNAPSHOT_H_
#define JGRE_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/event.h"
#include "snapshot/serializer.h"

namespace jgre::core {
class AndroidSystem;
}

namespace jgre::snapshot {

inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::uint64_t kSnapshotMagic = 0x50414E5345524A47ull;  // "JGRESNAP" LE

// Identity of a checkpoint; serialized as the file header and exported as
// the JSON manifest.
struct SnapshotManifest {
  std::uint32_t version = kSnapshotVersion;
  std::uint64_t seed = 0;        // SystemConfig::seed of the captured system
  TimeUs virtual_time_us = 0;    // clock at the checkpoint boundary
  std::uint64_t content_hash = 0;  // FNV-1a over the payload bytes
  std::uint64_t byte_size = 0;     // payload size

  std::string ToJson() const;
};

class SystemSnapshot {
 public:
  SystemSnapshot() = default;

  // Captures a booted, quiescent system. Preconditions: the system has never
  // soft-rebooted (re-booted services sit at post-boot node ids, which
  // restore as loud placeholder binders) and no virtual timers are pending.
  static Result<SystemSnapshot> Capture(core::AndroidSystem& system);

  // Restores into a Boot()ed AndroidSystem with the SAME SystemConfig:
  // freshly booted, or reused after anything short of a soft reboot (the
  // restore is exact either way). A target booted with another seed or
  // config fails with InvalidArgument, untouched. Returns a non-OK Status,
  // leaving the system half-restored and fit only for destruction, for a
  // corrupt image (one written under an older payload layout fails on a
  // marker mismatch), a soft-rebooted system, or one whose boot-time binder
  // died since boot.
  Status RestoreInto(core::AndroidSystem* system) const;

  // Binary checkpoint at `path` plus the JSON manifest sidecar at
  // `path` + ".manifest.json".
  Status WriteFile(const std::string& path) const;
  static Result<SystemSnapshot> ReadFile(const std::string& path);

  const SnapshotManifest& manifest() const { return manifest_; }
  const std::vector<std::uint8_t>& payload() const { return payload_; }

  // Where this snapshot lives on disk: set by ReadFile and WriteFile, empty
  // for an image that only ever existed in memory. Restore errors cite
  // DescribeSource() so a failure names the image to inspect, not just a
  // deserializer offset.
  const std::string& source_path() const { return source_path_; }
  // "<path>.manifest.json" for a file-backed snapshot, "" otherwise.
  std::string ManifestPath() const {
    return source_path_.empty() ? std::string() : source_path_ + kManifestSuffix;
  }
  // "manifest <path>.manifest.json" or "in-memory snapshot (seed S, t=T us)".
  std::string DescribeSource() const;

  static constexpr const char* kManifestSuffix = ".manifest.json";

 private:
  SnapshotManifest manifest_;
  std::vector<std::uint8_t> payload_;
  // Last persisted location; bookkeeping only, so the const WriteFile can
  // record it.
  mutable std::string source_path_;
};

// --- Divergence auditing ----------------------------------------------------
//
// The determinism contract in checkable form: subscribe an EventTape to each
// of two runs (cold and restored) at equivalent points, run both, and ask
// for the first event where the tapes disagree. Byte-identical runs yield
// std::nullopt.

class EventTape : public obs::EventSink {
 public:
  void OnEvent(const obs::TraceEvent& event) override {
    events_.push_back(event);
  }
  const std::vector<obs::TraceEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

 private:
  std::vector<obs::TraceEvent> events_;
};

struct Divergence {
  std::size_t index = 0;    // first differing event (or the shorter length)
  std::string description;  // human-readable field-level diff
};

std::optional<Divergence> FirstDivergence(
    const std::vector<obs::TraceEvent>& cold,
    const std::vector<obs::TraceEvent>& restored);

}  // namespace jgre::snapshot

#endif  // JGRE_SNAPSHOT_SNAPSHOT_H_
