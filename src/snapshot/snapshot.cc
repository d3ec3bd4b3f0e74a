#include "snapshot/snapshot.h"

#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "core/android_system.h"

namespace jgre::snapshot {

namespace {

// Payload framing marker ("SNP3": the config fingerprint, then the system
// state): guards against handing RestoreInto a buffer that is not a snapshot
// payload of this layout.
constexpr std::uint32_t kPayloadMarker = 0x534E5033;

void PutU32(std::ofstream& out, std::uint32_t v) {
  std::uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(bytes), 4);
}

void PutU64(std::ofstream& out, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(bytes), 8);
}

std::string HexU64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    s.push_back(kDigits[(v >> shift) & 0xf]);
  }
  return s;
}

}  // namespace

std::string SnapshotManifest::ToJson() const {
  std::ostringstream out;
  out << "{\n"
      << "  \"format\": \"jgre-snapshot\",\n"
      << "  \"version\": " << version << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"virtual_time_us\": " << virtual_time_us << ",\n"
      << "  \"content_hash\": \"" << HexU64(content_hash) << "\",\n"
      << "  \"byte_size\": " << byte_size << "\n"
      << "}\n";
  return out.str();
}

std::string SystemSnapshot::DescribeSource() const {
  if (!source_path_.empty()) return StrCat("manifest ", ManifestPath());
  return StrCat("in-memory snapshot (seed ", manifest_.seed, ", t=",
                manifest_.virtual_time_us, " us)");
}

Result<SystemSnapshot> SystemSnapshot::Capture(core::AndroidSystem& system) {
  if (system.soft_reboots() != 0) {
    return FailedPrecondition(
        "cannot checkpoint after a soft reboot: re-registered services sit "
        "at post-boot node ids and would restore as placeholder binders");
  }
  if (system.clock().HasPendingTimers()) {
    return FailedPrecondition(
        "cannot checkpoint with pending virtual timers: capture at a "
        "quiescent boundary");
  }
  Serializer out;
  out.Marker(kPayloadMarker);
  out.U64(core::ConfigFingerprint(system.config()));
  system.SaveState(out);

  SystemSnapshot snap;
  snap.manifest_.version = kSnapshotVersion;
  snap.manifest_.seed = system.config().seed;
  snap.manifest_.virtual_time_us = system.clock().NowUs();
  snap.manifest_.content_hash = out.Hash();
  snap.manifest_.byte_size = out.size();
  snap.payload_ = out.TakeBuffer();
  return snap;
}

Status SystemSnapshot::RestoreInto(core::AndroidSystem* system) const {
  if (system->config().seed != manifest_.seed) {
    return InvalidArgument(
        StrCat("checkpoint was captured from seed ", manifest_.seed,
               " but the restore target booted with seed ",
               system->config().seed));
  }
  Deserializer in(payload_);
  in.Marker(kPayloadMarker);
  // The image carries per-process table caps and other config-derived
  // state: restored over another config, the system would report one cap
  // while enforcing the image's.
  const std::uint64_t fingerprint = in.U64();
  if (in.ok() && fingerprint != core::ConfigFingerprint(system->config())) {
    return InvalidArgument(StrCat(
        "checkpoint was captured under a different system configuration "
        "than the restore target booted with [", DescribeSource(), "]"));
  }
  system->RestoreState(in);
  if (!in.ok()) {
    return Internal(
        StrCat("corrupt checkpoint: ", in.error(), " [", DescribeSource(), "]"));
  }
  if (!in.AtEnd()) {
    return Internal(StrCat(
        "corrupt checkpoint: trailing bytes after the payload [",
        DescribeSource(), "]"));
  }
  return Status::Ok();
}

Status SystemSnapshot::WriteFile(const std::string& path) const {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Internal(StrCat("cannot open ", path, " for writing"));
    PutU64(out, kSnapshotMagic);
    PutU32(out, manifest_.version);
    PutU64(out, manifest_.seed);
    PutU64(out, manifest_.virtual_time_us);
    PutU64(out, static_cast<std::uint64_t>(payload_.size()));
    out.write(reinterpret_cast<const char*>(payload_.data()),
              static_cast<std::streamsize>(payload_.size()));
    PutU64(out, manifest_.content_hash);
    if (!out) return Internal(StrCat("short write to ", path));
  }
  source_path_ = path;
  const std::string manifest_path = path + kManifestSuffix;
  std::ofstream manifest(manifest_path, std::ios::trunc);
  if (!manifest) {
    return Internal(StrCat("cannot open ", manifest_path, " for writing"));
  }
  manifest << manifest_.ToJson();
  if (!manifest) return Internal(StrCat("short write to ", manifest_path));
  return Status::Ok();
}

Result<SystemSnapshot> SystemSnapshot::ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status(NotFound(StrCat("cannot open ", path)));
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  Deserializer header(bytes.data(), bytes.size());
  if (header.U64() != kSnapshotMagic) {
    return Status(InvalidArgument(StrCat(path, " is not a JGRE snapshot")));
  }
  SystemSnapshot snap;
  snap.manifest_.version = header.U32();
  if (snap.manifest_.version != kSnapshotVersion) {
    return Status(InvalidArgument(
        StrCat(path, ": unsupported snapshot version ",
               snap.manifest_.version, " (expected ", kSnapshotVersion, ")")));
  }
  snap.manifest_.seed = header.U64();
  snap.manifest_.virtual_time_us = header.U64();
  const std::uint64_t payload_size = header.U64();
  if (!header.ok() || bytes.size() - header.pos() < payload_size + 8) {
    return Status(InvalidArgument(StrCat(path, ": truncated snapshot")));
  }
  snap.payload_.assign(bytes.begin() + static_cast<std::ptrdiff_t>(header.pos()),
                       bytes.begin() + static_cast<std::ptrdiff_t>(
                                           header.pos() + payload_size));
  Deserializer trailer(bytes.data() + header.pos() + payload_size, 8);
  const std::uint64_t stored_hash = trailer.U64();
  const std::uint64_t computed_hash =
      Fnv1a(snap.payload_.data(), snap.payload_.size());
  if (stored_hash != computed_hash) {
    return Status(InvalidArgument(
        StrCat(path, ": content hash mismatch (stored ", HexU64(stored_hash),
               ", computed ", HexU64(computed_hash), ")")));
  }
  snap.manifest_.content_hash = computed_hash;
  snap.manifest_.byte_size = snap.payload_.size();
  snap.source_path_ = path;
  return snap;
}

std::optional<Divergence> FirstDivergence(
    const std::vector<obs::TraceEvent>& cold,
    const std::vector<obs::TraceEvent>& restored) {
  const std::size_t common = cold.size() < restored.size() ? cold.size()
                                                           : restored.size();
  auto describe = [](const obs::TraceEvent& e) {
    return StrCat(obs::CategoryName(e.category), "/", e.name, " ts=", e.ts_us,
                  " dur=", e.dur_us, " pid=", e.pid, " uid=", e.uid,
                  " arg0=", e.arg0, " arg1=", e.arg1);
  };
  // Field-wise, not memcmp: TraceEvent has tail padding whose bytes are
  // indeterminate.
  auto same = [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
    return a.ts_us == b.ts_us && a.dur_us == b.dur_us && a.arg0 == b.arg0 &&
           a.arg1 == b.arg1 && a.pid == b.pid && a.uid == b.uid &&
           a.name == b.name && a.category == b.category;
  };
  for (std::size_t i = 0; i < common; ++i) {
    if (!same(cold[i], restored[i])) {
      return Divergence{
          i, StrCat("event ", i, ": cold {", describe(cold[i]),
                    "} != restored {", describe(restored[i]), "}")};
    }
  }
  if (cold.size() != restored.size()) {
    return Divergence{
        common, StrCat("tape lengths differ: cold has ", cold.size(),
                       " events, restored has ", restored.size())};
  }
  return std::nullopt;
}

}  // namespace jgre::snapshot
