// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/snapshot.h"

#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/io.h"
#include "index/ss_tree.h"
#include "index/vp_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperdom {

namespace {

#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
int64_t SnapshotNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
#endif

// Publishes one snapshot operation: counts it under op=save|load and
// result=ok|error, and records the latency. Snapshot ops are rare, so the
// per-call registry lookup is fine.
[[maybe_unused]] void RecordSnapshotOp([[maybe_unused]] const char* op,
                      [[maybe_unused]] bool ok,
                      [[maybe_unused]] uint64_t elapsed_ns) {
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  auto& reg = obs::MetricsRegistry::Instance();
  std::string name(obs::kSnapshotOps.name);
  name.append("{op=\"").append(op);
  name.append("\",result=\"").append(ok ? "ok" : "error").append("\"}");
  reg.GetCounter(std::move(name), obs::kSnapshotOps.help)->Add(1);
  reg.GetHistogram(obs::kSnapshotDuration, "op", op)->Record(elapsed_ns);
#endif
}

constexpr char kSnapMagic[4] = {'H', 'D', 'S', 'P'};
// v2 wraps store-backed payloads (HDSS v3 / HDVP v2). Any other version,
// including the retired v1, is kNotSupported: callers rebuild from the
// data.
constexpr uint32_t kSnapVersion = 2;

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ConsumePod(std::string_view* in, T* value) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(value, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

// Assembles envelope + payload in memory, writes it to `<path>.tmp` via the
// hardened EINTR/partial-write loop in common/io, then renames into place,
// so an interrupted save never replaces a good snapshot with a torn one.
Status WriteEnvelope(const std::string& path, SnapshotKind kind,
                     const std::string& payload) {
  HYPERDOM_FAULT_POINT("snapshot/write");
  std::string body;
  body.reserve(sizeof(kSnapMagic) + 3 * sizeof(uint32_t) + sizeof(uint64_t) +
               payload.size());
  body.append(kSnapMagic, sizeof(kSnapMagic));
  AppendPod(&body, kSnapVersion);
  AppendPod(&body, static_cast<uint32_t>(kind));
  AppendPod(&body, static_cast<uint64_t>(payload.size()));
  AppendPod(&body, Crc32Of(payload.data(), payload.size()));
  body += payload;
  const std::string tmp = path + ".tmp";
  Status written = WriteStringToFile(tmp, body);
  if (!written.ok()) {
    (void)RemoveFile(tmp);  // best-effort cleanup; report the write error
    return written;
  }
  Status renamed = RenameFile(tmp, path);
  if (!renamed.ok()) {
    (void)RemoveFile(tmp);
    return renamed;
  }
  return Status::OK();
}

// Reads and validates the envelope; fills `*info` and, when the header is
// sound, the payload bytes. info->crc_ok reports the checksum comparison.
// The whole file is read first (bounded by the actual file size, so a
// corrupted size field still cannot drive a huge allocation), then the
// declared payload size is checked against the bytes actually present.
Status ReadEnvelope(const std::string& path, SnapshotInfo* info,
                    std::string* payload) {
  HYPERDOM_FAULT_POINT("snapshot/read");
  Result<std::string> file = ReadFileToString(path);
  if (!file.ok()) return file.status();
  std::string_view in(*file);
  char magic[4];
  if (!ConsumePod(&in, &magic) ||
      std::memcmp(magic, kSnapMagic, sizeof(kSnapMagic)) != 0) {
    return Status::Corruption("bad magic: not a hyperdom snapshot");
  }
  uint32_t version = 0;
  if (!ConsumePod(&in, &version)) return Status::Corruption("truncated header");
  if (version != kSnapVersion) {
    return Status::NotSupported("unsupported snapshot version " +
                                std::to_string(version));
  }
  uint32_t kind = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  if (!ConsumePod(&in, &kind) || !ConsumePod(&in, &payload_size) ||
      !ConsumePod(&in, &crc)) {
    return Status::Corruption("truncated header");
  }
  if (kind != static_cast<uint32_t>(SnapshotKind::kSsTree) &&
      kind != static_cast<uint32_t>(SnapshotKind::kVpTree)) {
    return Status::Corruption("unknown snapshot kind " +
                              std::to_string(kind));
  }
  info->kind = static_cast<SnapshotKind>(kind);
  info->version = version;
  info->payload_size = payload_size;
  if (in.size() != payload_size) {
    return Status::Corruption("payload size mismatch: header says " +
                              std::to_string(payload_size) + " bytes");
  }
  info->crc_ok = Crc32Of(in.data(), in.size()) == crc;
  payload->assign(in.data(), in.size());
  return Status::OK();
}

// Shared load path: envelope checks, then the tree's own Deserialize.
template <typename Tree>
Status LoadSnapshotImpl(const std::string& path, SnapshotKind expected,
                        Tree* out) {
  HYPERDOM_SPAN(span, "snapshot/load");
  HYPERDOM_SPAN_ANNOTATE(span, "path", path);
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  const int64_t start_ns = SnapshotNowNs();
#endif
  auto finish = [&](Status status) {
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
    RecordSnapshotOp("load", status.ok(),
                     static_cast<uint64_t>(SnapshotNowNs() - start_ns));
#endif
    return status;
  };
  SnapshotInfo info;
  std::string payload;
  Status read = ReadEnvelope(path, &info, &payload);
  if (!read.ok()) return finish(std::move(read));
  if (info.kind != expected) {
    return finish(Status::InvalidArgument(
        "snapshot holds a " + std::string(SnapshotKindName(info.kind)) +
        ", expected a " + std::string(SnapshotKindName(expected))));
  }
  if (!info.crc_ok) {
    return finish(Status::Corruption("snapshot checksum mismatch: " + path));
  }
  std::istringstream in(std::move(payload), std::ios::binary);
  return finish(Tree::Deserialize(in, out));
}

template <typename Tree>
Status SaveSnapshotImpl(const Tree& tree, SnapshotKind kind,
                        const std::string& path) {
  HYPERDOM_SPAN(span, "snapshot/save");
  HYPERDOM_SPAN_ANNOTATE(span, "path", path);
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  const int64_t start_ns = SnapshotNowNs();
#endif
  std::ostringstream payload(std::ios::binary);
  Status status = tree.Serialize(payload);
  if (status.ok()) status = WriteEnvelope(path, kind, payload.str());
#if defined(HYPERDOM_OBSERVABILITY_ENABLED)
  RecordSnapshotOp("save", status.ok(),
                   static_cast<uint64_t>(SnapshotNowNs() - start_ns));
#endif
  return status;
}

}  // namespace

std::string_view SnapshotKindName(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::kSsTree:
      return "ss-tree";
    case SnapshotKind::kVpTree:
      return "vp-tree";
  }
  return "unknown";
}

Status SaveSnapshot(const SsTree& tree, const std::string& path) {
  return SaveSnapshotImpl(tree, SnapshotKind::kSsTree, path);
}

Status SaveSnapshot(const VpTree& tree, const std::string& path) {
  return SaveSnapshotImpl(tree, SnapshotKind::kVpTree, path);
}

Status LoadSnapshot(const std::string& path, SsTree* out) {
  return LoadSnapshotImpl(path, SnapshotKind::kSsTree, out);
}

Status LoadSnapshot(const std::string& path, VpTree* out) {
  return LoadSnapshotImpl(path, SnapshotKind::kVpTree, out);
}

Result<SnapshotInfo> VerifySnapshot(const std::string& path) {
  SnapshotInfo info;
  std::string payload;
  HYPERDOM_RETURN_NOT_OK(ReadEnvelope(path, &info, &payload));
  return info;
}

Status LoadSnapshotOrRebuild(const std::string& path,
                             const std::vector<Hypersphere>& data,
                             SsTree* out, SnapshotLoadOutcome* outcome,
                             Status* load_error) {
  HYPERDOM_SPAN(span, "snapshot/load_or_rebuild");
  const Status loaded = LoadSnapshot(path, out);
  if (load_error != nullptr) *load_error = loaded;
  if (loaded.ok()) {
    *outcome = SnapshotLoadOutcome::kLoaded;
    return Status::OK();
  }
  // Falling back to an O(n log n) rebuild: count it (an operator alert —
  // the snapshot on disk is missing or corrupt) and record why.
  HYPERDOM_COUNTER_INC(obs::kSnapshotRebuildFallback);
  HYPERDOM_SPAN_ANNOTATE(span, "rebuild_fallback", loaded.message());
  SsTree rebuilt(data.empty() ? out->dim() : data.front().dim(),
                 out->options());
  HYPERDOM_RETURN_NOT_OK(rebuilt.BulkLoadStr(data));
  *out = std::move(rebuilt);
  *outcome = SnapshotLoadOutcome::kRebuilt;
  return Status::OK();
}

Status LoadSnapshotOrRebuild(const std::string& path,
                             const std::vector<Hypersphere>& data,
                             VpTree* out, SnapshotLoadOutcome* outcome,
                             Status* load_error) {
  HYPERDOM_SPAN(span, "snapshot/load_or_rebuild");
  const Status loaded = LoadSnapshot(path, out);
  if (load_error != nullptr) *load_error = loaded;
  if (loaded.ok()) {
    *outcome = SnapshotLoadOutcome::kLoaded;
    return Status::OK();
  }
  HYPERDOM_COUNTER_INC(obs::kSnapshotRebuildFallback);
  HYPERDOM_SPAN_ANNOTATE(span, "rebuild_fallback", loaded.message());
  VpTree rebuilt(out->options());
  HYPERDOM_RETURN_NOT_OK(rebuilt.Build(data));
  *out = std::move(rebuilt);
  *outcome = SnapshotLoadOutcome::kRebuilt;
  return Status::OK();
}

}  // namespace hyperdom
