// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/rotation.h"

#include <algorithm>
#include <vector>

#include "common/fault.h"
#include "common/io.h"
#include "index/snapshot.h"
#include "index/ss_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperdom {

namespace {

constexpr char kCurrentName[] = "CURRENT";
/// Generations kept behind the newest one, so a torn CURRENT update can
/// still fall back to a fully written predecessor.
constexpr uint64_t kKeepGenerations = 2;

// op=rotate|rotate_fallback under the shared snapshot-ops counter
// (label assembly mirrors RecordSnapshotOp in snapshot.cc).
void RecordRotateOp(const char* op, bool ok) {
  auto& reg = obs::MetricsRegistry::Instance();
  std::string name(obs::kSnapshotOps.name);
  name.append("{op=\"").append(op);
  name.append("\",result=\"").append(ok ? "ok" : "error").append("\"}");
  reg.GetCounter(std::move(name), obs::kSnapshotOps.help)->Add(1);
}

}  // namespace

SnapshotRotator::SnapshotRotator(std::string dir, std::string base_name)
    : dir_(std::move(dir)), base_(std::move(base_name)) {}

std::string SnapshotRotator::GenerationPath(uint64_t seq) const {
  return dir_ + "/" + base_ + "." + std::to_string(seq) + ".hdsp";
}

std::string SnapshotRotator::CurrentPath() const {
  return dir_ + "/" + kCurrentName;
}

bool SnapshotRotator::ParseGeneration(const std::string& name,
                                      uint64_t* seq) const {
  const std::string prefix = base_ + ".";
  const std::string suffix = ".hdsp";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    if (value > (~0ull - 9) / 10) return false;  // overflow
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

uint64_t SnapshotRotator::CurrentSeq() const {
  Result<std::string> body = ReadFileToString(CurrentPath());
  if (!body.ok()) return 0;
  std::string name = body.ValueOrDie();
  // Trim the trailing newline (and any stray whitespace).
  while (!name.empty() &&
         (name.back() == '\n' || name.back() == '\r' || name.back() == ' ')) {
    name.pop_back();
  }
  uint64_t seq = 0;
  return ParseGeneration(name, &seq) ? seq : 0;
}

Status SnapshotRotator::Persist(const SsTree& tree, uint64_t* published_seq) {
  HYPERDOM_SPAN(span, "snapshot/rotate");
  const uint64_t next = CurrentSeq() + 1;
  const std::string gen = GenerationPath(next);
  HYPERDOM_SPAN_ANNOTATE(span, "generation", std::to_string(next));

  Status status = SaveSnapshot(tree, gen);
  if (status.ok()) {
    status = HYPERDOM_FAULT_POINT_STATUS("snapshot/rotate");
    if (status.ok()) {
      // Swing CURRENT with the same tmp+rename discipline: a crash here
      // leaves either the old manifest (previous generation serves) or
      // the new one (the generation above is fully written and synced).
      const std::string tmp = CurrentPath() + ".tmp";
      status = WriteStringToFile(
          tmp, base_ + "." + std::to_string(next) + ".hdsp\n");
      if (status.ok()) status = RenameFile(tmp, CurrentPath());
      if (!status.ok()) (void)RemoveFile(tmp);
    }
    if (!status.ok()) {
      // The new generation is not referenced by any manifest; remove it
      // so a failed rotation leaves no debris behind.
      (void)RemoveFile(gen);
    }
  }

  RecordRotateOp("rotate", status.ok());
  HYPERDOM_SPAN_ANNOTATE(span, "result", status.ok() ? "ok" : "error");
  if (!status.ok()) return status;

  if (published_seq != nullptr) *published_seq = next;
  Prune(next);
  return Status::OK();
}

void SnapshotRotator::Prune(uint64_t newest) const {
  Result<std::vector<std::string>> entries = ListDirectory(dir_);
  if (!entries.ok()) return;  // best-effort
  for (const std::string& name : entries.ValueOrDie()) {
    uint64_t seq = 0;
    if (!ParseGeneration(name, &seq)) continue;
    if (seq + kKeepGenerations <= newest) {
      (void)RemoveFile(dir_ + "/" + name);
    }
  }
}

Status SnapshotRotator::LoadLatest(SsTree* out, uint64_t* seq_out) const {
  HYPERDOM_SPAN(span, "snapshot/load_latest");

  // Fast path: the generation CURRENT names.
  const uint64_t current = CurrentSeq();
  if (current != 0) {
    Status status = LoadSnapshot(GenerationPath(current), out);
    if (status.ok()) {
      if (seq_out != nullptr) *seq_out = current;
      return Status::OK();
    }
    HYPERDOM_SPAN_ANNOTATE(span, "manifest_generation_failed",
                           status.message());
  }

  // Fallback: newest generation on disk that verifies. Reached when the
  // manifest is missing/corrupt (torn rotation, fresh directory) or the
  // generation it names failed its checksum.
  Result<std::vector<std::string>> entries = ListDirectory(dir_);
  if (!entries.ok()) return entries.status();
  std::vector<uint64_t> seqs;
  for (const std::string& name : entries.ValueOrDie()) {
    uint64_t seq = 0;
    if (ParseGeneration(name, &seq) && seq != current) seqs.push_back(seq);
  }
  std::sort(seqs.rbegin(), seqs.rend());
  for (uint64_t seq : seqs) {
    if (LoadSnapshot(GenerationPath(seq), out).ok()) {
      RecordRotateOp("rotate_fallback", true);
      HYPERDOM_SPAN_ANNOTATE(span, "fallback_generation",
                             std::to_string(seq));
      if (seq_out != nullptr) *seq_out = seq;
      return Status::OK();
    }
  }
  RecordRotateOp("rotate_fallback", false);
  return Status::NotFound("no loadable snapshot generation in '" + dir_ +
                          "'");
}

}  // namespace hyperdom
