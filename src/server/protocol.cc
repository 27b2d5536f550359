// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "server/protocol.h"

#include <cassert>
#include <cstring>

#include "common/crc32.h"

namespace hyperdom {
namespace server {

namespace {

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Bounds-checked sequential reader over a payload. Every Consume* checks
// the remaining size first, so a truncated payload fails cleanly instead
// of reading past the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : rest_(bytes) {}

  template <typename T>
  bool Consume(T* value) {
    if (rest_.size() < sizeof(T)) return false;
    std::memcpy(value, rest_.data(), sizeof(T));
    rest_.remove_prefix(sizeof(T));
    return true;
  }

  bool ConsumeDoubles(size_t count, std::vector<double>* out) {
    // Compare by division: `count` comes straight off the wire, and
    // count * sizeof(double) can wrap for count >= 2^61, which would let
    // the size check pass and resize() throw past vector::max_size.
    if (count > rest_.size() / sizeof(double)) return false;
    out->resize(count);
    std::memcpy(out->data(), rest_.data(), count * sizeof(double));
    rest_.remove_prefix(count * sizeof(double));
    return true;
  }

  bool ConsumeBytes(size_t count, std::string* out) {
    if (rest_.size() < count) return false;
    out->assign(rest_.data(), count);
    rest_.remove_prefix(count);
    return true;
  }

  bool empty() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

Status Malformed(const char* what) {
  return Status::ProtocolError(std::string("malformed payload: ") + what);
}

bool KnownKind(uint32_t kind) {
  return kind >= static_cast<uint32_t>(FrameKind::kKnnRequest) &&
         kind <= static_cast<uint32_t>(FrameKind::kMutateResponse);
}

// The wire form of a StatusCode. The enum's numeric values are not part of
// any stability contract, so the mapping is explicit in both directions.
uint32_t StatusCodeToWire(StatusCode code) {
  return static_cast<uint32_t>(code);
}

bool WireToStatusCode(uint32_t wire, StatusCode* out) {
  if (wire > static_cast<uint32_t>(StatusCode::kConflict)) return false;
  *out = static_cast<StatusCode>(wire);
  return *out != StatusCode::kOk;
}

Status MakeStatus(StatusCode code, std::string msg) {
  switch (code) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kIOError:
      return Status::IOError(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(msg));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case StatusCode::kOverloaded:
      return Status::Overloaded(std::move(msg));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case StatusCode::kProtocolError:
      return Status::ProtocolError(std::move(msg));
    case StatusCode::kConflict:
      return Status::Conflict(std::move(msg));
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(std::move(msg));
}

}  // namespace

Deadline DeadlineFromRequest(const KnnRequest& request) {
  Deadline deadline = Deadline::FromBudgetMicros(request.budget_micros);
  if (request.node_budget > 0) deadline.SetNodeBudget(request.node_budget);
  return deadline;
}

std::string EncodeFrame(FrameKind kind, uint64_t request_id,
                        std::string_view payload) {
  const uint64_t wire_size = sizeof(request_id) + payload.size();
  std::string frame;
  frame.reserve(kFrameHeaderSize + wire_size);
  frame.append(kFrameMagic, sizeof(kFrameMagic));
  AppendPod(&frame, kProtocolVersion);
  AppendPod(&frame, static_cast<uint32_t>(kind));
  AppendPod(&frame, wire_size);
  AppendPod(&frame, uint32_t{0});  // payload CRC, filled in below
  AppendPod(&frame, request_id);
  frame.append(payload);
  const uint32_t crc = Crc32Of(frame.data() + kFrameHeaderSize, wire_size);
  std::memcpy(frame.data() + kFrameHeaderSize - sizeof(crc), &crc,
              sizeof(crc));
  return frame;
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes,
                                      uint64_t max_payload_bytes) {
  if (bytes.size() != kFrameHeaderSize) {
    return Status::ProtocolError("truncated frame header: " +
                                 std::to_string(bytes.size()) + " of " +
                                 std::to_string(kFrameHeaderSize) + " bytes");
  }
  ByteReader in(bytes);
  char magic[4];
  in.Consume(&magic);
  if (std::memcmp(magic, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::ProtocolError("bad magic: not a hyperdom frame");
  }
  uint32_t version = 0;
  uint32_t kind = 0;
  FrameHeader header;
  in.Consume(&version);
  in.Consume(&kind);
  in.Consume(&header.payload_size);
  in.Consume(&header.payload_crc);
  if (version != kProtocolVersion) {
    return Status::ProtocolError("unsupported protocol version " +
                                 std::to_string(version));
  }
  if (!KnownKind(kind)) {
    return Status::ProtocolError("unknown frame kind " + std::to_string(kind));
  }
  header.kind = static_cast<FrameKind>(kind);
  if (header.payload_size > max_payload_bytes) {
    return Status::ProtocolError(
        "payload size " + std::to_string(header.payload_size) +
        " exceeds limit " + std::to_string(max_payload_bytes));
  }
  return header;
}

Status VerifyPayloadCrc(const FrameHeader& header, std::string_view payload) {
  if (Crc32Of(payload.data(), payload.size()) != header.payload_crc) {
    return Status::ProtocolError("payload checksum mismatch");
  }
  return Status::OK();
}

Status ExtractRequestId(std::string_view* payload, uint64_t* request_id) {
  *request_id = 0;
  if (payload->size() < sizeof(uint64_t)) {
    return Status::ProtocolError("payload shorter than its request-id prefix");
  }
  std::memcpy(request_id, payload->data(), sizeof(uint64_t));
  payload->remove_prefix(sizeof(uint64_t));
  return Status::OK();
}

std::string EncodeKnnRequest(const KnnRequest& request) {
  std::string payload;
  const size_t dim = request.query.dim();
  payload.reserve(3 * sizeof(uint64_t) + 2 * sizeof(uint32_t) +
                  (dim + 1) * sizeof(double));
  AppendPod(&payload, request.budget_micros);
  AppendPod(&payload, request.node_budget);
  AppendPod(&payload, request.k);
  AppendPod(&payload, static_cast<uint32_t>(request.strategy));
  AppendPod(&payload, static_cast<uint64_t>(dim));
  for (double c : request.query.center()) AppendPod(&payload, c);
  AppendPod(&payload, request.query.radius());
  return payload;
}

Result<KnnRequest> DecodeKnnRequest(std::string_view payload) {
  ByteReader in(payload);
  KnnRequest request;
  uint32_t strategy = 0;
  uint64_t dim = 0;
  if (!in.Consume(&request.budget_micros) ||
      !in.Consume(&request.node_budget) || !in.Consume(&request.k) ||
      !in.Consume(&strategy) || !in.Consume(&dim)) {
    return Malformed("truncated knn request header");
  }
  if (strategy > static_cast<uint32_t>(SearchStrategy::kBestFirst)) {
    return Malformed("unknown search strategy");
  }
  request.strategy = static_cast<SearchStrategy>(strategy);
  if (request.k == 0) return Malformed("k must be positive");
  if (dim == 0) return Malformed("query dimensionality must be positive");
  // dim is a raw wire value (it can lie — even overflow count*8):
  // ConsumeDoubles checks it against the bytes actually present before
  // allocating, so a lying dim fails cleanly here.
  std::vector<double> center;
  double radius = 0.0;
  if (!in.ConsumeDoubles(dim, &center) || !in.Consume(&radius)) {
    return Malformed("truncated query sphere");
  }
  if (!in.empty()) return Malformed("trailing bytes after knn request");
  if (const Status invalid = Hypersphere::Validate(center, radius);
      !invalid.ok()) {
    return Status::ProtocolError("invalid query sphere: " + invalid.message());
  }
  request.query = Hypersphere(std::move(center), radius);
  return request;
}

std::string EncodeKnnResponse(const KnnResponse& response) {
  std::string payload;
  const size_t dim =
      response.answers.empty() ? 0 : response.answers.front().sphere.dim();
  payload.reserve(sizeof(uint32_t) + 2 * sizeof(uint64_t) +
                  response.answers.size() *
                      (sizeof(uint64_t) + (dim + 1) * sizeof(double)));
  AppendPod(&payload, static_cast<uint32_t>(response.completeness));
  AppendPod(&payload, static_cast<uint64_t>(dim));
  AppendPod(&payload, static_cast<uint64_t>(response.answers.size()));
  for (const DataEntry& entry : response.answers) {
    AppendPod(&payload, entry.id);
    for (double c : entry.sphere.center()) AppendPod(&payload, c);
    AppendPod(&payload, entry.sphere.radius());
  }
  return payload;
}

Result<KnnResponse> DecodeKnnResponse(std::string_view payload) {
  ByteReader in(payload);
  KnnResponse response;
  uint32_t completeness = 0;
  uint64_t dim = 0;
  uint64_t count = 0;
  if (!in.Consume(&completeness) || !in.Consume(&dim) || !in.Consume(&count)) {
    return Malformed("truncated knn response header");
  }
  if (completeness > static_cast<uint32_t>(Completeness::kBestEffort)) {
    return Malformed("unknown completeness tag");
  }
  response.completeness = static_cast<Completeness>(completeness);
  // Entries are parsed one at a time, so `count` never drives an
  // allocation larger than the bytes actually present.
  for (uint64_t i = 0; i < count; ++i) {
    DataEntry entry;
    std::vector<double> center;
    double radius = 0.0;
    if (!in.Consume(&entry.id) || !in.ConsumeDoubles(dim, &center) ||
        !in.Consume(&radius)) {
      return Malformed("truncated knn response entry");
    }
    if (const Status invalid = Hypersphere::Validate(center, radius);
        !invalid.ok()) {
      return Status::ProtocolError("invalid answer sphere: " +
                                   invalid.message());
    }
    entry.sphere = Hypersphere(std::move(center), radius);
    response.answers.push_back(std::move(entry));
  }
  if (!in.empty()) return Malformed("trailing bytes after knn response");
  return response;
}

std::string EncodeInsertRequest(const InsertRequest& request) {
  std::string payload;
  const size_t dim = request.sphere.dim();
  payload.reserve(3 * sizeof(uint64_t) + (dim + 1) * sizeof(double));
  AppendPod(&payload, request.budget_micros);
  AppendPod(&payload, request.id);
  AppendPod(&payload, static_cast<uint64_t>(dim));
  for (double c : request.sphere.center()) AppendPod(&payload, c);
  AppendPod(&payload, request.sphere.radius());
  return payload;
}

Result<InsertRequest> DecodeInsertRequest(std::string_view payload) {
  ByteReader in(payload);
  InsertRequest request;
  uint64_t dim = 0;
  if (!in.Consume(&request.budget_micros) || !in.Consume(&request.id) ||
      !in.Consume(&dim)) {
    return Malformed("truncated insert request header");
  }
  if (dim == 0) return Malformed("sphere dimensionality must be positive");
  // As in DecodeKnnRequest: dim is untrusted; ConsumeDoubles checks it
  // against the bytes present before allocating.
  std::vector<double> center;
  double radius = 0.0;
  if (!in.ConsumeDoubles(dim, &center) || !in.Consume(&radius)) {
    return Malformed("truncated insert sphere");
  }
  if (!in.empty()) return Malformed("trailing bytes after insert request");
  if (const Status invalid = Hypersphere::Validate(center, radius);
      !invalid.ok()) {
    return Status::ProtocolError("invalid insert sphere: " +
                                 invalid.message());
  }
  request.sphere = Hypersphere(std::move(center), radius);
  return request;
}

std::string EncodeRemoveRequest(const RemoveRequest& request) {
  std::string payload;
  payload.reserve(2 * sizeof(uint64_t));
  AppendPod(&payload, request.budget_micros);
  AppendPod(&payload, request.id);
  return payload;
}

Result<RemoveRequest> DecodeRemoveRequest(std::string_view payload) {
  ByteReader in(payload);
  RemoveRequest request;
  if (!in.Consume(&request.budget_micros) || !in.Consume(&request.id)) {
    return Malformed("truncated remove request");
  }
  if (!in.empty()) return Malformed("trailing bytes after remove request");
  return request;
}

std::string EncodeMutateResponse(const MutateResponse& response) {
  std::string payload;
  payload.reserve(2 * sizeof(uint64_t));
  AppendPod(&payload, response.version);
  AppendPod(&payload, response.live);
  return payload;
}

Result<MutateResponse> DecodeMutateResponse(std::string_view payload) {
  ByteReader in(payload);
  MutateResponse response;
  if (!in.Consume(&response.version) || !in.Consume(&response.live)) {
    return Malformed("truncated mutate response");
  }
  if (!in.empty()) return Malformed("trailing bytes after mutate response");
  return response;
}

std::string EncodeErrorResponse(const Status& status) {
  assert(!status.ok() && "error frames carry failures only");
  std::string payload;
  payload.reserve(2 * sizeof(uint32_t) + status.message().size());
  AppendPod(&payload, StatusCodeToWire(status.code()));
  AppendPod(&payload, static_cast<uint32_t>(status.message().size()));
  payload.append(status.message());
  return payload;
}

Status DecodeErrorResponse(std::string_view payload, Status* decoded) {
  ByteReader in(payload);
  uint32_t wire_code = 0;
  uint32_t msg_len = 0;
  if (!in.Consume(&wire_code) || !in.Consume(&msg_len)) {
    return Malformed("truncated error response");
  }
  StatusCode code = StatusCode::kInternal;
  if (!WireToStatusCode(wire_code, &code)) {
    return Malformed("unknown status code in error response");
  }
  std::string message;
  if (!in.ConsumeBytes(msg_len, &message)) {
    return Malformed("truncated error message");
  }
  if (!in.empty()) return Malformed("trailing bytes after error response");
  *decoded = MakeStatus(code, std::move(message));
  return Status::OK();
}

}  // namespace server
}  // namespace hyperdom
