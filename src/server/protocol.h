// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The hyperdom network protocol (HDNP): length-prefixed binary frames in
// the HDSP snapshot-envelope idiom — magic | version | kind | payload_size
// | payload_crc32 | payload. Layout is host-endian, like the snapshot
// format: this is a same-machine / same-architecture protocol, and the
// doubles it carries must round-trip bit-identically (the loopback e2e
// test asserts answers equal the direct KnnSearcher's bit for bit).
//
// There is one version, 2. Every payload begins with a u64 request ID
// (client-generated, never 0, echoed verbatim on every response frame
// including errors and sheds, so client and server logs, spans, and
// slow-query records correlate); the CRC covers the prefixed payload. A
// frame the server sends before it has read a request's ID — an
// accept-time shed, or the refusal of a bad header, an oversized
// declaration, a truncated payload or a CRC mismatch — carries ID 0 and
// is followed by a close. Any other version, including the retired
// ID-less version 1, is refused with kProtocolError.
//
// Every decoder is hardened for untrusted input: the header is validated
// (magic, version, kind, size cap) BEFORE the payload is allocated or
// read, the CRC is compared before any payload field is parsed, and the
// payload readers bounds-check every field, so a truncated, bit-flipped,
// or adversarial frame yields Status::ProtocolError — never a crash, an
// over-allocation, or a silently wrong answer.

#ifndef HYPERDOM_SERVER_PROTOCOL_H_
#define HYPERDOM_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "index/entry.h"
#include "query/knn_types.h"

namespace hyperdom {
namespace server {

/// Frame type tags on the wire.
enum class FrameKind : uint32_t {
  kKnnRequest = 1,
  kKnnResponse = 2,
  kErrorResponse = 3,
  kPingRequest = 4,
  kPongResponse = 5,
  // Mutability: a peer without these kinds rejects them as unknown, which
  // the client surfaces as a clean ProtocolError.
  kInsertRequest = 6,
  kRemoveRequest = 7,
  kMutateResponse = 8,
};

inline constexpr char kFrameMagic[4] = {'H', 'D', 'N', 'P'};
inline constexpr uint32_t kProtocolVersion = 2;

/// Fixed wire size of the frame header: magic(4) + version(4) + kind(4) +
/// payload_size(8) + payload_crc32(4).
inline constexpr size_t kFrameHeaderSize = 24;

/// Default cap a receiver enforces on the declared payload size, checked
/// before any allocation. Far above any real request/response here, far
/// below anything that could OOM the process.
inline constexpr uint64_t kDefaultMaxPayloadBytes = 16ull << 20;

/// A validated frame header (magic already checked and stripped).
struct FrameHeader {
  FrameKind kind = FrameKind::kPingRequest;
  uint64_t payload_size = 0;
  uint32_t payload_crc = 0;
};

/// One kNN query as sent by a client. A zero budget means unbounded.
struct KnnRequest {
  uint64_t budget_micros = 0;  ///< wall-clock budget; 0 = unbounded
  uint64_t node_budget = 0;    ///< node-visit budget; 0 = unbounded
  uint32_t k = 10;
  SearchStrategy strategy = SearchStrategy::kBestFirst;
  Hypersphere query;
};

/// The answer set for one kNN request.
struct KnnResponse {
  Completeness completeness = Completeness::kExact;
  std::vector<DataEntry> answers;
};

/// Inserts one sphere under a caller-chosen id. A zero budget means
/// unbounded; the deadline covers queue wait, like kNN requests.
struct InsertRequest {
  uint64_t budget_micros = 0;
  uint64_t id = 0;
  Hypersphere sphere;
};

/// Deletes the live row under `id`.
struct RemoveRequest {
  uint64_t budget_micros = 0;
  uint64_t id = 0;
};

/// Acknowledges an applied mutation: the store version it published and
/// the live-row count after it.
struct MutateResponse {
  uint64_t version = 0;
  uint64_t live = 0;
};

/// Builds the client-side Deadline implied by a request's budgets.
Deadline DeadlineFromRequest(const KnnRequest& request);

/// Assembles a complete frame (header + payload) ready to write: the
/// payload is prefixed with `request_id` and the CRC covers the prefixed
/// bytes.
std::string EncodeFrame(FrameKind kind, uint64_t request_id,
                        std::string_view payload);

/// Validates `bytes` (exactly kFrameHeaderSize of them) as a frame header:
/// magic, version == kProtocolVersion, known kind, and payload_size <=
/// max_payload_bytes. Returns kProtocolError otherwise. Runs BEFORE the
/// payload is read, so a corrupt size field never drives an allocation.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes,
                                      uint64_t max_payload_bytes);

/// Strips the request-ID prefix off a CRC-verified payload into
/// `*request_id`; kProtocolError when the payload is shorter than the
/// prefix.
Status ExtractRequestId(std::string_view* payload, uint64_t* request_id);

/// Compares the payload bytes against the header CRC; kProtocolError on
/// mismatch (a bit flip anywhere in the payload).
Status VerifyPayloadCrc(const FrameHeader& header, std::string_view payload);

/// \name Payload codecs. Encoders are infallible; decoders bounds-check
/// every field and return kProtocolError on malformed input.
/// @{
std::string EncodeKnnRequest(const KnnRequest& request);
Result<KnnRequest> DecodeKnnRequest(std::string_view payload);

std::string EncodeKnnResponse(const KnnResponse& response);
Result<KnnResponse> DecodeKnnResponse(std::string_view payload);

std::string EncodeInsertRequest(const InsertRequest& request);
Result<InsertRequest> DecodeInsertRequest(std::string_view payload);

std::string EncodeRemoveRequest(const RemoveRequest& request);
Result<RemoveRequest> DecodeRemoveRequest(std::string_view payload);

std::string EncodeMutateResponse(const MutateResponse& response);
Result<MutateResponse> DecodeMutateResponse(std::string_view payload);

/// Error payloads carry (status code, message). Encoding a non-error
/// status is a caller bug (asserted).
std::string EncodeErrorResponse(const Status& status);

/// Parses an error payload into `*decoded` (the remote failure). Returns
/// OK when parsing succeeded; kProtocolError when the payload itself is
/// malformed.
Status DecodeErrorResponse(std::string_view payload, Status* decoded);
/// @}

}  // namespace server
}  // namespace hyperdom

#endif  // HYPERDOM_SERVER_PROTOCOL_H_
