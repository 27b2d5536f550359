// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/trace.h"
#include "server/net.h"

namespace hyperdom {
namespace server {

namespace {

// Transport failures worth a reconnect-and-retry: the TCP connection died
// or never came up. Timeouts are excluded — the caller's budget is spent.
bool IsRetryableTransport(const Status& status) {
  return status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kNotFound;
}

}  // namespace

Client::Client(ClientOptions options)
    : options_(std::move(options)),
      jitter_(options_.jitter_seed),
      // Spread clients across the ID space so concurrent clients' IDs stay
      // distinct in merged traces; deterministic in the seed.
      next_request_id_(options_.jitter_seed * 0x9E3779B97F4A7C15ull + 1) {}

uint64_t Client::NextRequestId() {
  uint64_t id = next_request_id_++;
  if (id == 0) id = next_request_id_++;  // 0 marks pre-ID server frames
  return id;
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    CloseSocket(fd_);
    fd_ = -1;
  }
}

Status Client::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  Result<int> fd = ConnectWithTimeout(options_.host, options_.port,
                                      options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  return Status::OK();
}

Status Client::Exchange(const std::string& frame, FrameKind* kind_out,
                        std::string* payload_out, uint64_t* echoed_id_out) {
  HYPERDOM_RETURN_NOT_OK(
      WriteFull(fd_, frame.data(), frame.size(), options_.io_timeout_ms));
  char header_bytes[kFrameHeaderSize];
  HYPERDOM_RETURN_NOT_OK(ReadFull(fd_, header_bytes, sizeof(header_bytes),
                                  options_.io_timeout_ms));
  Result<FrameHeader> header = DecodeFrameHeader(
      std::string_view(header_bytes, sizeof(header_bytes)),
      options_.max_payload_bytes);
  if (!header.ok()) return header.status();
  payload_out->assign(header->payload_size, '\0');
  if (header->payload_size > 0) {
    HYPERDOM_RETURN_NOT_OK(ReadFull(fd_, payload_out->data(),
                                    payload_out->size(),
                                    options_.io_timeout_ms));
  }
  HYPERDOM_RETURN_NOT_OK(VerifyPayloadCrc(*header, *payload_out));
  std::string_view body(*payload_out);
  HYPERDOM_RETURN_NOT_OK(ExtractRequestId(&body, echoed_id_out));
  payload_out->erase(0, sizeof(uint64_t));
  *kind_out = header->kind;
  return Status::OK();
}

void Client::Backoff(int attempt) {
  const int64_t base = options_.backoff_base_ms;
  const int64_t cap = std::max<int64_t>(1, options_.backoff_max_ms);
  // min(base << attempt, cap), shift guarded against overflow.
  int64_t full = cap;
  if (attempt < 31 && base > 0 && (base << attempt) < cap) {
    full = base << attempt;
  }
  // Jitter: uniform in [full/2, full], deterministic in the seed, so a
  // retry storm from many clients spreads out instead of synchronizing.
  const int64_t wait = full <= 1
                           ? full
                           : full / 2 + static_cast<int64_t>(jitter_.UniformU64(
                                            static_cast<uint64_t>(
                                                full - full / 2 + 1)));
  if (wait > 0) std::this_thread::sleep_for(std::chrono::milliseconds(wait));
}

Status Client::Call(FrameKind request_kind, const std::string& request_payload,
                    FrameKind* kind_out, std::string* payload_out) {
  HYPERDOM_SPAN(span, "client/call");
  const int attempts = std::max(1, options_.max_attempts);
  // One ID per logical request: retries of the same call re-send the same
  // frame, so both sides' spans and logs reconcile every attempt into one
  // story.
  const uint64_t request_id = NextRequestId();
  last_request_id_ = request_id;
  HYPERDOM_SPAN_ANNOTATE(span, "request_id", request_id);
  const std::string frame =
      EncodeFrame(request_kind, request_id, request_payload);
  Status last = Status::Internal("no attempt made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    last_attempts_ = attempt + 1;
    if (attempt > 0) Backoff(attempt - 1);
    Status connected = EnsureConnected();
    if (!connected.ok()) {
      last = std::move(connected);
      if (!IsRetryableTransport(last) &&
          last.code() != StatusCode::kDeadlineExceeded) {
        return last;  // e.g. InvalidArgument host — retrying cannot help
      }
      // Connect timeouts ARE retried: no request was in flight, so the
      // no-retry-on-timeout rule (which protects the caller's IO budget)
      // does not apply yet.
      continue;
    }
    uint64_t echoed_id = 0;
    Status exchanged = Exchange(frame, kind_out, payload_out, &echoed_id);
    if (!exchanged.ok()) {
      last = std::move(exchanged);
      Close();  // the stream may be desynchronized; always reconnect
      if (last.code() == StatusCode::kProtocolError) return last;
      if (last.code() == StatusCode::kDeadlineExceeded) return last;
      if (!IsRetryableTransport(last)) return last;
      continue;
    }
    const bool is_error = *kind_out == FrameKind::kErrorResponse;
    if (is_error && echoed_id == 0) {
      // Sent before the server read this request's ID (accept-time shed,
      // refused header) and followed by its close: it answers this
      // request, and a retry must reconnect.
      Close();
    } else if (echoed_id != request_id) {
      // The stream answered some other request: resync is impossible.
      Close();
      return Status::ProtocolError(
          "response echoed request id " + std::to_string(echoed_id) +
          ", expected " + std::to_string(request_id));
    }
    if (!is_error) return Status::OK();
    Status remote;
    HYPERDOM_RETURN_NOT_OK(DecodeErrorResponse(*payload_out, &remote));
    // A shed response is an application-level "try again later"; anything
    // else is a definitive remote failure.
    if (remote.code() != StatusCode::kOverloaded) return remote;
    last = std::move(remote);
  }
  return last;
}

Status Client::Ping() {
  FrameKind kind = FrameKind::kPingRequest;
  std::string payload;
  HYPERDOM_RETURN_NOT_OK(Call(FrameKind::kPingRequest, {}, &kind, &payload));
  if (kind != FrameKind::kPongResponse) {
    return Status::ProtocolError("unexpected response to ping");
  }
  return Status::OK();
}

Result<KnnResponse> Client::Knn(const KnnRequest& request) {
  FrameKind kind = FrameKind::kKnnRequest;
  std::string payload;
  HYPERDOM_RETURN_NOT_OK(Call(FrameKind::kKnnRequest,
                              EncodeKnnRequest(request), &kind, &payload));
  if (kind != FrameKind::kKnnResponse) {
    return Status::ProtocolError("unexpected response kind to knn request");
  }
  return DecodeKnnResponse(payload);
}

Result<MutateResponse> Client::Insert(const InsertRequest& request) {
  FrameKind kind = FrameKind::kInsertRequest;
  std::string payload;
  HYPERDOM_RETURN_NOT_OK(Call(FrameKind::kInsertRequest,
                              EncodeInsertRequest(request), &kind, &payload));
  if (kind != FrameKind::kMutateResponse) {
    return Status::ProtocolError("unexpected response kind to insert request");
  }
  return DecodeMutateResponse(payload);
}

Result<MutateResponse> Client::Remove(const RemoveRequest& request) {
  FrameKind kind = FrameKind::kRemoveRequest;
  std::string payload;
  HYPERDOM_RETURN_NOT_OK(Call(FrameKind::kRemoveRequest,
                              EncodeRemoveRequest(request), &kind, &payload));
  if (kind != FrameKind::kMutateResponse) {
    return Status::ProtocolError("unexpected response kind to remove request");
  }
  return DecodeMutateResponse(payload);
}

}  // namespace server
}  // namespace hyperdom
