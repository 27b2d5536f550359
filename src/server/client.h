// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Fault-tolerant client for the hyperdom query server. Wraps one TCP
// connection with:
//
//   * configurable connect and per-IO timeouts (poll-bounded, EINTR-safe);
//   * connection retry with bounded exponential backoff plus deterministic
//     jitter (seeded Rng, so a test's retry schedule reproduces exactly);
//   * transparent retry of idempotent requests after transport failures
//     (connect refused, reset, EOF) and after kOverloaded responses —
//     kNN queries are read-only, so re-sending is always safe;
//   * NO retry on kProtocolError (a malformed exchange will not improve)
//     or on client-side IO timeout (the caller's time budget is spent —
//     kDeadlineExceeded goes back to the caller, who owns the tradeoff);
//   * one request ID per call, never 0, sent on every attempt. A response
//     must echo it, except an error frame echoing ID 0: the server sends
//     those before it has read a request's ID (an accept-time shed, a
//     refused header) and then closes, so the client closes too and the
//     next attempt reconnects.
//
// Thread-compatible: one Client per thread; concurrent calls on one
// instance are not supported.

#ifndef HYPERDOM_SERVER_CLIENT_H_
#define HYPERDOM_SERVER_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "server/protocol.h"

namespace hyperdom {
namespace server {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connect_timeout_ms = 2000;
  /// Bound on each read/write wait. A server still computing past this is
  /// reported as kDeadlineExceeded (the request may complete server-side).
  int io_timeout_ms = 10000;
  /// Total tries per request (first attempt + retries). Minimum 1.
  int max_attempts = 4;
  /// Backoff before retry t is min(base << t, max), jittered to a uniform
  /// draw from [half, full] so synchronized clients desynchronize.
  int backoff_base_ms = 10;
  int backoff_max_ms = 2000;
  uint64_t jitter_seed = 0x5EEDu;
  /// Per-frame payload cap enforced on responses, pre-allocation.
  uint64_t max_payload_bytes = kDefaultMaxPayloadBytes;
};

/// \brief One logical connection to a hyperdom server, reconnecting and
/// retrying per the options above.
class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Liveness probe (retried like any idempotent request).
  Status Ping();

  /// Runs one kNN query. Exact or best-effort per the server's deadline
  /// handling; kOverloaded only after every attempt was shed.
  Result<KnnResponse> Knn(const KnnRequest& request);

  /// \name Mutations. Retried on the same transport-failure/kOverloaded
  /// policy as queries, which makes delivery AT-LEAST-ONCE: if the
  /// connection dies after the server applied the mutation but before the
  /// ack arrived, the retry re-sends it. Ids make this detectable — a
  /// re-applied Insert comes back kInvalidArgument (duplicate id) and a
  /// re-applied Remove comes back kNotFound, either of which the caller
  /// may treat as "already applied". kConflict (store frozen or
  /// compacting) is returned as-is, not retried.
  /// @{
  Result<MutateResponse> Insert(const InsertRequest& request);
  Result<MutateResponse> Remove(const RemoveRequest& request);
  /// @}

  /// Drops the connection (the next request reconnects).
  void Close();

  /// Attempts consumed by the last request (for tests and the load gen).
  int last_attempts() const { return last_attempts_; }

  /// Request ID the last request was sent under (echoed by the server on
  /// its response frame and annotated on both sides' spans). Never 0 once
  /// a request was made.
  uint64_t last_request_id() const { return last_request_id_; }

 private:
  Status EnsureConnected();
  /// One send/receive exchange on the live connection. kind_out receives
  /// the response frame kind; the payload (request-ID prefix already
  /// stripped) goes to payload_out and the echoed ID to echoed_id_out.
  Status Exchange(const std::string& frame, FrameKind* kind_out,
                  std::string* payload_out, uint64_t* echoed_id_out);
  /// Full request with retry/backoff: encodes the frame once, re-sends it
  /// per attempt, checks the echoed request ID, and on success returns
  /// the response (kind + payload) of the final attempt.
  Status Call(FrameKind request_kind, const std::string& request_payload,
              FrameKind* kind_out, std::string* payload_out);
  void Backoff(int attempt);
  /// The next request ID; skips 0, which marks server frames sent before
  /// a request's ID was read.
  uint64_t NextRequestId();

  ClientOptions options_;
  Rng jitter_;
  int fd_ = -1;
  int last_attempts_ = 0;
  uint64_t next_request_id_ = 1;
  uint64_t last_request_id_ = 0;
};

}  // namespace server
}  // namespace hyperdom

#endif  // HYPERDOM_SERVER_CLIENT_H_
