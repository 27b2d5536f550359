// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "server/server.h"

#include <string>
#include <utility>

#include "common/fault.h"
#include "index/mutable_ss_tree.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/mut_query.h"
#include "server/net.h"
#include "shard/sharded_query.h"
#include "shard/sharded_store.h"
#include "storage/epoch.h"

namespace hyperdom {
namespace server {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The mutation deadline counterpart of DeadlineFromRequest: mutations
/// carry only a wall-clock budget.
Deadline DeadlineFromBudget(uint64_t budget_micros) {
  Deadline deadline;
  if (budget_micros > 0) {
    deadline = Deadline::AfterDuration(std::chrono::microseconds(budget_micros));
  }
  return deadline;
}

}  // namespace

Server::Server(const SsTree* tree, const DominanceCriterion* criterion,
               ServerOptions options)
    : tree_(tree),
      mutable_tree_(nullptr),
      criterion_(criterion),
      options_(std::move(options)) {}

Server::Server(MutableSsTree* tree, const DominanceCriterion* criterion,
               ServerOptions options)
    : tree_(nullptr),
      mutable_tree_(tree),
      criterion_(criterion),
      options_(std::move(options)) {}

Server::Server(const shard::ShardedStore* store,
               const DominanceCriterion* criterion, ServerOptions options)
    : tree_(nullptr),
      mutable_tree_(nullptr),
      sharded_store_(store),
      criterion_(criterion),
      options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.load()) return Status::Internal("server already started");
  Result<int> listener =
      ListenOn(options_.host, options_.port, /*backlog=*/128);
  if (!listener.ok()) return listener.status();
  listen_fd_ = *listener;
  Result<uint16_t> port = LocalPort(listen_fd_);
  if (!port.ok()) {
    CloseSocket(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = *port;
  started_.store(true);
  draining_.store(false);
  const size_t workers = ThreadPool::ResolveThreads(options_.worker_threads);
  workers_ = std::make_unique<ThreadPool>(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_->Submit([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_.exchange(false)) return;
  // Drain sequence. Order matters:
  // 1. Refuse new work: requests racing the drain are shed (kOverloaded).
  draining_.store(true);
  // 1b. Tell the admin plane (readiness flips to 503) while the query
  //     listener still accepts, so load balancers drain ahead of failure.
  if (options_.drain_begin_hook) options_.drain_begin_hook();
  HYPERDOM_LOG(obs::LogLevel::kInfo, "server", 0, "drain started",
               obs::LogField::U64("port", port_));
  // 2. Wake the accept loop (shutdown, not close: on Linux only shutdown
  //    reliably interrupts a blocked accept), join it, then release the fd.
  ShutdownSocket(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  CloseSocket(listen_fd_);
  listen_fd_ = -1;
  // 3. Wake every connection blocked on a read: they see EOF, finish
  //    writing any in-flight response (the write side stays open), and
  //    wind down. Join WITHOUT holding conns_mu_ — each winding-down
  //    thread takes the lock to retire its fd, and would deadlock against
  //    a join that held it.
  ShutdownConnections();
  std::list<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  // 4. Let the workers drain what was already admitted, then exit. Every
  //    queued Work still gets processed and its promise fulfilled —
  //    in-flight queries finish, nothing is dropped after admission.
  CloseQueue();
  if (workers_) {
    workers_->Wait();
    workers_.reset();
  }
}

bool Server::TryEnqueue(std::unique_ptr<Work> work) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_closed_ || draining_.load() ||
        queue_.size() >= options_.queue_capacity) {
      return false;
    }
    queue_.push_back(std::move(work));
    HYPERDOM_GAUGE_SET(obs::kServerQueueDepth,
                       static_cast<double>(queue_.size()));
  }
  queue_ready_.notify_one();
  return true;
}

std::unique_ptr<Server::Work> Server::Dequeue() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_ready_.wait(lock, [this] { return queue_closed_ || !queue_.empty(); });
  if (queue_.empty()) return nullptr;  // closed and drained
  std::unique_ptr<Work> work = std::move(queue_.front());
  queue_.pop_front();
  HYPERDOM_GAUGE_SET(obs::kServerQueueDepth,
                     static_cast<double>(queue_.size()));
  return work;
}

size_t Server::QueueDepth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void Server::CloseQueue() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_ready_.notify_all();
}

void Server::AcceptLoop() {
  for (;;) {
    Result<int> accepted = AcceptConnection(listen_fd_);
    if (!accepted.ok()) return;  // listener closed: drain in progress
    const int fd = *accepted;
    if (const Status fault = HYPERDOM_FAULT_POINT_STATUS("server/accept");
        !fault.ok()) {
      // An injected accept-path failure: the connection is dropped before
      // any protocol exchange, exactly like a transient accept error.
      CloseSocket(fd);
      continue;
    }
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    HYPERDOM_COUNTER_INC(obs::kServerConnections);
    bool over_limit = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Reap finished connection threads so a long-lived server does not
      // accumulate one zombie thread per past client.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->finished.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      over_limit = conns_.size() >= options_.max_connections;
      if (!over_limit) {
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        Connection* raw = conn.get();
        conn->thread = std::thread([this, raw] { ConnectionLoop(raw); });
        conns_.push_back(std::move(conn));
      }
    }
    if (over_limit) {
      // Best-effort shed notice, written OUTSIDE conns_mu_: the write can
      // block for up to one io timeout on a stalled peer, and must not
      // stall other accepts or Stop() for that long.
      counters_.requests_shed.fetch_add(1, std::memory_order_relaxed);
      HYPERDOM_COUNTER_INC(obs::kServerShed);
      const std::string frame =
          EncodeFrame(FrameKind::kErrorResponse, /*request_id=*/0,
                      EncodeErrorResponse(Status::Overloaded(
                          "connection limit reached, try again later")));
      WriteFull(fd, frame.data(), frame.size(), options_.io_timeout_ms);
      CloseSocket(fd);
    }
  }
}

void Server::ConnectionLoop(Connection* conn) {
  const int fd = conn->fd;
  const int64_t active =
      counters_.active_connections.fetch_add(1, std::memory_order_relaxed) + 1;
  HYPERDOM_GAUGE_SET(obs::kServerActiveConnections,
                     static_cast<double>(active));
  // One frame per iteration. Any condition that could desynchronize the
  // byte stream (bad header, CRC mismatch, malformed payload) is answered
  // with a best-effort error frame and the connection is closed; transient
  // per-request conditions (overload) keep the connection open.
  // ID of the frame currently being served, echoed by every reply to it.
  // Reset before each header read: failures before the ID is read (bad
  // header, truncated payload, CRC mismatch) reply with ID 0.
  uint64_t request_id = 0;
  auto fail_connection = [&](const Status& error) {
    counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    HYPERDOM_COUNTER_INC(obs::kServerProtocolErrors);
    HYPERDOM_LOG(obs::LogLevel::kWarn, "server", request_id,
                 "connection failed",
                 obs::LogField::Str("error", error.message()));
    const std::string frame = EncodeFrame(
        FrameKind::kErrorResponse, request_id, EncodeErrorResponse(error));
    WriteFull(fd, frame.data(), frame.size(), options_.io_timeout_ms);
  };
  // The loop body is a try block: no decode or encode path is expected to
  // throw, but if one ever does (e.g. bad_alloc building a response frame)
  // it must cost this one connection, not the process — the exception
  // would otherwise escape the connection thread and terminate.
  for (;;) try {
    request_id = 0;
    char header_bytes[kFrameHeaderSize];
    bool clean_eof = false;
    Status read = ReadFull(fd, header_bytes, sizeof(header_bytes),
                           options_.io_timeout_ms, &clean_eof);
    if (read.ok()) read = HYPERDOM_FAULT_POINT_STATUS("server/read");
    if (!read.ok()) {
      // Clean EOF: the client is done. A timeout (slow client) or a
      // truncated header: drop the connection — a half-frame cannot be
      // resynced. Either way the thread exits and resources are reclaimed.
      if (!clean_eof) {
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        HYPERDOM_COUNTER_INC(obs::kServerProtocolErrors);
      }
      break;
    }
    Result<FrameHeader> header = DecodeFrameHeader(
        std::string_view(header_bytes, sizeof(header_bytes)),
        options_.max_payload_bytes);
    if (!header.ok()) {
      fail_connection(header.status());
      break;
    }
    // payload_size is already capped by DecodeFrameHeader, so this
    // allocation is bounded.
    std::string payload(header->payload_size, '\0');
    if (header->payload_size > 0) {
      Status body = ReadFull(fd, payload.data(), payload.size(),
                             options_.io_timeout_ms);
      if (body.ok()) body = HYPERDOM_FAULT_POINT_STATUS("server/read");
      if (!body.ok()) {
        fail_connection(Status::ProtocolError("truncated frame payload: " +
                                              body.message()));
        break;
      }
    }
    if (Status crc = VerifyPayloadCrc(*header, payload); !crc.ok()) {
      fail_connection(crc);
      break;
    }
    // From here on every reply to this frame (response, error, shed)
    // echoes its request ID.
    std::string_view body(payload);
    if (Status split = ExtractRequestId(&body, &request_id); !split.ok()) {
      fail_connection(split);
      break;
    }

    std::string response_frame;
    bool close_after_reply = false;
    // Shared admission path for every queued request kind: deadline
    // starts at admission (queue wait burns budget), shed requests get
    // an immediate kOverloaded with the connection kept open, and an
    // admitted request's promise is always fulfilled by a worker (even
    // during drain the queue is processed to empty), so the wait cannot
    // hang.
    auto submit = [&](std::unique_ptr<Work> work) -> std::string {
      work->admitted = std::chrono::steady_clock::now();
      work->request_id = request_id;
      std::future<std::string> response = work->response.get_future();
      const bool admitted = HYPERDOM_FAULT_POINT_STATUS("server/enqueue").ok() &&
                            TryEnqueue(std::move(work));
      if (!admitted) {
        // Load shedding is per-request, not per-connection: answer
        // kOverloaded immediately and keep reading.
        counters_.requests_shed.fetch_add(1, std::memory_order_relaxed);
        HYPERDOM_COUNTER_INC(obs::kServerShed);
        return EncodeFrame(FrameKind::kErrorResponse, request_id,
                           EncodeErrorResponse(Status::Overloaded(
                               "request queue full, try again later")));
      }
      return response.get();
    };
    auto reject_malformed = [&](const Status& error) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      HYPERDOM_COUNTER_INC(obs::kServerProtocolErrors);
      HYPERDOM_LOG(obs::LogLevel::kWarn, "server", request_id,
                   "malformed request",
                   obs::LogField::Str("error", error.message()));
      response_frame = EncodeFrame(FrameKind::kErrorResponse, request_id,
                                   EncodeErrorResponse(error));
      close_after_reply = true;
    };
    switch (header->kind) {
      case FrameKind::kPingRequest:
        response_frame = EncodeFrame(FrameKind::kPongResponse, request_id, {});
        HYPERDOM_COUNTER_INC_L(obs::kServerRequests, "kind", "ping");
        break;
      case FrameKind::kKnnRequest: {
        Result<KnnRequest> request = DecodeKnnRequest(body);
        if (!request.ok()) {
          reject_malformed(request.status());
          break;
        }
        auto work = std::make_unique<Work>();
        work->kind = FrameKind::kKnnRequest;
        work->request = request.TakeValue();
        work->deadline = DeadlineFromRequest(work->request);
        response_frame = submit(std::move(work));
        break;
      }
      case FrameKind::kInsertRequest: {
        Result<InsertRequest> request = DecodeInsertRequest(body);
        if (!request.ok()) {
          reject_malformed(request.status());
          break;
        }
        auto work = std::make_unique<Work>();
        work->kind = FrameKind::kInsertRequest;
        work->insert = request.TakeValue();
        work->deadline = DeadlineFromBudget(work->insert.budget_micros);
        response_frame = submit(std::move(work));
        break;
      }
      case FrameKind::kRemoveRequest: {
        Result<RemoveRequest> request = DecodeRemoveRequest(body);
        if (!request.ok()) {
          reject_malformed(request.status());
          break;
        }
        auto work = std::make_unique<Work>();
        work->kind = FrameKind::kRemoveRequest;
        work->remove = request.TakeValue();
        work->deadline = DeadlineFromBudget(work->remove.budget_micros);
        response_frame = submit(std::move(work));
        break;
      }
      default:
        // Structurally valid but not something clients may send.
        response_frame = EncodeFrame(
            FrameKind::kErrorResponse, request_id,
            EncodeErrorResponse(Status::ProtocolError(
                "unexpected frame kind on a server connection")));
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        HYPERDOM_COUNTER_INC(obs::kServerProtocolErrors);
        close_after_reply = true;
        break;
    }

    Status written = HYPERDOM_FAULT_POINT_STATUS("server/write");
    if (written.ok()) {
      written = WriteFull(fd, response_frame.data(), response_frame.size(),
                          options_.io_timeout_ms);
    }
    if (!written.ok() || close_after_reply) break;
  } catch (const std::exception& e) {
    fail_connection(
        Status::Internal(std::string("request handling failed: ") + e.what()));
    break;
  } catch (...) {
    fail_connection(Status::Internal("request handling failed"));
    break;
  }
  // Retire the fd under conns_mu_, publishing fd = -1 BEFORE the close:
  // Stop()'s ShutdownConnections skips retired entries, so it can never
  // shutdown(2) a closed descriptor the kernel may have recycled for an
  // unrelated socket.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn->fd = -1;
    CloseSocket(fd);
  }
  conn->finished.store(true);
  const int64_t remaining =
      counters_.active_connections.fetch_sub(1, std::memory_order_relaxed) - 1;
  HYPERDOM_GAUGE_SET(obs::kServerActiveConnections,
                     static_cast<double>(remaining));
}

void Server::WorkerLoop() {
  if (options_.worker_start_hook) options_.worker_start_hook();
  while (std::unique_ptr<Work> work = Dequeue()) {
    // Exception boundary: a throw out of ProcessRequest (e.g. bad_alloc
    // encoding a large response) must fail this one request with a
    // kInternal frame, not escape the worker thread and terminate the
    // process. The promise is always fulfilled, so no connection hangs.
    std::string frame;
    try {
      frame = ProcessRequest(*work);
    } catch (const std::exception& e) {
      HYPERDOM_LOG(obs::LogLevel::kError, "server", work->request_id,
                   "request processing threw",
                   obs::LogField::Str("what", e.what()));
      frame = EncodeFrame(
          FrameKind::kErrorResponse, work->request_id,
          EncodeErrorResponse(Status::Internal(
              std::string("request processing failed: ") + e.what())));
    } catch (...) {
      HYPERDOM_LOG(obs::LogLevel::kError, "server", work->request_id,
                   "request processing threw");
      frame = EncodeFrame(
          FrameKind::kErrorResponse, work->request_id,
          EncodeErrorResponse(Status::Internal("request processing failed")));
    }
    work->response.set_value(std::move(frame));
  }
}

std::string Server::ProcessRequest(Work& work) {
  switch (work.kind) {
    case FrameKind::kKnnRequest:
      return ProcessKnn(work);
    case FrameKind::kInsertRequest:
    case FrameKind::kRemoveRequest:
      return ProcessMutation(work);
    default:
      // ConnectionLoop only enqueues the kinds above.
      return EncodeFrame(
          FrameKind::kErrorResponse, work.request_id,
          EncodeErrorResponse(Status::Internal("unexpected work kind")));
  }
}

std::string Server::ProcessKnn(Work& work) {
  HYPERDOM_SPAN(span, "server/request");
  HYPERDOM_SPAN_ANNOTATE(span, "k", std::to_string(work.request.k));
  HYPERDOM_SPAN_ANNOTATE(span, "request_id", work.request_id);
  KnnOptions options;
  options.k = work.request.k;
  options.strategy = work.request.strategy;
  options.deadline = work.deadline;
  // The traversal reads as many query coordinates as the store has
  // dimensions, so a query of any other dimensionality is refused before
  // it runs, as a wrong-dimensional insert is.
  const size_t dim = sharded_store_ != nullptr ? sharded_store_->dim()
                     : mutable_tree_ != nullptr ? mutable_tree_->dim()
                                                : tree_->dim();
  Status refused = Status::OK();
  KnnResult result;
  uint64_t pinned_version = 0;
  if (dim != 0 && work.request.query.dim() != dim) {
    refused = Status::InvalidArgument(
        "query dimensionality " + std::to_string(work.request.query.dim()) +
        " does not match store dimensionality " + std::to_string(dim));
  } else if (sharded_store_ != nullptr) {
    // Scatter serially (null pool): this worker is already a pool thread,
    // and a worker blocking on its own pool's tasks deadlocks.
    Result<KnnResult> sharded =
        shard::ShardedKnn(*sharded_store_, work.request.query, *criterion_,
                          options, /*pool=*/nullptr);
    if (sharded.ok()) {
      result = sharded.TakeValue();
    } else {
      refused = sharded.status();
    }
  } else if (mutable_tree_ != nullptr) {
    // Mutable mode: the searcher runs against a pinned, immutable
    // version of the store, so concurrent inserts/removes cannot skew
    // this answer.
    Versioned<KnnResult> versioned =
        MutableKnn(*mutable_tree_, *criterion_, options, work.request.query);
    pinned_version = versioned.version;
    result = std::move(versioned.result);
  } else {
    const KnnSearcher searcher(criterion_, options);
    result = searcher.Search(*tree_, work.request.query);
  }
  counters_.requests_served.fetch_add(1, std::memory_order_relaxed);
  HYPERDOM_COUNTER_INC_L(obs::kServerRequests, "kind", "knn");
  if (!refused.ok()) {
    return EncodeFrame(FrameKind::kErrorResponse, work.request_id,
                       EncodeErrorResponse(refused));
  }
  if (result.completeness == Completeness::kBestEffort) {
    counters_.best_effort_responses.fetch_add(1, std::memory_order_relaxed);
    HYPERDOM_COUNTER_INC(obs::kServerBestEffort);
    HYPERDOM_SPAN_EVENT_CURRENT("best_effort");
  }
  const uint64_t elapsed_ns =
      NowNs() -
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              work.admitted.time_since_epoch())
              .count());
  HYPERDOM_HISTOGRAM_RECORD(obs::kServerRequestDuration, elapsed_ns);
  const uint64_t threshold_ns = options_.slow_query_micros * 1000;
  if (threshold_ns != 0 && elapsed_ns >= threshold_ns) {
    counters_.slow_queries.fetch_add(1, std::memory_order_relaxed);
    obs::SlowQueryRecord slow;
    slow.request_id = work.request_id;
    slow.latency_ns = elapsed_ns;
    slow.threshold_ns = threshold_ns;
    slow.index_kind = sharded_store_ != nullptr
                          ? "sharded_ss"
                          : (mutable_tree_ != nullptr ? "mutable_ss" : "ss");
    slow.k = work.request.k;
    slow.nodes_visited = result.stats.nodes_visited;
    slow.nodes_pruned = result.stats.nodes_pruned;
    slow.entries_accessed = result.stats.entries_accessed;
    slow.dominance_checks = result.stats.dominance_checks;
    slow.pruned_case2 = result.stats.pruned_case2;
    slow.pruned_case3 = result.stats.pruned_case3;
    slow.uncertain_verdicts = result.stats.uncertain_verdicts;
    slow.nodes_deadline_skipped = result.stats.nodes_deadline_skipped;
    slow.completeness =
        result.completeness == Completeness::kExact ? 1.0 : 0.0;
    slow.store_version = pinned_version;
    slow.epoch_lag = EpochManager::Global().EpochLag();
    obs::LogSlowQuery(slow);
  }
  KnnResponse response;
  response.completeness = result.completeness;
  response.answers = result.answers;
  return EncodeFrame(FrameKind::kKnnResponse, work.request_id,
                     EncodeKnnResponse(response));
}

std::string Server::ProcessMutation(Work& work) {
  HYPERDOM_SPAN(span, "server/request");
  const bool is_insert = work.kind == FrameKind::kInsertRequest;
  const char* kind_label = is_insert ? "insert" : "remove";
  HYPERDOM_SPAN_ANNOTATE(span, "kind", kind_label);
  HYPERDOM_SPAN_ANNOTATE(span, "request_id", work.request_id);
  HYPERDOM_COUNTER_INC_L(obs::kServerRequests, "kind", kind_label);
  if (mutable_tree_ == nullptr) {
    return EncodeFrame(
        FrameKind::kErrorResponse, work.request_id,
        EncodeErrorResponse(Status::NotSupported(
            "server is read-only: mutation frames are not accepted")));
  }
  // Unlike queries, a mutation cannot degrade to a partial answer: if the
  // budget burned away in the queue, refuse it un-applied so the client's
  // deadline semantics stay exact (apply-or-error, never late-apply).
  if (work.deadline.WallExpired()) {
    counters_.requests_shed.fetch_add(1, std::memory_order_relaxed);
    HYPERDOM_COUNTER_INC(obs::kServerShed);
    return EncodeFrame(FrameKind::kErrorResponse, work.request_id,
                       EncodeErrorResponse(Status::DeadlineExceeded(
                           "mutation budget exhausted before apply")));
  }
  Status applied =
      is_insert ? mutable_tree_->Insert(work.insert.sphere, work.insert.id)
                : mutable_tree_->Remove(work.remove.id);
  const uint64_t elapsed_ns =
      NowNs() -
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              work.admitted.time_since_epoch())
              .count());
  HYPERDOM_HISTOGRAM_RECORD(obs::kServerRequestDuration, elapsed_ns);
  if (!applied.ok()) {
    return EncodeFrame(FrameKind::kErrorResponse, work.request_id,
                       EncodeErrorResponse(applied));
  }
  counters_.requests_served.fetch_add(1, std::memory_order_relaxed);
  MutateResponse response;
  response.version = mutable_tree_->version();
  response.live = mutable_tree_->live_size();
  return EncodeFrame(FrameKind::kMutateResponse, work.request_id,
                     EncodeMutateResponse(response));
}

void Server::ShutdownConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& conn : conns_) {
    // Skip retired entries (fd already closed by the connection thread):
    // a shutdown(2) on a closed fd number could hit an unrelated socket
    // the kernel recycled it for.
    if (conn->fd >= 0) ShutdownRead(conn->fd);
  }
}

}  // namespace server
}  // namespace hyperdom
