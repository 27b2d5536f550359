// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The hyperdom query server: a blocking-accept loop feeding the exec
// ThreadPool through a bounded admission queue, speaking HDNP frames
// (server/protocol.h) over TCP.
//
// Robustness contract — every request either completes exactly, degrades
// to a certified-subset kBestEffort answer, or is shed with an explicit
// error frame; the server never hangs on a request and a misbehaving
// client never takes it down:
//
//   * Deadline propagation. A client budget becomes a Deadline at
//     ADMISSION time, so time spent queued counts against it; the query
//     drivers return flagged best-effort subsets on expiry (robustness.md
//     §7), which flow back as normal responses, not errors.
//   * Admission control. The request queue is bounded; when it is full
//     (or the server is draining) the request is answered immediately
//     with kOverloaded — the connection stays open, memory stays bounded.
//   * Hardened connection loop. Truncated frames, CRC mismatches,
//     oversized or malformed payloads, and frames of any protocol version
//     but kProtocolVersion get a kProtocolError frame and the connection
//     is closed (a byte stream cannot be resynced); slow clients are
//     bounded by poll timeouts; EINTR/partial transfers are retried;
//     writes cannot raise SIGPIPE (net.h).
//   * Request-ID echo. Every reply echoes its request's ID. A frame sent
//     before that ID is read (accept-time shed, refused header, truncated
//     payload, CRC mismatch) carries ID 0, and the connection is closed
//     after it.
//   * Graceful drain. Stop() closes the listener, wakes every connection
//     with a read-side shutdown, lets in-flight queries finish and their
//     responses flush, then joins all threads. Requests that race the
//     drain are shed with kOverloaded.
//
// Fault sites server/accept, server/read, server/write, server/enqueue
// make each failure edge deterministically testable.

#ifndef HYPERDOM_SERVER_SERVER_H_
#define HYPERDOM_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "dominance/criterion.h"
#include "exec/thread_pool.h"
#include "index/ss_tree.h"
#include "server/protocol.h"

namespace hyperdom {

class MutableSsTree;

namespace shard {
class ShardedStore;
}  // namespace shard

namespace server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = pick an ephemeral port (read back via port())
  /// Query workers; 0 = hardware concurrency.
  size_t worker_threads = 0;
  /// Admission-queue bound: requests beyond this are shed (kOverloaded).
  size_t queue_capacity = 128;
  /// Connections beyond this are told kOverloaded and closed at accept.
  size_t max_connections = 256;
  /// Per-frame payload cap, enforced before allocation.
  uint64_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Bound on each socket read/write wait (slow-client defense).
  int io_timeout_ms = 5000;
  /// kNN latency (admission to response) at or above which one
  /// hyperdom-slowlog-v1 record is emitted. 0 disables the slow-query log.
  uint64_t slow_query_micros = 0;
  /// Runs inside Stop() immediately after the server flips to draining and
  /// BEFORE the listener closes. The admin plane hooks this to flip
  /// /readyz to 503 while the query port still accepts, so load balancers
  /// stop routing before connections start failing.
  std::function<void()> drain_begin_hook;
  /// Test-only: runs at the start of every worker drain loop (lets tests
  /// park workers to fill the queue deterministically).
  std::function<void()> worker_start_hook;
};

/// \brief Counters mirrored into obs metrics, readable directly in tests
/// (and when observability is compiled out).
struct ServerCounters {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<int64_t> active_connections{0};
  std::atomic<uint64_t> requests_served{0};
  std::atomic<uint64_t> requests_shed{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> best_effort_responses{0};
  std::atomic<uint64_t> slow_queries{0};
};

/// \brief The query server. Borrows the tree and criterion (not owned);
/// both must outlive it. Start() returns once the listener is live;
/// Stop() (or the destructor) drains gracefully.
class Server {
 public:
  Server(const SsTree* tree, const DominanceCriterion* criterion,
         ServerOptions options);

  /// \brief Mutable mode: serves kNN against the mutable tree's pinned
  /// snapshots AND accepts insert/remove frames, which flow through the
  /// same admission queue, deadline accounting, and shed policy as
  /// queries. Read-only servers answer mutation frames with
  /// kNotSupported.
  Server(MutableSsTree* tree, const DominanceCriterion* criterion,
         ServerOptions options);

  /// \brief Sharded mode: kNN requests scatter across the store's shards
  /// and gather through the merged best-known list, so answers are
  /// bit-identical to a single unsharded index (src/shard/). The scatter
  /// runs serially on the worker thread — workers already ARE the pool,
  /// and a worker waiting on its own pool would deadlock. Mutation frames
  /// get kNotSupported.
  Server(const shard::ShardedStore* store, const DominanceCriterion* criterion,
         ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spins up the accept loop + workers.
  Status Start();

  /// Graceful drain: stop accepting, finish in-flight queries, flush
  /// their responses, join everything. Idempotent.
  void Stop();

  /// The bound port (valid after Start(); resolves port 0 requests).
  uint16_t port() const { return port_; }

  /// True once Stop() has begun refusing new work.
  bool draining() const { return draining_.load(); }

  /// Current admission-queue depth (racy-but-consistent monitoring read;
  /// the admin plane's background tick samples this into the
  /// hyperdom_server_queue_depth gauge).
  size_t QueueDepth() const;

  const ServerCounters& counters() const { return counters_; }

 private:
  struct Connection;

  struct Work {
    FrameKind kind = FrameKind::kKnnRequest;
    KnnRequest request;        // valid when kind == kKnnRequest
    InsertRequest insert;      // valid when kind == kInsertRequest
    RemoveRequest remove;      // valid when kind == kRemoveRequest
    Deadline deadline;  // built at admission: queue wait burns budget
    std::chrono::steady_clock::time_point admitted;
    uint64_t request_id = 0;  // echoed by the response, errors included
    std::promise<std::string> response;  // an encoded HDNP frame
  };

  // Bounded MPMC admission queue.
  bool TryEnqueue(std::unique_ptr<Work> work);
  std::unique_ptr<Work> Dequeue();  // null once closed and empty
  void CloseQueue();

  void AcceptLoop();
  void ConnectionLoop(Connection* conn);
  void WorkerLoop();
  std::string ProcessRequest(Work& work);
  std::string ProcessKnn(Work& work);
  std::string ProcessMutation(Work& work);
  // Severs every live (non-retired) connection's read side so their
  // threads wind down.
  void ShutdownConnections();

  // Exactly one of the three backends is non-null, per the ctor used.
  const SsTree* tree_;
  MutableSsTree* mutable_tree_;
  const shard::ShardedStore* sharded_store_ = nullptr;
  const DominanceCriterion* criterion_;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};

  mutable std::mutex queue_mu_;
  std::condition_variable queue_ready_;
  std::deque<std::unique_ptr<Work>> queue_;
  bool queue_closed_ = false;

  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> workers_;

  struct Connection {
    // Guarded by conns_mu_ after the thread starts. The connection thread
    // owns the close: it retires the entry (fd = -1, then close) under
    // conns_mu_ before setting `finished`, so ShutdownConnections never
    // touches a descriptor the kernel may have recycled.
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;

  ServerCounters counters_;
};

}  // namespace server
}  // namespace hyperdom

#endif  // HYPERDOM_SERVER_SERVER_H_
