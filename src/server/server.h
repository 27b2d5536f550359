// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The hyperdom query server: a blocking-accept loop and one thread per
// connection, which runs each request once FIFO admission grants it one of
// a bounded number of permits, speaking HDNP frames (server/protocol.h).
//
// Robustness contract — every request either completes exactly, degrades
// to a certified-subset kBestEffort answer, or is shed with an explicit
// error frame; the server never hangs on a request and a misbehaving
// client never takes it down:
//
//   * Deadline propagation. A client budget becomes a Deadline at
//     ADMISSION time, so time spent waiting for a permit counts against
//     it; the query drivers return flagged best-effort subsets on expiry
//     (robustness.md §7), which flow back as normal responses, not errors.
//   * Admission control. Requests wait for a permit in arrival order; when
//     the bounded wait is full (or the server is draining) the request is
//     answered at once with kOverloaded — the connection stays open.
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
//     with a read-side shutdown, lets running and waiting requests finish
//     and their responses flush, then joins all threads. Requests that
//     race the drain are shed with kOverloaded.
//
// Fault sites server/accept, server/read, server/write, server/enqueue
// make each failure edge deterministically testable.

#ifndef HYPERDOM_SERVER_SERVER_H_
#define HYPERDOM_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "dominance/criterion.h"
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
  /// Requests that may run at once; 0 = hardware concurrency. With many
  /// more connections than permits, each hand-off idles a permit for one
  /// thread wake-up (docs/robustness.md §9).
  size_t worker_threads = 0;
  /// Requests that may wait for a permit; any more are shed (kOverloaded).
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
  /// Test-only: runs on a request's thread once it holds a permit, inside
  /// the exception boundary (lets tests park running requests).
  std::function<void(uint64_t request_id)> admitted_hook;
};

/// \brief Counters mirrored into obs metrics, readable directly in tests.
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
  /// same admission, deadline accounting, and shed policy as queries.
  /// Read-only servers answer mutation frames with kNotSupported.
  Server(MutableSsTree* tree, const DominanceCriterion* criterion,
         ServerOptions options);

  /// \brief Sharded mode: kNN requests scatter across the store's shards
  /// and gather through the merged best-known list, so answers are
  /// bit-identical to a single unsharded index for every criterion but
  /// MBR, whose answers depend on access order (shard/sharded_query.h).
  /// The scatter runs serially on the request's thread: permits already
  /// bound concurrency, and a scatter pool would add a hand-off per request.
  /// Mutation frames get kNotSupported.
  Server(const shard::ShardedStore* store, const DominanceCriterion* criterion,
         ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the accept loop.
  Status Start();

  /// Graceful drain: stop accepting, finish running and waiting requests,
  /// flush their responses, join everything. Idempotent.
  void Stop();

  /// The bound port (valid after Start(); resolves port 0 requests).
  uint16_t port() const { return port_; }

  /// True once Stop() has begun refusing new work.
  bool draining() const { return draining_.load(); }

  /// Requests waiting for a permit (racy-but-consistent monitoring read;
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
    Deadline deadline;  // built before admission: the wait burns budget
    std::chrono::steady_clock::time_point admitted;
    uint64_t request_id = 0;  // echoed by the response, errors included
  };

  // FIFO admission: false means shed; true means the caller holds a permit
  // until it calls ReleasePermit.
  bool AcquirePermit();
  void ReleasePermit();

  void AcceptLoop();
  void ConnectionLoop(Connection* conn);
  // Stamps `work` with its admission time and ID, admits (or sheds) it
  // and runs it here; returns the response frame.
  std::string Admit(Work& work, uint64_t request_id);
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

  // A request that finds all permits_ held takes ticket tickets_issued_
  // and sleeps on slots_[ticket % slot_count_] until ReleasePermit hands
  // it a permit by moving tickets_admitted_ past it. At most slot_count_
  // tickets wait at once, so a slot's sleepers are at most one waiting
  // ticket and granted ones that have not woken yet.
  mutable std::mutex queue_mu_;
  std::unique_ptr<std::condition_variable[]> slots_;
  size_t slot_count_ = 0;
  size_t permits_ = 0;
  size_t running_ = 0;  // permits held
  uint64_t tickets_issued_ = 0;
  uint64_t tickets_admitted_ = 0;

  std::thread accept_thread_;

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
