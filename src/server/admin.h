// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The live admin plane: a minimal, dependency-free HTTP/1.0 responder on
// a second port, built on the same hardened net.h IO as the query path
// (poll-bounded reads and writes, EINTR-safe, slow-client timeout).
//
// Endpoints (GET only; anything else is 405, unknown paths 404):
//
//   /metrics       Prometheus text exposition (RenderPrometheus)
//   /metrics.json  JSON export, schema hyperdom-metrics-v1 (RenderJson)
//   /healthz       liveness: 200 "ok" while the process serves
//   /readyz        readiness: 200 "ready", or 503 "draining" once
//                  SetReady(false) — the query server's drain_begin_hook
//                  flips it BEFORE the query listener closes, so load
//                  balancers stop routing ahead of connection failures
//   /statusz       JSON: uptime, build info, store version/epoch lag,
//                  admission-queue depth, in-flight connections
//   /tracez        the recent-span ring buffer in Chrome trace format
//
// Hardening: the request buffer is capped (431 beyond the cap), a
// malformed request line gets 400, and every reject is counted in
// hyperdom_admin_http_errors_total — a corrupt or hostile admin request
// never reaches the query path, it costs one bounded admin read.
//
// A background tick (AdminOptions::tick_interval_ms) re-samples the
// admission-queue depth and epoch lag into their gauges, so a scrape sees
// fresh values even when traffic (and therefore the enqueue/retire call
// sites that normally set them) has stalled.
//
// Connection model: accept loop + inline handling, one request per
// connection (Connection: close). The admin plane is an operator surface,
// not a data plane — a stalled scraper delays the next scrape by at most
// io_timeout_ms and touches nothing on the query path.

#ifndef HYPERDOM_SERVER_ADMIN_H_
#define HYPERDOM_SERVER_ADMIN_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"

namespace hyperdom {
namespace server {

struct AdminOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  /// Bound on each socket read/write wait (slow-scraper defense).
  int io_timeout_ms = 2000;
  /// Request cap: headers beyond this get 431 and the connection closes.
  size_t max_request_bytes = 8192;
  /// Gauge re-sample period; 0 disables the background tick.
  int tick_interval_ms = 1000;
  /// Free-form build identification shown in /statusz.
  std::string build_info;
};

/// \brief Admin-plane counters, readable directly in tests.
struct AdminCounters {
  std::atomic<uint64_t> requests{0};     ///< 200-answered requests
  std::atomic<uint64_t> http_errors{0};  ///< 400/404/405/431 rejects
  std::atomic<uint64_t> ticks{0};        ///< background gauge samples
};

/// \brief The admin HTTP server.
///
/// Decoupled from Server by a bundle of sampling callbacks, so it can
/// front a read-only server, a mutable one, or a test harness with no
/// query server at all. Every callback is optional (absent = reported 0).
class AdminServer {
 public:
  /// Live-state sources sampled per request (/statusz) and per tick.
  /// Callbacks must be thread-safe; they run on admin-plane threads.
  struct Sources {
    std::function<size_t()> queue_depth;          ///< waiting for a permit
    std::function<int64_t()> active_connections;  ///< query-plane conns
    std::function<uint64_t()> requests_served;
    std::function<uint64_t()> store_version;  ///< published store version
    std::function<uint64_t()> store_live;     ///< live rows
    std::function<size_t()> shards;  ///< shard count; 0/absent = unsharded
  };

  AdminServer(AdminOptions options, Sources sources);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds, listens, spins up the accept loop and the sampling tick.
  Status Start();

  /// Stops accepting, joins the accept and tick threads. Idempotent.
  void Stop();

  /// The bound port (valid after Start(); resolves port 0 requests).
  uint16_t port() const { return port_; }

  /// Readiness as served by /readyz. Starts true; the query server's
  /// drain_begin_hook calls SetReady(false) when Stop() begins.
  void SetReady(bool ready) { ready_.store(ready); }
  bool ready() const { return ready_.load(); }

  const AdminCounters& counters() const { return counters_; }

 private:
  void AcceptLoop();
  void TickLoop();
  void HandleConnection(int fd);
  void SampleGauges();
  std::string RenderStatusz() const;

  AdminOptions options_;
  Sources sources_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> ready_{true};
  std::chrono::steady_clock::time_point started_at_;

  std::thread accept_thread_;
  std::thread tick_thread_;
  std::mutex tick_mu_;
  std::condition_variable tick_cv_;
  bool tick_stop_ = false;

  AdminCounters counters_;
};

/// Minimal HTTP response as seen by AdminHttpGet.
struct HttpResponse {
  int status_code = 0;
  std::string body;
};

/// The curl-equivalent client: one HTTP/1.0 GET against host:port,
/// whole-call bounded by timeout_ms. Used by tests, the load generator,
/// and anyone without curl on the box.
Result<HttpResponse> AdminHttpGet(const std::string& host, uint16_t port,
                                  const std::string& target, int timeout_ms);

}  // namespace server
}  // namespace hyperdom

#endif  // HYPERDOM_SERVER_ADMIN_H_
