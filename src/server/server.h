// QueryServer: the framed-TCP front-end over one Engine (DESIGN.md §10, §13).
//
// A minimal thread-per-connection server exposing Engine::Run / Explain
// over the wire protocol in server/wire.h. Every connection is one
// *session*: a server-assigned id, a small set of session-scoped execution
// options (timeout_ms, memory_limit_bytes, batch_size — set via kSet
// frames), and per-session counters. Queries pass through the
// AdmissionController before they reach the engine; the granted ticket's
// QueryControl (deadline assigned at admit, tightened by the client budget
// a kRunEx frame propagates) and memory budget are installed on the run via
// Engine::QueryOptions — degraded tickets additionally clamp the session's
// batch_size — and the ticket is held until the response frame has been
// written, so drain covers response delivery.
//
// Resilience (DESIGN.md §13): the per-connection read loop runs on poll
// deadlines instead of a blocking recv. A session that sends nothing for
// `idle_timeout_ms`, or stalls for `stall_timeout_ms` in the middle of a
// frame (slowloris), is REAPED: the server sends a kServerGoodbye frame —
// so a well-behaved client can tell eviction from a crash — and tears the
// connection down. Response writes are bounded by `write_timeout_ms` so a
// client that stops reading cannot pin a session thread (and, because
// tickets are held across the write, an admission slot) forever.
//
// Shutdown contract (graceful drain):
//   1. the listener closes — no new connections;
//   2. the admission controller drains — queued queries shed with
//      kResourceExhausted("server draining"), new ones likewise;
//   3. Stop() waits up to drain_timeout_ms for executing queries to finish
//      and flush their responses;
//   4. stragglers are cancelled through Engine::Cancel() (they answer with
//      a clean kCancelled error frame);
//   5. every connection is shut down and all threads joined.
// Stop() is idempotent; the destructor calls it.
#ifndef ULOAD_SERVER_SERVER_H_
#define ULOAD_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "engine/engine.h"
#include "server/admission.h"
#include "server/wire.h"

namespace uload {

struct ServerConfig {
  // 0 = pick an ephemeral port; see QueryServer::port() after Start().
  int port = 0;
  // Listen address; the server is loopback-only by default.
  std::string host = "127.0.0.1";
  size_t max_frame_bytes = FrameReader::kDefaultMaxFrameBytes;
  // How long Stop() waits for in-flight queries to finish (and flush their
  // responses) before cancelling them through the engine.
  int64_t drain_timeout_ms = 10'000;
  // Reap a session that sends no frame for this long (measured between
  // frames); 0 = never reap idle sessions.
  int64_t idle_timeout_ms = 0;
  // Reap a session that goes silent in the MIDDLE of a frame for this long
  // (slowloris / truncated sender); 0 = no mid-frame deadline.
  int64_t stall_timeout_ms = 10'000;
  // Bound on writing one response frame; a client that stops reading is
  // torn down after this. 0 = unbounded (not recommended).
  int64_t write_timeout_ms = 10'000;
  AdmissionConfig admission;
  // Testing hook: invoked on the session thread right after admission is
  // granted (slot held) and before the engine runs — lets a test hold a
  // slot open deterministically. Null = disabled.
  std::function<void(uint64_t session_id)> on_query_start;
};

class QueryServer {
 public:
  struct Stats {
    int64_t sessions_opened = 0;
    int64_t sessions_reaped = 0;  // evicted for idle / mid-frame stall
    int64_t sessions_active = 0;  // connections currently open
    int64_t queries_ok = 0;
    int64_t queries_error = 0;  // engine/admission errors answered on the wire
    int64_t frames_rejected = 0;  // protocol violations (connection torn down)
    int64_t writes_timed_out = 0;  // responses abandoned on a dead reader
    int64_t plan_cache_hits = 0;    // the engine's, across every session
    int64_t plan_cache_misses = 0;
    AdmissionController::Stats admission;
  };

  // `engine` must outlive the server. InstallModel/SetOptions on the engine
  // are not legal while the server is running (queries may be in flight).
  QueryServer(Engine* engine, ServerConfig config);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds, listens, and starts the accept loop. Fails with kInternal when
  // the address cannot be bound.
  [[nodiscard]] Status Start();

  // The bound port (after a successful Start()).
  int port() const { return port_; }

  // Graceful drain per the shutdown contract above. Idempotent.
  void Stop() EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

  // The kStats response payload: "key=value\n" lines, one per counter.
  // Append-only — clients must ignore unknown keys.
  std::string StatsText() const EXCLUDES(mu_);

 private:
  struct Session {
    uint64_t id = 0;
    int fd = -1;
    // Session-scoped execution options (0 = engine default), set via kSet.
    int64_t timeout_ms = 0;
    int64_t memory_limit_bytes = 0;
    size_t batch_size = 0;
    int64_t queries = 0;
  };

  void AcceptLoop() EXCLUDES(mu_);
  void ServeConnection(uint64_t session_id, int fd) EXCLUDES(mu_);
  // Handles one request frame; returns false when the connection must end
  // (goodbye or protocol violation).
  bool HandleFrame(Session* session, const Frame& frame);
  // One admitted query end to end: admission, engine, response. The
  // admission ticket is released after the response write. `client_budget_ms`
  // is the remaining budget a kRunEx frame declared (0 = none).
  void RunQuery(Session* session, const std::string& query, bool explain,
                int64_t client_budget_ms);
  Status HandleSet(Session* session, const std::string& payload);
  // Sends kServerGoodbye(reason) best-effort and counts the eviction.
  void ReapSession(int fd, const char* reason);
  bool SendFrame(int fd, FrameType type, std::string_view payload);
  bool SendError(int fd, const Status& status);
  bool SendError(int fd, const Status& status, const ErrorDetail& detail);

  Engine* engine_;
  ServerConfig config_;
  AdmissionController admission_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;

  // Guards the connection table, the session-thread list, and the
  // non-atomic counters; the per-query counters stay lock-free atomics.
  // Lock ordering: mu_ is a leaf — in particular, it is never held across
  // engine calls or blocking socket I/O.
  mutable Mutex mu_;
  std::vector<int> conn_fds_ GUARDED_BY(mu_);
  std::list<std::thread> threads_ GUARDED_BY(mu_);
  std::atomic<uint64_t> next_session_id_{1};
  int64_t sessions_opened_ GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> sessions_reaped_{0};
  std::atomic<int64_t> queries_ok_{0};
  std::atomic<int64_t> queries_error_{0};
  std::atomic<int64_t> frames_rejected_{0};
  std::atomic<int64_t> writes_timed_out_{0};
};

}  // namespace uload

#endif  // ULOAD_SERVER_SERVER_H_
