// QueryClient: blocking client for the uload wire protocol (server/wire.h).
//
// One client is one connection == one session. Connect() performs the hello
// handshake and returns a ready client; Run/Explain/Set block until the
// matching response frame arrives. A server-side error frame comes back as
// the reconstructed Status (code mapped through the stable wire table), so
// callers see exactly what an in-process Engine::Run would have returned —
// the differential tests rely on that.
//
// Resilience (DESIGN.md §13): a client connected with a RetryPolicy drives
// every operation through bounded retry:
//   - transport faults (send/recv error, connection closed, attempt
//     timeout) and a server kServerGoodbye eviction trigger RECONNECT AND
//     REPLAY — the client re-dials, redoes the handshake, re-applies every
//     recorded kSet option, and resends the frame. Run/Explain/Set/Stats
//     are idempotent, so replay after an ambiguous failure is safe;
//   - a kResourceExhausted error frame (admission shed) is retried on the
//     SAME connection, honoring the server's retry_after_ms hint from the
//     error-detail field (see last_error_detail());
//   - every other error frame is a clean server answer and is returned
//     as-is.
// Deadline propagation: Run/Explain with a budget send a kRunEx frame
// carrying the remaining wall-clock budget; the server admits with
// min(client budget, its own admit deadline). With no explicit budget, a
// policy with overall_deadline_ms propagates its remaining budget instead.
// The default policy (max_attempts = 1, no deadline) preserves the old
// single-attempt, blocking behavior exactly.
//
// Not thread-safe: one request in flight per client; drive N connections
// from N threads for concurrency (bench/bench_server_throughput.cc).
#ifndef ULOAD_SERVER_CLIENT_H_
#define ULOAD_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "server/wire.h"

namespace uload {

class QueryClient {
 public:
  QueryClient() = default;
  ~QueryClient() { Close(); }

  QueryClient(QueryClient&& other) noexcept { *this = std::move(other); }
  QueryClient& operator=(QueryClient&& other) noexcept {
    Close();
    fd_ = other.fd_;
    session_id_ = other.session_id_;
    reader_ = std::move(other.reader_);
    host_ = std::move(other.host_);
    port_ = other.port_;
    policy_ = other.policy_;
    seed_ = other.seed_;
    options_ = std::move(other.options_);
    last_error_detail_ = std::move(other.last_error_detail_);
    other.fd_ = -1;
    return *this;
  }
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  // Connects and completes the hello handshake. The policy governs this
  // dial and every subsequent operation; `seed` makes the backoff jitter
  // reproducible. The default policy means one attempt, no deadlines.
  [[nodiscard]] static Result<QueryClient> Connect(
      const std::string& host, int port, const RetryPolicy& policy = {},
      uint64_t seed = 1);

  // Runs one query; the payload of the kResult frame (serialized XML).
  // `budget_ms` > 0 bounds the whole operation (retries included) and is
  // propagated to the server via kRunEx.
  [[nodiscard]] Result<std::string> Run(const std::string& query,
                                        int64_t budget_ms = 0);

  // Explains one query; "<logical>\n---\n<physical>".
  [[nodiscard]] Result<std::string> Explain(const std::string& query,
                                            int64_t budget_ms = 0);

  // Sets a session option ("timeout_ms", "memory_limit_bytes",
  // "batch_size"). Recorded and re-applied on every reconnect.
  [[nodiscard]] Status Set(const std::string& key, int64_t value);

  // Server counters: "key=value\n" lines (append-only; ignore unknown keys).
  [[nodiscard]] Result<std::string> Stats();

  // Polite goodbye; the server acknowledges and closes.
  [[nodiscard]] Status Goodbye();

  uint64_t session_id() const { return session_id_; }
  bool connected() const { return fd_ >= 0; }

  // Machine-readable detail from the most recent kError response (empty
  // when the last error carried none). The retry loop consumes
  // retry_after_ms internally; it is surfaced for callers running their
  // own schedule.
  const ErrorDetail& last_error_detail() const { return last_error_detail_; }

  void Close();

 private:
  // One dial + handshake attempt, no retry.
  static Result<QueryClient> DialOnce(const std::string& host, int port,
                                      const RetryPolicy& policy);
  // Re-dials, re-handshakes, and replays recorded kSet options.
  Status Reconnect();
  // Sends one frame and blocks for the next response frame. `deadline_ms`
  // (0 = unbounded) bounds the blocking I/O of this one attempt.
  Result<Frame> RoundTrip(FrameType type, std::string_view payload,
                          int64_t deadline_ms);
  // One request with retry/reconnect/replay. kResult → payload;
  // `expected_ok` is the non-result success frame (kGoodbyeOk), or kResult.
  Result<std::string> Request(FrameType type, std::string_view payload,
                              int64_t budget_ms);

  int fd_ = -1;
  uint64_t session_id_ = 0;
  FrameReader reader_;
  // Reconnect state.
  std::string host_;
  int port_ = 0;
  RetryPolicy policy_;
  uint64_t seed_ = 1;
  std::vector<std::pair<std::string, int64_t>> options_;  // replayed kSet
  ErrorDetail last_error_detail_;
};

}  // namespace uload

#endif  // ULOAD_SERVER_CLIENT_H_
