#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>

#include "server/socket_io.h"

namespace uload {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QueryServer::QueryServer(Engine* engine, ServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      admission_(config_.admission, &engine->memory()) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::Internal(std::string("bind ") + config_.host + ":" +
                                 std::to_string(config_.port) + ": " +
                                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) != 0) {
    Status st = Status::Internal(std::string("listen: ") +
                                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void QueryServer::AcceptLoop() {
  // poll with a short timeout instead of a blocking accept: closing a
  // listening socket does not reliably wake a blocked accept(), polling
  // makes Stop() deterministic.
  while (running_.load(std::memory_order_acquire)) {
    pollfd p{listen_fd_, POLLIN, 0};
    int r = ::poll(&p, 1, /*timeout_ms=*/50);
    if (r <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(&mu_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    ++sessions_opened_;
    threads_.emplace_back([this, id, fd] { ServeConnection(id, fd); });
  }
}

void QueryServer::ServeConnection(uint64_t session_id, int fd) {
  Session session;
  session.id = session_id;
  session.fd = fd;
  FrameReader reader(config_.max_frame_bytes);
  char buf[4096];
  bool keep_going = true;
  int64_t last_activity_ms = NowMs();
  int64_t frame_start_ms = 0;  // when the current partial frame began; 0=none
  while (keep_going) {
    // The applicable deadline: the stall timeout while a frame is partially
    // received, the idle timeout between frames. wait_ms == 0 means no
    // deadline — recv then blocks until data or Stop()'s shutdown().
    int64_t wait_ms = 0;
    const char* reap_reason = nullptr;
    if (reader.mid_frame() && config_.stall_timeout_ms > 0) {
      wait_ms = frame_start_ms + config_.stall_timeout_ms - NowMs();
      reap_reason = "stalled mid-frame";
    } else if (!reader.mid_frame() && config_.idle_timeout_ms > 0) {
      wait_ms = last_activity_ms + config_.idle_timeout_ms - NowMs();
      reap_reason = "idle timeout";
    }
    if (reap_reason != nullptr && wait_ms <= 0) {
      ReapSession(fd, reap_reason);
      break;
    }
    ssize_t n = 0;
    RecvOutcome got = RecvWithDeadline(fd, buf, sizeof(buf), wait_ms, &n);
    if (got == RecvOutcome::kTimedOut) {
      ReapSession(fd, reap_reason != nullptr ? reap_reason : "idle timeout");
      break;
    }
    if (got != RecvOutcome::kData) break;  // peer closed / torn down / drain
    last_activity_ms = NowMs();
    Status fed = reader.Feed(buf, static_cast<size_t>(n));
    if (!fed.ok()) {
      // Protocol violation: answer with a ParseError frame (best effort —
      // the stream has lost alignment) and tear the connection down.
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      SendError(fd, Status::ParseError("malformed frame: " + fed.message()));
      break;
    }
    bool produced = false;
    while (keep_going) {
      std::optional<Frame> frame = reader.Next();
      if (!frame.has_value()) break;
      produced = true;
      keep_going = HandleFrame(&session, *frame);
    }
    // Stall accounting is per frame: the clock starts when the first bytes
    // of a new partial frame arrive, not at the last drip of data.
    if (!reader.mid_frame()) {
      frame_start_ms = 0;
    } else if (produced || frame_start_ms == 0) {
      frame_start_ms = NowMs();
    }
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  MutexLock lock(&mu_);
  conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                  conn_fds_.end());
}

bool QueryServer::HandleFrame(Session* session, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      return SendFrame(
          session->fd, FrameType::kHelloOk,
          EncodeHelloOkPayload(session->id, "uload query service"));
    case FrameType::kRun:
      RunQuery(session, frame.payload, /*explain=*/false,
               /*client_budget_ms=*/0);
      return true;
    case FrameType::kExplain:
      RunQuery(session, frame.payload, /*explain=*/true,
               /*client_budget_ms=*/0);
      return true;
    case FrameType::kRunEx: {
      int64_t budget_ms = 0;
      bool explain = false;
      std::string query;
      if (!DecodeRunExPayload(frame.payload, &budget_ms, &explain, &query)) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(session->fd, Status::ParseError("malformed kRunEx payload"));
        return false;
      }
      RunQuery(session, query, explain, budget_ms);
      return true;
    }
    case FrameType::kSet: {
      Status st = HandleSet(session, frame.payload);
      if (st.ok()) return SendFrame(session->fd, FrameType::kResult, "");
      queries_error_.fetch_add(1, std::memory_order_relaxed);
      return SendError(session->fd, st);
    }
    case FrameType::kStats:
      return SendFrame(session->fd, FrameType::kResult, StatsText());
    case FrameType::kGoodbye:
      SendFrame(session->fd, FrameType::kGoodbyeOk, "");
      return false;
    default:
      // Unknown or response-typed frame from a client: protocol violation.
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      SendError(session->fd,
                Status::ParseError(
                    "unexpected frame type " +
                    std::to_string(static_cast<unsigned>(frame.type))));
      return false;
  }
}

void QueryServer::RunQuery(Session* session, const std::string& query,
                           bool explain, int64_t client_budget_ms) {
  AdmissionController::AdmitRequest req;
  req.client_budget_ms = client_budget_ms;
  ErrorDetail detail;
  Result<AdmissionController::Ticket> admitted = admission_.Admit(req, &detail);
  if (!admitted.ok()) {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    SendError(session->fd, admitted.status(), detail);
    return;
  }
  AdmissionController::Ticket ticket = std::move(*admitted);
  if (config_.on_query_start) config_.on_query_start(session->id);

  // Admit-time governor wiring: the ticket's control (deadline already set
  // from the admission config, tightened by the propagated client budget)
  // plus its per-query memory budget, tightened by any session-scoped
  // overrides; a degraded ticket additionally clamps the batch fill (ladder
  // rung 1).
  Engine::QueryOptions q;
  q.control = ticket.control();
  q.timeout_ms = session->timeout_ms;  // BeginQuery keeps the earlier deadline
  q.memory_limit_bytes =
      session->memory_limit_bytes > 0
          ? (ticket.memory_limit_bytes() > 0
                 ? std::min(session->memory_limit_bytes,
                            ticket.memory_limit_bytes())
                 : session->memory_limit_bytes)
          : ticket.memory_limit_bytes();
  q.batch_size = session->batch_size;
  if (ticket.degraded() && ticket.batch_size_clamp() > 0) {
    q.batch_size = q.batch_size > 0
                       ? std::min(q.batch_size, ticket.batch_size_clamp())
                       : ticket.batch_size_clamp();
  }

  ++session->queries;
  std::string answer;
  Status st = Status::Ok();
  if (!explain) {
    Result<std::string> out = engine_->Run(query, q);
    if (out.ok()) {
      answer = std::move(*out);
    } else {
      st = out.status();
    }
  } else {
    Result<Engine::Explanation> out = engine_->Explain(query, q);
    if (out.ok()) {
      answer = out->logical + "\n---\n" + out->physical;
    } else {
      st = out.status();
    }
  }
  // The response write happens while the ticket is still held: drain's
  // "wait for executing queries" then covers response delivery too.
  if (st.ok()) {
    queries_ok_.fetch_add(1, std::memory_order_relaxed);
    SendFrame(session->fd, FrameType::kResult, answer);
  } else {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    SendError(session->fd, st);
  }
}

Status QueryServer::HandleSet(Session* session, const std::string& payload) {
  size_t eq = payload.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("set expects key=value, got: " + payload);
  }
  std::string key = payload.substr(0, eq);
  std::string value = payload.substr(eq + 1);
  int64_t n = 0;
  auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(),
                                   n);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    return Status::InvalidArgument("set " + key + ": not a number: " + value);
  }
  if (key == "timeout_ms") {
    session->timeout_ms = n;
  } else if (key == "memory_limit_bytes") {
    if (n < 0) {
      return Status::InvalidArgument("memory_limit_bytes must be >= 0");
    }
    session->memory_limit_bytes = n;
  } else if (key == "batch_size") {
    if (n < 0) return Status::InvalidArgument("batch_size must be >= 0");
    session->batch_size = static_cast<size_t>(n);
  } else {
    return Status::InvalidArgument("unknown session option: " + key);
  }
  return Status::Ok();
}

void QueryServer::ReapSession(int fd, const char* reason) {
  sessions_reaped_.fetch_add(1, std::memory_order_relaxed);
  // Best effort, short deadline: the peer is by definition unresponsive,
  // and the goodbye only matters if it is still reading.
  std::string goodbye = EncodeFrame(FrameType::kServerGoodbye, reason);
  WriteAllWithDeadline(fd, goodbye, std::min<int64_t>(
                                        config_.write_timeout_ms > 0
                                            ? config_.write_timeout_ms
                                            : 1000,
                                        1000));
}

bool QueryServer::SendFrame(int fd, FrameType type, std::string_view payload) {
  bool timed_out = false;
  bool ok = WriteAllWithDeadline(fd, EncodeFrame(type, payload),
                                 config_.write_timeout_ms, &timed_out);
  if (timed_out) writes_timed_out_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

bool QueryServer::SendError(int fd, const Status& status) {
  return SendFrame(fd, FrameType::kError, EncodeErrorPayload(status));
}

bool QueryServer::SendError(int fd, const Status& status,
                            const ErrorDetail& detail) {
  return SendFrame(fd, FrameType::kError, EncodeErrorPayload(status, detail));
}

void QueryServer::Stop() {
  bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (!was_running) return;
  draining_.store(true, std::memory_order_release);

  // 1+2. Close the listener and shed the queue. Queries already executing
  // keep their slots.
  admission_.BeginDrain();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 3. Grace period: executing queries finish and write their responses
  // (tickets are held through the write).
  bool idle = admission_.WaitIdle(config_.drain_timeout_ms);

  // 4. Stragglers are cancelled; they answer kCancelled and release.
  if (!idle) {
    engine_->Cancel();
    admission_.WaitIdle(config_.drain_timeout_ms);
  }

  // 5. Tear down every connection (wakes sessions blocked in recv) and
  // join all threads.
  {
    MutexLock lock(&mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (;;) {
    std::thread t;
    {
      MutexLock lock(&mu_);
      if (threads_.empty()) break;
      t = std::move(threads_.front());
      threads_.pop_front();
    }
    if (t.joinable()) t.join();
  }
}

QueryServer::Stats QueryServer::stats() const {
  Stats s;
  {
    MutexLock lock(&mu_);
    s.sessions_opened = sessions_opened_;
    s.sessions_active = static_cast<int64_t>(conn_fds_.size());
  }
  s.sessions_reaped = sessions_reaped_.load(std::memory_order_relaxed);
  s.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  s.queries_error = queries_error_.load(std::memory_order_relaxed);
  s.frames_rejected = frames_rejected_.load(std::memory_order_relaxed);
  s.writes_timed_out = writes_timed_out_.load(std::memory_order_relaxed);
  s.plan_cache_hits = engine_->plan_cache_hits();
  s.plan_cache_misses = engine_->plan_cache_misses();
  s.admission = admission_.stats();
  return s;
}

std::string QueryServer::StatsText() const {
  Stats s = stats();
  std::string out;
  auto line = [&out](const char* key, int64_t v) {
    out += key;
    out += '=';
    out += std::to_string(v);
    out += '\n';
  };
  line("sessions_opened", s.sessions_opened);
  line("sessions_reaped", s.sessions_reaped);
  line("sessions_active", s.sessions_active);
  line("queries_ok", s.queries_ok);
  line("queries_error", s.queries_error);
  line("frames_rejected", s.frames_rejected);
  line("writes_timed_out", s.writes_timed_out);
  line("admitted", s.admission.admitted);
  line("degraded", s.admission.degraded);
  line("queued_short_deadline", s.admission.queued_short_deadline);
  line("shed_queue_full", s.admission.shed_queue_full);
  line("shed_queue_timeout", s.admission.shed_queue_timeout);
  line("shed_memory", s.admission.shed_memory);
  line("shed_draining", s.admission.shed_draining);
  line("executing", s.admission.executing);
  line("queued", s.admission.queued);
  line("plan_cache_hits", s.plan_cache_hits);
  line("plan_cache_misses", s.plan_cache_misses);
  return out;
}

}  // namespace uload
