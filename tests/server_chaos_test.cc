// Resilient-serving tests (DESIGN.md §13): retry policy, degradation
// ladder, idle/stall reaping, deadline propagation, and a wire-level chaos
// harness driving the client/server pair through a fault-injecting proxy
// (tests/chaos_proxy.h). The sweep asserts the resilience contract: every
// operation finishes in bounded wall-clock, every failure surfaces as a
// clean Status (never a crash, hang, or leak), and after arbitrary faults
// the server still answers byte-identical to an in-process engine. The
// kill/restart test SIGKILLs a forked server mid-flight and verifies a
// retrying client reconnects to the restarted (mmap-reloaded) server and
// round-trips the same answer.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chaos_proxy.h"
#include "common/retry.h"
#include "engine/engine.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/storage_models.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ULOAD_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define ULOAD_TSAN 1
#endif

namespace uload {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// xorshift64*, the repo's standard test RNG (tests/server_frame_test.cc).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ? seed : 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

constexpr const char* kBib =
    "<bib>"
    "<book><title>Data on the Web</title><year>1999</year>"
    "<author>Abiteboul</author><author>Suciu</author></book>"
    "<book><title>The Syntactic Web</title><year>2002</year>"
    "<author>Tim</author></book>"
    "<phdthesis><title>XAMs</title><year>2007</year>"
    "<author>Arion</author></phdthesis>"
    "</bib>";

constexpr const char* kQuery =
    "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>";

std::unique_ptr<Engine> MakeBibEngine(
    Engine::Options::Backend backend = Engine::Options::Backend::kPointer) {
  auto d = Document::Parse(kBib);
  EXPECT_TRUE(d.ok());
  Engine::Options o;
  o.backend = backend;
  auto engine = std::make_unique<Engine>(std::move(d).value(), o);
  auto st = engine->InstallModel(PathPartitionedModel(engine->summary()));
  EXPECT_TRUE(st.ok()) << st.ToString();
  return engine;
}

// Raw-socket helpers for driving the protocol below the QueryClient.
int DialRaw(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

void SendRaw(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

// Reads frames until one arrives, the peer closes (nullopt), or timeout_ms
// elapses (nullopt). Poll-free: relies on SO_RCVTIMEO.
std::optional<Frame> ReadFrameRaw(int fd, FrameReader* reader,
                                  int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[4096];
  for (;;) {
    std::optional<Frame> f = reader->Next();
    if (f.has_value()) return f;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    if (!reader->Feed(buf, static_cast<size_t>(n)).ok()) return std::nullopt;
  }
}

class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  bool WaitFor(int64_t ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(ms),
                        [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// ---------------------------------------------------------------------------
// RetryPolicy / RetryState.

TEST(RetryPolicy, DefaultMeansSingleAttempt) {
  RetryState s{RetryPolicy{}};
  EXPECT_TRUE(s.MayRetry());
  EXPECT_EQ(s.NextBackoffMs(), 0);  // no backoff before the first attempt
  EXPECT_FALSE(s.MayRetry());
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.max_attempts = 6;
  p.initial_backoff_ms = 10;
  p.backoff_multiplier = 2.0;
  p.max_backoff_ms = 40;
  p.jitter = 0.0;
  RetryState s(p);
  EXPECT_EQ(s.NextBackoffMs(), 0);   // attempt 1
  EXPECT_EQ(s.NextBackoffMs(), 10);  // attempt 2
  EXPECT_EQ(s.NextBackoffMs(), 20);
  EXPECT_EQ(s.NextBackoffMs(), 40);
  EXPECT_EQ(s.NextBackoffMs(), 40);  // capped
  EXPECT_EQ(s.NextBackoffMs(), 40);
  EXPECT_FALSE(s.MayRetry());
}

TEST(RetryPolicy, JitterStaysWithinBand) {
  RetryPolicy p;
  p.max_attempts = 100;
  p.initial_backoff_ms = 100;
  p.backoff_multiplier = 1.0;
  p.jitter = 0.5;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RetryState s(p, seed);
    (void)s.NextBackoffMs();  // attempt 1: no backoff
    for (int i = 0; i < 10; ++i) {
      int64_t d = s.NextBackoffMs();
      EXPECT_GE(d, 50) << "seed " << seed;
      EXPECT_LE(d, 150) << "seed " << seed;
    }
  }
}

TEST(RetryPolicy, DeterministicPerSeed) {
  RetryPolicy p;
  p.max_attempts = 10;
  p.jitter = 0.4;
  RetryState a(p, 42), b(p, 42), c(p, 43);
  bool diverged = false;
  for (int i = 0; i < 10; ++i) {
    int64_t da = a.NextBackoffMs(), db = b.NextBackoffMs(),
            dc = c.NextBackoffMs();
    EXPECT_EQ(da, db);
    diverged = diverged || da != dc;
  }
  EXPECT_TRUE(diverged);  // different seed, different jitter sequence
}

TEST(RetryPolicy, ServerHintRaisesFloor) {
  RetryPolicy p;
  p.max_attempts = 3;
  p.initial_backoff_ms = 10;
  p.jitter = 0.0;
  RetryState s(p);
  // Even the first attempt honors a server's retry-after.
  EXPECT_EQ(s.NextBackoffMs(500), 500);
  EXPECT_EQ(s.NextBackoffMs(500), 500);  // hint above the 10ms backoff
}

TEST(RetryPolicy, OverallDeadlineStopsRetrying) {
  RetryPolicy p;
  p.max_attempts = 1000;
  p.overall_deadline_ms = 60;
  RetryState s(p);
  EXPECT_TRUE(s.MayRetry());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(s.MayRetry());
  EXPECT_EQ(s.RemainingBudgetMs(), 1);  // floored, never 0 (= unbounded)
}

TEST(RetryPolicy, BudgetNearInt64MaxSaturates) {
  RetryPolicy p;
  p.max_attempts = 2;
  p.overall_deadline_ms = std::numeric_limits<int64_t>::max();
  RetryState s(p);
  EXPECT_TRUE(s.MayRetry());
  // The deadline saturates instead of wrapping into the past.
  EXPECT_GT(s.RemainingBudgetMs(), int64_t{1} << 62);
  EXPECT_EQ(s.NextBackoffMs(), 0);
  EXPECT_TRUE(s.MayRetry());
}

// ---------------------------------------------------------------------------
// Degradation ladder (AdmissionController, no sockets).

TEST(DegradationLadder, LastSlotOfMultiSlotServerGrantsDegraded) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 2;
  AdmissionController ac(cfg, nullptr);
  auto t1 = ac.Admit();
  ASSERT_TRUE(t1.ok());
  EXPECT_FALSE(t1->degraded());
  auto t2 = ac.Admit();  // takes the last slot → clamped
  ASSERT_TRUE(t2.ok());
  EXPECT_TRUE(t2->degraded());
  EXPECT_EQ(t2->batch_size_clamp(), cfg.degraded_batch_size);
  EXPECT_EQ(ac.stats().degraded, 1);
}

TEST(DegradationLadder, SingleSlotServerIsNotPressureByItself) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  AdmissionController ac(cfg, nullptr);
  auto t = ac.Admit();
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(t->degraded());
  EXPECT_EQ(ac.stats().degraded, 0);
}

TEST(DegradationLadder, DisabledLadderGrantsCleanTickets) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 2;
  cfg.degradation = false;
  AdmissionController ac(cfg, nullptr);
  auto t1 = ac.Admit();
  auto t2 = ac.Admit();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_FALSE(t2->degraded());
  EXPECT_EQ(ac.stats().degraded, 0);
}

TEST(DegradationLadder, MemoryPressureDegradesTickets) {
  MemoryTracker memory("engine", 1000);
  ASSERT_TRUE(memory.Charge(800).ok());  // above degrade_headroom (0.7)
  AdmissionConfig cfg;
  cfg.max_concurrent = 4;
  cfg.memory_headroom = 0.95;  // below the high water — still admitted
  AdmissionController ac(cfg, &memory);
  auto t = ac.Admit();
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(t->degraded());
  memory.Release(800);
}

TEST(DegradationLadder, ShedCarriesRetryAfterHintOnTheWire) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queued = 0;
  cfg.queue_timeout_ms = 400;
  AdmissionController ac(cfg, nullptr);
  auto held = ac.Admit();
  ASSERT_TRUE(held.ok());

  ErrorDetail detail;
  auto shed = ac.Admit(AdmissionController::AdmitRequest{}, &detail);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  ASSERT_GE(detail.retry_after_ms, 0);

  // The hint survives the append-only wire encoding both ways.
  std::string payload = EncodeErrorPayload(shed.status(), detail);
  ErrorDetail decoded;
  Status st = DecodeErrorPayload(payload, &decoded);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(st.message(), shed.status().message());
  EXPECT_EQ(decoded.retry_after_ms, detail.retry_after_ms);
}

TEST(DegradationLadder, ClientBudgetCapsQueueWait) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queued = 1;
  cfg.queue_timeout_ms = 30'000;  // the budget, not this, must bound the wait
  AdmissionController ac(cfg, nullptr);
  auto held = ac.Admit();
  ASSERT_TRUE(held.ok());

  AdmissionController::AdmitRequest req;
  req.client_budget_ms = 100;
  int64_t start = NowMs();
  auto shed = ac.Admit(req, nullptr);
  int64_t elapsed = NowMs() - start;
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(elapsed, 10'000) << "queue wait must be capped by client budget";
}

// The acceptance regression: at identical offered load, the ladder strictly
// reduces the shed rate vs the shed-only configuration.
TEST(DegradationLadder, LadderStrictlyReducesShedVsShedOnly) {
  constexpr int kOffered = 4;

  auto offer = [](AdmissionController* ac) {
    auto held = ac->Admit();  // saturate the single slot
    EXPECT_TRUE(held.ok());
    std::vector<std::thread> clients;
    std::atomic<int> outcome_ok{0};
    for (int i = 0; i < kOffered; ++i) {
      clients.emplace_back([ac, &outcome_ok] {
        auto t = ac->Admit();
        if (t.ok()) outcome_ok.fetch_add(1);
        // Release immediately — the offered load is admission pressure,
        // not execution time.
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    held->Release();  // from here the ladder can drain its queue
    for (auto& c : clients) c.join();
    return outcome_ok.load();
  };

  AdmissionConfig shed_only;
  shed_only.max_concurrent = 1;
  shed_only.max_queued = 0;  // pre-ladder contract: full slots = shed
  shed_only.queue_timeout_ms = 8'000;
  shed_only.max_queued_degraded = 0;
  AdmissionController off(shed_only, nullptr);
  int ok_off = offer(&off);
  int64_t shed_off = off.stats().shed_queue_full +
                     off.stats().shed_queue_timeout;
  EXPECT_EQ(ok_off, 0);
  EXPECT_EQ(shed_off, kOffered);

  AdmissionConfig ladder = shed_only;
  ladder.max_queued_degraded = kOffered;  // rung 2 armed
  AdmissionController on(ladder, nullptr);
  int ok_on = offer(&on);
  int64_t shed_on = on.stats().shed_queue_full +
                    on.stats().shed_queue_timeout;
  EXPECT_GT(ok_on, 0);
  EXPECT_LT(shed_on, shed_off)
      << "degradation ladder must strictly reduce sheds at equal load";
  EXPECT_GT(on.stats().queued_short_deadline, 0);
  EXPECT_GT(on.stats().degraded, 0);  // rung-1 clamps on the queued grants
}

// ---------------------------------------------------------------------------
// Idle/stall reaping.

TEST(SessionReaper, IdleSessionReapedWithGoodbyeWithinTimeout) {
  auto engine = MakeBibEngine();
  ServerConfig cfg;
  cfg.idle_timeout_ms = 150;
  cfg.stall_timeout_ms = 0;
  QueryServer server(engine.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  int fd = DialRaw(server.port());
  FrameReader reader;
  SendRaw(fd, EncodeFrame(FrameType::kHello, "chaos"));
  auto hello = ReadFrameRaw(fd, &reader, 5000);
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, FrameType::kHelloOk);

  // Go silent; the server must evict us with a kServerGoodbye, and within
  // bounded wall-clock (generous slack for a loaded 1-core CI box).
  int64_t start = NowMs();
  auto goodbye = ReadFrameRaw(fd, &reader, 10'000);
  int64_t elapsed = NowMs() - start;
  ASSERT_TRUE(goodbye.has_value()) << "connection closed without goodbye";
  EXPECT_EQ(goodbye->type, FrameType::kServerGoodbye);
  EXPECT_NE(goodbye->payload.find("idle"), std::string::npos);
  EXPECT_GE(elapsed, 100);  // not reaped instantly
  EXPECT_LT(elapsed, 8000);
  ::close(fd);

  // The reap is counted and the session is gone.
  int64_t deadline = NowMs() + 5000;
  while (server.stats().sessions_active > 0 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.sessions_reaped, 1);
  EXPECT_EQ(stats.sessions_active, 0);
  server.Stop();
}

TEST(SessionReaper, MidFrameStallReaped) {
  auto engine = MakeBibEngine();
  ServerConfig cfg;
  cfg.idle_timeout_ms = 0;  // only the stall deadline may fire
  cfg.stall_timeout_ms = 150;
  QueryServer server(engine.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  int fd = DialRaw(server.port());
  FrameReader reader;
  SendRaw(fd, EncodeFrame(FrameType::kHello, "chaos"));
  auto hello = ReadFrameRaw(fd, &reader, 5000);
  ASSERT_TRUE(hello.has_value());

  // A slowloris: declare a 100-byte frame, deliver 3 bytes, go silent.
  std::string partial = EncodeFrame(FrameType::kRun, std::string(100, 'q'));
  SendRaw(fd, std::string_view(partial).substr(0, 7));
  int64_t start = NowMs();
  auto goodbye = ReadFrameRaw(fd, &reader, 10'000);
  int64_t elapsed = NowMs() - start;
  ASSERT_TRUE(goodbye.has_value());
  EXPECT_EQ(goodbye->type, FrameType::kServerGoodbye);
  EXPECT_NE(goodbye->payload.find("stall"), std::string::npos);
  EXPECT_LT(elapsed, 8000);
  ::close(fd);
  int64_t deadline = NowMs() + 5000;
  while (server.stats().sessions_active > 0 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.stats().sessions_reaped, 1);
  server.Stop();
}

TEST(SessionReaper, ActiveSessionOutlivesIdleTimeout) {
  auto engine = MakeBibEngine();
  ServerConfig cfg;
  cfg.idle_timeout_ms = 250;
  QueryServer server(engine.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // Keep chatting past several idle windows: activity resets the clock.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto r = client->Run(kQuery);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(server.stats().sessions_reaped, 0);
  EXPECT_TRUE(client->Goodbye().ok());
  server.Stop();
}

// ---------------------------------------------------------------------------
// kStats frame + deadline propagation over the wire.

TEST(StatsFrame, CountersTravelAsKeyValueLines) {
  auto engine = MakeBibEngine();
  QueryServer server(engine.get(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Run(kQuery).ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("queries_ok=1\n"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("sessions_opened=1\n"), std::string::npos);
  EXPECT_NE(stats->find("sessions_reaped=0\n"), std::string::npos);
  EXPECT_NE(stats->find("admitted=1\n"), std::string::npos);
  EXPECT_NE(stats->find("degraded="), std::string::npos);
  EXPECT_NE(stats->find("shed_queue_full="), std::string::npos);
  EXPECT_TRUE(client->Goodbye().ok());
  server.Stop();
}

TEST(DeadlinePropagation, ClientBudgetBoundsServerQueueWait) {
  auto engine = MakeBibEngine();
  ServerConfig cfg;
  cfg.admission.max_concurrent = 1;
  cfg.admission.max_queued = 1;
  cfg.admission.queue_timeout_ms = 30'000;
  Gate release;
  cfg.on_query_start = [&](uint64_t) { release.WaitFor(30'000); };
  QueryServer server(engine.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  // Query A takes the only slot and parks in the test hook.
  std::thread holder([&] {
    auto c = QueryClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(c.ok());
    auto r = c->Run(kQuery);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  while (server.stats().admission.executing == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Query B declares a 200ms budget via kRunEx. The server must give up on
  // it long before its own 30s queue timeout.
  auto b = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(b.ok());
  // The hook holds B too once admitted, so B must NOT be admitted; opening
  // the gate below frees everyone either way.
  int64_t start = NowMs();
  auto r = b->Run(kQuery, /*budget_ms=*/200);
  int64_t elapsed = NowMs() - start;
  EXPECT_FALSE(r.ok());
  EXPECT_LT(elapsed, 15'000)
      << "client budget must cap the server-side queue wait";

  release.Open();
  holder.join();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Chaos proxy scenarios.

struct ProxiedServer {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<ChaosProxy> proxy;

  static ProxiedServer Make(ServerConfig cfg = {}) {
    ProxiedServer p;
    p.engine = MakeBibEngine();
    p.server = std::make_unique<QueryServer>(p.engine.get(), cfg);
    EXPECT_TRUE(p.server->Start().ok());
    p.proxy = std::make_unique<ChaosProxy>(p.server->port());
    EXPECT_TRUE(p.proxy->Start().ok());
    return p;
  }
  int port() const { return p_ok() ? proxy->port() : 0; }
  bool p_ok() const { return proxy != nullptr; }
};

TEST(ChaosProxy, DelayedLinkStillAnswers) {
  auto ps = ProxiedServer::Make();
  ChaosFault fault;
  fault.dir = ChaosFault::Dir::kClientToServer;
  fault.delay_ms = 30;
  ps.proxy->set_fault(fault);

  auto client = QueryClient::Connect("127.0.0.1", ps.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto r = client->Run(kQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  auto direct = ps.engine->Run(kQuery);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*r, *direct);
}

TEST(ChaosProxy, TruncatedResponseSurfacesCleanStatusInBoundedTime) {
  auto ps = ProxiedServer::Make();
  // Let the 32-byte hello-ok through, cut the query response mid-frame.
  ChaosFault fault;
  fault.dir = ChaosFault::Dir::kServerToClient;
  fault.truncate_after_bytes = 40;
  ps.proxy->set_fault(fault);

  int64_t start = NowMs();
  auto client = QueryClient::Connect("127.0.0.1", ps.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto r = client->Run(kQuery);
  int64_t elapsed = NowMs() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("closed"), std::string::npos)
      << r.status().ToString();
  EXPECT_LT(elapsed, 8000);
}

TEST(ChaosProxy, RefusedConnectionsRetryUntilServiceReturns) {
  auto ps = ProxiedServer::Make();
  ChaosFault fault;
  fault.refuse = true;
  ps.proxy->set_fault(fault);

  std::thread heal([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ps.proxy->clear_fault();
  });
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_ms = 20;
  policy.max_backoff_ms = 50;
  policy.overall_deadline_ms = 10'000;
  auto client = QueryClient::Connect("127.0.0.1", ps.port(), policy);
  heal.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_GT(ps.proxy->connections(), 1);  // at least one refused dial
  auto r = client->Run(kQuery);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(ChaosProxy, ReconnectAndReplayAfterLinkKilledMidSession) {
  auto ps = ProxiedServer::Make();
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 10;
  policy.overall_deadline_ms = 10'000;
  auto client = QueryClient::Connect("127.0.0.1", ps.port(), policy);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Set("batch_size", 64).ok());
  ASSERT_TRUE(client->Run(kQuery).ok());
  uint64_t first_session = client->session_id();

  // Sever the live link out from under the client; the proxy listener (and
  // the server) stay up, so the retry loop's reconnect lands cleanly.
  ps.proxy->KillConnections();

  auto r = client->Run(kQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(client->session_id(), first_session);  // a genuinely new session

  auto direct = ps.engine->Run(kQuery);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*r, *direct);
  // Reconnect opened a second session and REPLAYED the recorded kSet before
  // resending the query (a failed replay would have failed the Run).
  auto stats = ps.server->stats();
  EXPECT_EQ(stats.sessions_opened, 2);
  EXPECT_EQ(stats.queries_ok, 2);  // both Runs answered; zero errors
  EXPECT_EQ(stats.queries_error, 0);
}

TEST(ChaosProxy, ReconnectAndReplayRoundTripsThroughStableEndpoint) {
  // The reconnect target must be a stable endpoint: the DIRECT server port.
  auto engine = MakeBibEngine();
  ServerConfig cfg;
  QueryServer server(engine.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 10;
  policy.overall_deadline_ms = 10'000;
  auto client = QueryClient::Connect("127.0.0.1", server.port(), policy);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Set("batch_size", 64).ok());
  ASSERT_TRUE(client->Run(kQuery).ok());
  uint64_t session_before = client->session_id();

  // Sever the established connection from the client side, then Run again:
  // the retry loop must reconnect, replay the kSet, and answer — invisible
  // to the caller beyond latency.
  client->Close();
  auto r = client->Run(kQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(client->session_id(), session_before);  // a genuinely new session

  auto direct = engine->Run(kQuery);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*r, *direct);
  // Two sessions were opened and the replayed kSet raised no error on the
  // second one (a failed replay fails the Run before the query is resent).
  auto stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 2);
  EXPECT_EQ(stats.queries_ok, 2);
  EXPECT_EQ(stats.queries_error, 0);
  server.Stop();
}

TEST(ChaosProxy, CorruptedLengthPrefixFailsCleanly) {
  ServerConfig cfg;
  cfg.stall_timeout_ms = 200;  // the flipped length makes the server wait
  auto ps = ProxiedServer::Make(cfg);
  ChaosFault fault;
  fault.dir = ChaosFault::Dir::kClientToServer;
  fault.flip_byte_at = 0;  // LSB of the hello frame's length prefix
  ps.proxy->set_fault(fault);

  int64_t start = NowMs();
  auto client = QueryClient::Connect("127.0.0.1", ps.port());
  int64_t elapsed = NowMs() - start;
  // The server either rejects the malformed stream or reaps the stalled
  // frame; the client must see a clean failure, fast.
  EXPECT_FALSE(client.ok());
  EXPECT_LT(elapsed, 8000);
}

TEST(ChaosProxy, RandomizedSweepStaysBoundedAndServerStaysHealthy) {
  ServerConfig cfg;
  cfg.idle_timeout_ms = 500;
  cfg.stall_timeout_ms = 200;
  cfg.write_timeout_ms = 1000;
  auto ps = ProxiedServer::Make(cfg);
  auto expected = ps.engine->Run(kQuery);
  ASSERT_TRUE(expected.ok());

  Rng rng(0xC0FFEE);
  for (int iter = 0; iter < 10; ++iter) {
    ChaosFault fault;
    switch (rng.Below(6)) {
      case 0:
        break;  // clean run
      case 1:
        fault.delay_ms = 5 + static_cast<int64_t>(rng.Below(25));
        break;
      case 2:
        fault.truncate_after_bytes = static_cast<int64_t>(rng.Below(80));
        break;
      case 3:
        fault.stall_after_bytes = static_cast<int64_t>(rng.Below(40));
        break;
      case 4:
        fault.flip_byte_at = static_cast<int64_t>(rng.Below(20));
        break;
      case 5:
        fault.refuse = true;
        break;
    }
    fault.dir = rng.Below(2) == 0 ? ChaosFault::Dir::kClientToServer
                                  : ChaosFault::Dir::kServerToClient;
    ps.proxy->set_fault(fault);

    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.initial_backoff_ms = 10;
    policy.max_backoff_ms = 50;
    policy.overall_deadline_ms = 3000;
    policy.attempt_timeout_ms = 1000;

    int64_t start = NowMs();
    auto client = QueryClient::Connect("127.0.0.1", ps.port(), policy,
                                       /*seed=*/iter + 1);
    if (client.ok()) {
      auto r = client->Run(kQuery, /*budget_ms=*/2000);
      if (r.ok()) {
        EXPECT_EQ(*r, *expected);  // success must be byte-exact
      }
    }
    int64_t elapsed = NowMs() - start;
    EXPECT_LT(elapsed, 12'000) << "iteration " << iter << " not bounded";
  }

  // After the storm: a clean client on the DIRECT port gets the exact
  // answer — the server neither crashed, leaked sessions indefinitely
  // (reaper), nor wedged admission.
  ps.proxy->clear_fault();
  auto clean = QueryClient::Connect("127.0.0.1", ps.server->port());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto r = clean->Run(kQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, *expected);
  EXPECT_TRUE(clean->Goodbye().ok());

  // Every session torn down by the storm drains (idle reaper covers the
  // ones the proxy left half-open).
  ps.proxy->Stop();
  int64_t deadline = NowMs() + 15'000;
  while (ps.server->stats().sessions_active > 0 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(ps.server->stats().sessions_active, 0);
  ps.server->Stop();
}

// ---------------------------------------------------------------------------
// SIGKILL mid-flight + restart from the mmap snapshot + auto-reconnect.

#if !defined(ULOAD_TSAN)
namespace {

// Child process: serve the columnar image at `image_path` on `port`
// (0 = ephemeral), report the bound port over `port_pipe_wr`, then park
// until SIGKILL. Never returns.
[[noreturn]] void ServeImageUntilKilled(const std::string& image_path,
                                        int port, int port_pipe_wr) {
  Engine::Options options;
  options.backend = Engine::Options::Backend::kColumnar;
  auto loaded = Engine::Load(image_path, options);
  if (!loaded.ok()) _exit(10);
  auto engine = std::move(*loaded);
  if (!engine->InstallModel(PathPartitionedModel(engine->summary())).ok()) {
    _exit(11);
  }
  ServerConfig cfg;
  cfg.port = port;
  auto server = std::make_unique<QueryServer>(engine.get(), cfg);
  if (!server->Start().ok()) _exit(12);
  int bound = server->port();
  if (::write(port_pipe_wr, &bound, sizeof(bound)) != sizeof(bound)) {
    _exit(13);
  }
  ::close(port_pipe_wr);
  for (;;) pause();  // SIGKILL is the only way out
}

pid_t ForkServer(const std::string& image_path, int port, int* bound_port) {
  int pipefd[2];
  EXPECT_EQ(::pipe(pipefd), 0);
  pid_t pid = ::fork();
  if (pid == 0) {
    ::close(pipefd[0]);
    ServeImageUntilKilled(image_path, port, pipefd[1]);
  }
  ::close(pipefd[1]);
  EXPECT_GT(pid, 0);
  ssize_t n = ::read(pipefd[0], bound_port, sizeof(*bound_port));
  ::close(pipefd[0]);
  EXPECT_EQ(n, static_cast<ssize_t>(sizeof(*bound_port)));
  return pid;
}

}  // namespace

TEST(KillRestart, ClientReconnectsToRestartedServerByteIdentical) {
  // Build the snapshot and the reference answer in-process.
  const std::string image =
      std::string(::testing::TempDir()) + "/chaos_restart.uldcol";
  {
    auto engine = MakeBibEngine(Engine::Options::Backend::kColumnar);
    ASSERT_TRUE(engine->Save(image).ok());
  }
  Engine::Options options;
  options.backend = Engine::Options::Backend::kColumnar;
  auto reference = Engine::Load(image, options);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE((*reference)
                  ->InstallModel(PathPartitionedModel((*reference)->summary()))
                  .ok());
  auto expected = (*reference)->Run(kQuery);
  ASSERT_TRUE(expected.ok());

  int port = 0;
  pid_t first = ForkServer(image, /*port=*/0, &port);
  ASSERT_GT(first, 0);

  RetryPolicy policy;
  policy.max_attempts = 60;
  policy.initial_backoff_ms = 25;
  policy.max_backoff_ms = 200;
  policy.overall_deadline_ms = 30'000;
  auto client = QueryClient::Connect("127.0.0.1", port, policy);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto before = client->Run(kQuery);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(*before, *expected);

  // SIGKILL mid-service: no drain, no goodbye, the socket just dies.
  ASSERT_EQ(::kill(first, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(first, &wstatus, 0), first);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Restart from the mmap snapshot on the SAME port; the retrying client
  // must reconnect and round-trip the byte-identical answer.
  int port2 = 0;
  pid_t second = ForkServer(image, port, &port2);
  ASSERT_GT(second, 0);
  ASSERT_EQ(port2, port);

  auto after = client->Run(kQuery);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, *expected);
  EXPECT_EQ(*after, *before);

  ASSERT_EQ(::kill(second, SIGKILL), 0);
  ASSERT_EQ(::waitpid(second, &wstatus, 0), second);
}
#else
TEST(KillRestart, ClientReconnectsToRestartedServerByteIdentical) {
  GTEST_SKIP() << "fork-based test is not supported under TSAN";
}
#endif  // !ULOAD_TSAN

}  // namespace
}  // namespace uload
