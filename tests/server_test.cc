// Query-service front-end tests (src/server/): in-process loopback servers
// exercising the session lifecycle, admission control (slots, queue,
// memory, drain), Status→wire error mapping, graceful drain with in-flight
// queries, malformed-frame handling over a real socket, and the
// differential bar — every corpus query answered over the wire must
// byte-match the in-process Engine::Run answer (or its error code), across
// both storage backends.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
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

#include "engine/engine.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/storage_models.h"
#include "workload/dblp.h"
#include "xquery/interp.h"
#include "xquery/parser.h"

namespace uload {
namespace {

constexpr const char* kBib =
    "<bib>"
    "<book><title>Data on the Web</title><year>1999</year>"
    "<author>Abiteboul</author><author>Suciu</author></book>"
    "<book><title>The Syntactic Web</title><year>2002</year>"
    "<author>Tim</author></book>"
    "<phdthesis><title>XAMs</title><year>2007</year>"
    "<author>Arion</author></phdthesis>"
    "</bib>";

const char* kBibQueries[] = {
    "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>",
    "for $x in doc(\"bib\")//book where $x/year = \"1999\" "
    "return <a>{$x/author/text()}</a>",
    "for $x in doc(\"bib\")//phdthesis return <t>{$x/title/text()}</t>",
};

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

// Simple countdown the tests use to handshake with server-side hooks.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
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
// AdmissionController unit tests (no sockets).

TEST(AdmissionControl, GrantsUpToMaxConcurrentThenQueues) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queued = 1;
  cfg.queue_timeout_ms = 10'000;
  AdmissionController ac(cfg, nullptr);

  auto first = ac.Admit();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(ac.stats().executing, 1);

  // A second admit queues; once the queue position is taken, a third is
  // shed immediately.
  std::atomic<bool> second_admitted{false};
  std::thread waiter([&] {
    auto second = ac.Admit();
    EXPECT_TRUE(second.ok()) << second.status().ToString();
    second_admitted.store(true);
  });
  while (ac.stats().queued == 0) std::this_thread::yield();
  auto third = ac.Admit();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.status().message().find("queue full"), std::string::npos);
  EXPECT_FALSE(second_admitted.load());

  first->Release();
  waiter.join();
  EXPECT_TRUE(second_admitted.load());
  auto s = ac.stats();
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.shed_queue_full, 1);
}

TEST(AdmissionControl, QueueWaitIsBounded) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queued = 4;
  cfg.queue_timeout_ms = 50;
  AdmissionController ac(cfg, nullptr);
  auto slot = ac.Admit();
  ASSERT_TRUE(slot.ok());
  auto waited = ac.Admit();
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(waited.status().message().find("timeout"), std::string::npos);
  EXPECT_EQ(ac.stats().shed_queue_timeout, 1);
}

TEST(AdmissionControl, ShedsOnEngineMemoryHighWater) {
  MemoryTracker tracker("engine", /*limit_bytes=*/1000);
  AdmissionConfig cfg;
  cfg.memory_headroom = 0.9;
  AdmissionController ac(cfg, &tracker);

  ASSERT_TRUE(tracker.Charge(950).ok());
  auto shed = ac.Admit();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("memory high water"),
            std::string::npos);
  EXPECT_EQ(ac.stats().shed_memory, 1);

  tracker.Release(950);
  auto ok = ac.Admit();
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(AdmissionControl, DrainShedsWaitersAndFutureAdmits) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queued = 4;
  cfg.queue_timeout_ms = 10'000;
  AdmissionController ac(cfg, nullptr);
  auto slot = ac.Admit();
  ASSERT_TRUE(slot.ok());

  std::atomic<bool> waiter_shed{false};
  std::thread waiter([&] {
    auto r = ac.Admit();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().message().find("draining"), std::string::npos);
    waiter_shed.store(true);
  });
  while (ac.stats().queued == 0) std::this_thread::yield();
  ac.BeginDrain();
  waiter.join();
  EXPECT_TRUE(waiter_shed.load());

  auto after = ac.Admit();
  ASSERT_FALSE(after.ok());
  EXPECT_NE(after.status().message().find("draining"), std::string::npos);

  // The held slot still drains normally.
  EXPECT_FALSE(ac.WaitIdle(20));
  slot->Release();
  EXPECT_TRUE(ac.WaitIdle(1000));
}

TEST(AdmissionControl, TicketCarriesAdmitTimeDeadlineAndBudget) {
  AdmissionConfig cfg;
  cfg.query_timeout_ms = 30'000;
  cfg.query_memory_limit_bytes = 1 << 20;
  AdmissionController ac(cfg, nullptr);
  auto t = ac.Admit();
  ASSERT_TRUE(t.ok());
  ASSERT_NE(t->control(), nullptr);
  EXPECT_GT(t->control()->deadline_ns(), QueryControl::NowNs());
  EXPECT_EQ(t->memory_limit_bytes(), 1 << 20);
}

// ---------------------------------------------------------------------------
// Wire error-code mapping: the table must round-trip every StatusCode.

TEST(WireCodes, StatusCodesRoundTripThroughTheWireTable) {
  const StatusCode all[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kParseError,   StatusCode::kNotFound,
      StatusCode::kNotImplemented, StatusCode::kTypeError,
      StatusCode::kInternal,     StatusCode::kCancelled,
      StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
  };
  for (StatusCode c : all) {
    EXPECT_EQ(WireCodeToStatusCode(
                  static_cast<uint32_t>(StatusToWireCode(c))),
              c);
  }
  // Unknown codes degrade to kInternal, never crash.
  EXPECT_EQ(WireCodeToStatusCode(0xdeadbeef), StatusCode::kInternal);
}

TEST(WireCodes, ErrorPayloadRoundTripsStatus) {
  Status in = Status::DeadlineExceeded("query deadline exceeded");
  Status out = DecodeErrorPayload(EncodeErrorPayload(in));
  EXPECT_EQ(out.code(), in.code());
  EXPECT_EQ(out.message(), in.message());
}

// ---------------------------------------------------------------------------
// Loopback server tests.

TEST(ServerTest, SessionLifecycleAndStats) {
  std::unique_ptr<Engine> engine = MakeBibEngine();
  QueryServer server(engine.get(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto c1 = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  auto c2 = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c2.ok()) << c2.status().ToString();
  EXPECT_NE(c1->session_id(), c2->session_id());

  std::string expected = *engine->Run(kBibQueries[0]);
  for (int i = 0; i < 3; ++i) {
    auto r = c1->Run(kBibQueries[0]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, expected);
  }
  auto r2 = c2->Run(kBibQueries[2]);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(*r2, *engine->Run(kBibQueries[2]));

  EXPECT_TRUE(c1->Goodbye().ok());
  EXPECT_FALSE(c1->connected());
  server.Stop();

  auto s = server.stats();
  EXPECT_EQ(s.sessions_opened, 2);
  EXPECT_EQ(s.queries_ok, 4);
  EXPECT_EQ(s.queries_error, 0);
  EXPECT_EQ(s.admission.admitted, 4);
}

TEST(ServerTest, ExplainOverTheWire) {
  std::unique_ptr<Engine> engine = MakeBibEngine();
  QueryServer server(engine.get(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto ex = client->Explain(kBibQueries[0]);
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  auto in_process = engine->Explain(kBibQueries[0]);
  ASSERT_TRUE(in_process.ok());
  EXPECT_EQ(*ex, in_process->logical + "\n---\n" + in_process->physical);
}

TEST(ServerTest, ExplainUsesTheSessionOptions) {
  // Explain over the wire compiles under the session's batch size, exactly
  // as a kRun on the same session executes: the text equals the in-process
  // Explain with the same per-call options.
  std::unique_ptr<Engine> engine = MakeBibEngine();
  QueryServer server(engine.get(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Set("batch_size", 7).ok());
  Engine::QueryOptions q;
  q.batch_size = 7;
  for (const char* query : kBibQueries) {
    auto wire = client->Explain(query);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    auto in_process = engine->Explain(query, q);
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    EXPECT_EQ(*wire, in_process->logical + "\n---\n" + in_process->physical)
        << query;
  }
}

TEST(ServerTest, ErrorStatusesCrossTheWireIntact) {
  std::unique_ptr<Engine> engine = MakeBibEngine();
  QueryServer server(engine.get(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Unparseable XQuery: the engine's ParseError code and message survive.
  const char* bad = "for $x in doc(";
  auto wire = client->Run(bad);
  auto local = engine->Run(bad);
  ASSERT_FALSE(wire.ok());
  ASSERT_FALSE(local.ok());
  EXPECT_EQ(wire.status().code(), local.status().code());
  EXPECT_EQ(wire.status().message(), local.status().message());

  // Session options validate. Every query runs serially, so thread_budget
  // is rejected like any other unknown session option.
  EXPECT_EQ(client->Set("no_such_option", 1).code(),
            StatusCode::kInvalidArgument);
  Status unknown = client->Set("thread_budget", -2);
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("unknown session option"),
            std::string::npos)
      << unknown.ToString();
}

TEST(ServerTest, SessionTimeoutGovernsQueries) {
  std::unique_ptr<Engine> engine = MakeBibEngine();
  QueryServer server(engine.get(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Negative timeout = already-expired deadline (the governor's testing
  // convention): the very first batch boundary trips kDeadlineExceeded,
  // which must come back over the wire as exactly that code.
  ASSERT_TRUE(client->Set("timeout_ms", -1).ok());
  auto r = client->Run(kBibQueries[0]);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  // Clearing the override restores service.
  ASSERT_TRUE(client->Set("timeout_ms", 0).ok());
  EXPECT_TRUE(client->Run(kBibQueries[0]).ok());
}

std::string DirectResult(const std::string& query, const Document& doc) {
  auto ast = ParseQuery(query);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  auto direct = EvaluateQueryDirect(**ast, doc);
  EXPECT_TRUE(direct.ok()) << direct.status().ToString();
  return direct.ok() ? *direct : std::string();
}

TEST(ServerTest, SessionTimeoutOfInt64MaxDoesNotOverflow) {
  // now + timeout_ms * 10^6 overflows int64: the deadline must saturate to
  // one that never trips instead of wrapping into the past.
  std::unique_ptr<Engine> engine = MakeBibEngine();
  QueryServer server(engine.get(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->Set("timeout_ms", std::numeric_limits<int64_t>::max()).ok());
  auto r = client->Run(kBibQueries[0]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, DirectResult(kBibQueries[0], engine->document()));
}

TEST(ServerTest, AdmissionRejectionOverTheWire) {
  std::unique_ptr<Engine> engine = MakeBibEngine();
  ServerConfig cfg;
  cfg.admission.max_concurrent = 1;
  cfg.admission.max_queued = 0;
  auto started = std::make_shared<Gate>();
  auto release = std::make_shared<Gate>();
  std::atomic<int> holds{0};
  cfg.on_query_start = [=, &holds](uint64_t) {
    // Only the first query parks on the gate; later ones run through.
    if (holds.fetch_add(1) == 0) {
      started->Open();
      release->Wait();
    }
  };
  QueryServer server(engine.get(), cfg);
  ASSERT_TRUE(server.Start().ok());

  auto c1 = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c1.ok());
  auto c2 = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c2.ok());

  std::thread holder([&] {
    auto r = c1->Run(kBibQueries[0]);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ASSERT_TRUE(started->WaitFor(5000));

  // The slot is held and the queue admits nobody: load is shed, with the
  // admission counters saying why.
  auto shed = c2->Run(kBibQueries[0]);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("queue full"), std::string::npos);

  release->Open();
  holder.join();
  auto s = server.stats();
  EXPECT_EQ(s.admission.shed_queue_full, 1);
  EXPECT_EQ(s.queries_ok, 1);
  EXPECT_EQ(s.queries_error, 1);
}

TEST(ServerTest, GracefulDrainDeliversInFlightResponse) {
  std::unique_ptr<Engine> engine = MakeBibEngine();
  ServerConfig cfg;
  auto started = std::make_shared<Gate>();
  auto release = std::make_shared<Gate>();
  std::atomic<int> calls{0};
  cfg.on_query_start = [=, &calls](uint64_t) {
    if (calls.fetch_add(1) == 0) {
      started->Open();
      release->Wait();
    }
  };
  QueryServer server(engine.get(), cfg);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();
  std::string expected = *engine->Run(kBibQueries[0]);

  auto client = QueryClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  Result<std::string> in_flight = Status::Internal("not yet run");
  std::thread runner([&] { in_flight = client->Run(kBibQueries[0]); });
  ASSERT_TRUE(started->WaitFor(5000));

  // Stop() while the query is in flight: it must drain, not guillotine.
  std::thread stopper([&] { server.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release->Open();
  runner.join();
  stopper.join();

  ASSERT_TRUE(in_flight.ok()) << in_flight.status().ToString();
  EXPECT_EQ(*in_flight, expected);

  // The drained server accepts nothing new.
  auto after = QueryClient::Connect("127.0.0.1", port);
  EXPECT_FALSE(after.ok());
}

TEST(ServerTest, DrainTimeoutForcesTeardownWithoutHanging) {
  std::unique_ptr<Engine> engine = MakeBibEngine();
  ServerConfig cfg;
  cfg.drain_timeout_ms = 50;  // the straggler outlives the grace period
  auto started = std::make_shared<Gate>();
  auto release = std::make_shared<Gate>();
  std::atomic<int> calls{0};
  cfg.on_query_start = [=, &calls](uint64_t) {
    if (calls.fetch_add(1) == 0) {
      started->Open();
      release->Wait();
    }
  };
  QueryServer server(engine.get(), cfg);
  ASSERT_TRUE(server.Start().ok());
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  std::thread runner([&] { (void)client->Run(kBibQueries[0]); });
  ASSERT_TRUE(started->WaitFor(5000));

  // Release the straggler shortly after the grace period expires; Stop()
  // must complete either way (never hang), and never crash.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    release->Open();
  });
  server.Stop();
  releaser.join();
  runner.join();
}

// Raw-socket helper for protocol-violation tests: QueryClient refuses to
// send malformed bytes, so speak TCP directly.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  void Send(std::string_view bytes) {
    (void)::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }
  // Reads until the server closes; returns everything received.
  std::string DrainToClose() {
    std::string out;
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

// Decodes the first frame out of a raw byte string; type 0 when none.
Frame FirstFrame(const std::string& bytes) {
  FrameReader reader;
  Frame none{static_cast<FrameType>(0), ""};
  if (!reader.Feed(bytes).ok()) return none;
  auto f = reader.Next();
  return f.has_value() ? *f : none;
}

TEST(ServerTest, RunExBudgetOfInt64MaxDoesNotOverflow) {
  // DecodeRunExPayload admits any budget up to INT64_MAX; admission's
  // now + budget_ms * 10^6 must saturate instead of wrapping into the past.
  // QueryClient keeps its own deadline arithmetic, so the frame goes raw.
  std::unique_ptr<Engine> engine = MakeBibEngine();
  QueryServer server(engine.get(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.Send(EncodeFrame(
      FrameType::kRunEx,
      EncodeRunExPayload(std::numeric_limits<int64_t>::max(),
                         /*explain=*/false, kBibQueries[0])));
  conn.Send(EncodeFrame(FrameType::kGoodbye, ""));
  Frame f = FirstFrame(conn.DrainToClose());
  ASSERT_EQ(f.type, FrameType::kResult)
      << DecodeErrorPayload(f.payload).ToString();
  EXPECT_EQ(f.payload, DirectResult(kBibQueries[0], engine->document()));
}

TEST(ServerTest, MalformedBytesGetAWireErrorAndTeardown) {
  std::unique_ptr<Engine> engine = MakeBibEngine();
  QueryServer server(engine.get(), ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  {
    // Zero-length declared frame.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    conn.Send(std::string("\x00\x00\x00\x00", 4));
    Frame f = FirstFrame(conn.DrainToClose());
    ASSERT_EQ(f.type, FrameType::kError);
    EXPECT_EQ(DecodeErrorPayload(f.payload).code(), StatusCode::kParseError);
  }
  {
    // Oversized declaration: shed before any payload is buffered.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    conn.Send(std::string("\xff\xff\xff\xff", 4));
    Frame f = FirstFrame(conn.DrainToClose());
    ASSERT_EQ(f.type, FrameType::kError);
    EXPECT_EQ(DecodeErrorPayload(f.payload).code(), StatusCode::kParseError);
  }
  {
    // A response-typed frame from a client is a protocol violation.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    conn.Send(EncodeFrame(FrameType::kResult, "i am not a server"));
    Frame f = FirstFrame(conn.DrainToClose());
    ASSERT_EQ(f.type, FrameType::kError);
    EXPECT_EQ(DecodeErrorPayload(f.payload).code(), StatusCode::kParseError);
  }
  {
    // Truncated frame then close: the server must simply tear down.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    std::string frame = EncodeFrame(FrameType::kRun, kBibQueries[0]);
    conn.Send(frame.substr(0, frame.size() / 2));
  }

  // After all that abuse a healthy client still gets service.
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Run(kBibQueries[0]).ok());
  EXPECT_GE(server.stats().frames_rejected, 3);
}

// ---------------------------------------------------------------------------
// Differential bar: wire answers byte-match in-process answers — both
// backends, every corpus query, including error codes for queries a model
// cannot answer.

struct DiffCase {
  const char* name;
  std::function<Document()> make_doc;
  std::vector<std::string> queries;
};

std::vector<DiffCase> DifferentialCorpus() {
  std::vector<DiffCase> cases;
  cases.push_back({"bib",
                   [] {
                     auto d = Document::Parse(kBib);
                     EXPECT_TRUE(d.ok());
                     return std::move(d).value();
                   },
                   {kBibQueries[0], kBibQueries[1], kBibQueries[2]}});
  cases.push_back(
      {"dblp",
       [] { return GenerateDblp({60, 7}); },
       {"for $x in doc(\"dblp\")//article return <t>{$x/title/text()}</t>",
        "for $x in doc(\"dblp\")//inproceedings where $x/year = \"2000\" "
        "return <t>{$x/title/text()}</t>"}});
  return cases;
}

TEST(ServerDifferentialTest, WireAnswersByteMatchInProcessAcrossBackends) {
  const Engine::Options::Backend kBackends[] = {
      Engine::Options::Backend::kPointer,
      Engine::Options::Backend::kColumnar};
  for (const DiffCase& c : DifferentialCorpus()) {
    for (auto backend : kBackends) {
      Engine::Options o;
      o.backend = backend;
      Engine engine(c.make_doc(), o);
      auto st = engine.InstallModel(PathPartitionedModel(engine.summary()));
      ASSERT_TRUE(st.ok()) << st.ToString();
      QueryServer server(&engine, ServerConfig{});
      ASSERT_TRUE(server.Start().ok());
      auto client = QueryClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      for (const std::string& q : c.queries) {
        std::string where = std::string(c.name) + " backend=" +
                            (backend == Engine::Options::Backend::kPointer
                                 ? "pointer"
                                 : "columnar") +
                            " query: " + q;
        auto local = engine.Run(q);
        auto wire = client->Run(q);
        ASSERT_EQ(local.ok(), wire.ok()) << where;
        if (local.ok()) {
          EXPECT_EQ(*wire, *local) << where;
        } else {
          EXPECT_EQ(wire.status().code(), local.status().code()) << where;
        }
      }
      server.Stop();
    }
  }
}

}  // namespace
}  // namespace uload
