// Closed-loop multi-client throughput bench for the query service
// (src/server/): N client threads, each with its own connection/session,
// issue queries back to back against one loopback QueryServer and record
// per-request wall-clock latency. Sweeps {clients} and prints QPS / p50 /
// p99 per cell. Every wire answer is verified
// byte-identical to the in-process Engine::Run answer — a mismatch fails
// the bench (exit 1), which is the acceptance bar for the serving path.
//
//   bench_server_throughput [--scale S] [--iters N] [--smoke] [--overload]
//
// --smoke: tiny document, few iterations, same full sweep — the CI leg.
// --overload: the degradation-ladder row (DESIGN.md §13) — 16 clients
//   hammer a server with 2 admission slots, once with the ladder off
//   (shed-only) and once armed; prints shed rate, p99, and degraded
//   grants per row and FAILS unless the ladder strictly reduces the
//   shed rate at identical offered load.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/storage_models.h"

namespace uload {
namespace {

const char* kQueries[] = {
    "for $x in doc(\"x\")//people/person return <p>{$x/name/text()}</p>",
    "for $x in doc(\"x\")//item return <l>{$x/location/text()}</l>",
    "for $x in doc(\"x\")//closed_auction where $x/price > 100 "
    "return <p>{$x/price/text()}</p>",
};

struct CellResult {
  int64_t requests = 0;
  double wall_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double qps() const { return wall_s > 0 ? requests / wall_s : 0; }
};

double PercentileMs(std::vector<int64_t>& ns, double p) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  size_t idx = static_cast<size_t>(p * (ns.size() - 1) + 0.5);
  idx = std::min(idx, ns.size() - 1);
  return static_cast<double>(ns[idx]) / 1e6;
}

int RunBench(double scale, int iters) {
  using Clock = std::chrono::steady_clock;
  const bench::Workload& w = bench::SharedXMark(scale);

  Engine::Options options;
  Engine engine(Document(w.doc), options);  // copy: the cache is shared
  auto install = engine.InstallModel(TagPartitionedModel(engine.summary()));
  if (!install.ok()) {
    std::fprintf(stderr, "install: %s\n", install.ToString().c_str());
    return 1;
  }

  // In-process expected answers (the differential bar).
  std::vector<std::string> expected;
  for (const char* q : kQueries) {
    auto r = engine.Run(q);
    if (!r.ok()) {
      std::fprintf(stderr, "baseline %s: %s\n", q,
                   r.status().ToString().c_str());
      return 1;
    }
    expected.push_back(std::move(*r));
  }

  // Admission sized above the largest client count: this bench measures the
  // serving path, not deliberate load shedding.
  ServerConfig config;
  config.admission.max_concurrent = 32;
  config.admission.max_queued = 64;
  QueryServer server(&engine, config);
  auto st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }

  bench::Header("query service: closed-loop client sweep");
  std::printf("xmark scale %.2f, %d iters/client, %zu queries round-robin\n",
              scale, iters, std::size(kQueries));
  std::printf("%8s %10s %12s %10s %10s\n", "clients", "requests", "qps",
              "p50_ms", "p99_ms");

  const int kClients[] = {1, 4, 16};
  std::atomic<int64_t> mismatches{0};

  for (int clients : kClients) {
    std::vector<std::vector<int64_t>> latencies(static_cast<size_t>(clients));
    std::vector<std::thread> threads;
    std::atomic<int> errors{0};
    auto wall_start = Clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto client = QueryClient::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          errors.fetch_add(1);
          return;
        }
        auto& lats = latencies[static_cast<size_t>(c)];
        lats.reserve(static_cast<size_t>(iters));
        for (int i = 0; i < iters; ++i) {
          size_t qi = static_cast<size_t>(c + i) % std::size(kQueries);
          auto t0 = Clock::now();
          auto r = client->Run(kQueries[qi]);
          auto t1 = Clock::now();
          if (!r.ok()) {
            errors.fetch_add(1);
            return;
          }
          if (*r != expected[qi]) mismatches.fetch_add(1);
          lats.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
        }
        if (!client->Goodbye().ok()) {
          // All answers already verified; a failed goodbye still counts
          // as a client error so the cell reports it.
          errors.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    double wall_s = std::chrono::duration<double>(Clock::now() - wall_start)
                        .count();
    if (errors.load() > 0) {
      std::fprintf(stderr, "cell clients=%d: %d client errors\n", clients,
                   errors.load());
      return 1;
    }
    std::vector<int64_t> all;
    for (auto& lats : latencies) {
      all.insert(all.end(), lats.begin(), lats.end());
    }
    CellResult cell;
    cell.requests = static_cast<int64_t>(all.size());
    cell.wall_s = wall_s;
    cell.p50_ms = PercentileMs(all, 0.50);
    cell.p99_ms = PercentileMs(all, 0.99);
    std::printf("%8d %10lld %12.1f %10.3f %10.3f\n", clients,
                static_cast<long long>(cell.requests), cell.qps(),
                cell.p50_ms, cell.p99_ms);
    std::fflush(stdout);
  }
  server.Stop();

  auto stats = server.stats();
  std::printf("\nserver: %lld ok, %lld errors, %lld sessions, "
              "%lld admitted, %lld shed\n",
              static_cast<long long>(stats.queries_ok),
              static_cast<long long>(stats.queries_error),
              static_cast<long long>(stats.sessions_opened),
              static_cast<long long>(stats.admission.admitted),
              static_cast<long long>(stats.admission.shed_queue_full +
                                     stats.admission.shed_queue_timeout +
                                     stats.admission.shed_memory +
                                     stats.admission.shed_draining));
  if (mismatches.load() > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld wire answers differed from in-process runs\n",
                 static_cast<long long>(mismatches.load()));
    return 1;
  }
  std::printf("all wire answers byte-identical to in-process runs\n");
  return 0;
}

// One overload cell: `clients` closed-loop clients vs a 2-slot server,
// ladder armed or not. Sheds (kResourceExhausted) are counted, not fatal;
// any other failure is. Returns false on a hard error.
struct OverloadRow {
  int64_t ok = 0;
  int64_t shed = 0;
  double p99_ms = 0;
  int64_t degraded = 0;
  double shed_rate() const {
    int64_t total = ok + shed;
    return total > 0 ? static_cast<double>(shed) / total : 0;
  }
};

bool RunOverloadCell(Engine* engine, const std::vector<std::string>& expected,
                     bool ladder, int clients, int iters,
                     std::atomic<int64_t>* mismatches, OverloadRow* row) {
  using Clock = std::chrono::steady_clock;
  ServerConfig config;
  config.admission.max_concurrent = 2;
  config.admission.max_queued = 2;
  config.admission.queue_timeout_ms = 2000;
  config.admission.degradation = ladder;
  config.admission.max_queued_degraded = ladder ? clients : 0;
  QueryServer server(engine, config);
  auto st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return false;
  }

  std::vector<std::vector<int64_t>> latencies(static_cast<size_t>(clients));
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = QueryClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        errors.fetch_add(1);
        return;
      }
      auto& lats = latencies[static_cast<size_t>(c)];
      lats.reserve(static_cast<size_t>(iters));
      for (int i = 0; i < iters; ++i) {
        size_t qi = static_cast<size_t>(c + i) % std::size(kQueries);
        auto t0 = Clock::now();
        auto r = client->Run(kQueries[qi]);
        auto t1 = Clock::now();
        if (r.ok()) {
          if (*r != expected[qi]) mismatches->fetch_add(1);
          ok.fetch_add(1);
          lats.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          // Shed by admission — the measured quantity, not a failure.
          shed.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        } else {
          errors.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  server.Stop();
  if (errors.load() > 0) {
    std::fprintf(stderr, "overload ladder=%d: %d client errors\n",
                 ladder ? 1 : 0, errors.load());
    return false;
  }
  std::vector<int64_t> all;
  for (auto& lats : latencies) all.insert(all.end(), lats.begin(), lats.end());
  row->ok = ok.load();
  row->shed = shed.load();
  row->p99_ms = PercentileMs(all, 0.99);
  row->degraded = server.stats().admission.degraded;
  return true;
}

int RunOverload(double scale, int iters) {
  const bench::Workload& w = bench::SharedXMark(scale);
  Engine::Options options;
  Engine engine(Document(w.doc), options);
  auto install = engine.InstallModel(TagPartitionedModel(engine.summary()));
  if (!install.ok()) {
    std::fprintf(stderr, "install: %s\n", install.ToString().c_str());
    return 1;
  }
  std::vector<std::string> expected;
  for (const char* q : kQueries) {
    auto r = engine.Run(q);
    if (!r.ok()) {
      std::fprintf(stderr, "baseline %s: %s\n", q,
                   r.status().ToString().c_str());
      return 1;
    }
    expected.push_back(std::move(*r));
  }

  const int kOverloadClients = 16;
  bench::Header("query service: overload, degradation ladder on vs off");
  std::printf("xmark scale %.2f, %d clients vs 2 slots, %d iters/client\n",
              scale, kOverloadClients, iters);
  std::printf("%12s %8s %8s %10s %10s %10s\n", "ladder", "ok", "shed",
              "shed_rate", "p99_ms", "degraded");

  std::atomic<int64_t> mismatches{0};
  OverloadRow off, on;
  if (!RunOverloadCell(&engine, expected, /*ladder=*/false, kOverloadClients,
                       iters, &mismatches, &off) ||
      !RunOverloadCell(&engine, expected, /*ladder=*/true, kOverloadClients,
                       iters, &mismatches, &on)) {
    return 1;
  }
  std::printf("%12s %8lld %8lld %9.1f%% %10.3f %10lld\n", "off (shed)",
              static_cast<long long>(off.ok), static_cast<long long>(off.shed),
              100 * off.shed_rate(), off.p99_ms,
              static_cast<long long>(off.degraded));
  std::printf("%12s %8lld %8lld %9.1f%% %10.3f %10lld\n", "on",
              static_cast<long long>(on.ok), static_cast<long long>(on.shed),
              100 * on.shed_rate(), on.p99_ms,
              static_cast<long long>(on.degraded));
  if (mismatches.load() > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld wire answers differed from in-process runs\n",
                 static_cast<long long>(mismatches.load()));
    return 1;
  }
  if (off.shed == 0) {
    std::fprintf(stderr,
                 "FAIL: shed-only configuration shed nothing — the cell is "
                 "not overloaded, the comparison is vacuous\n");
    return 1;
  }
  if (on.shed_rate() >= off.shed_rate()) {
    std::fprintf(stderr,
                 "FAIL: ladder did not reduce shed rate (%.1f%% -> %.1f%%)\n",
                 100 * off.shed_rate(), 100 * on.shed_rate());
    return 1;
  }
  std::printf("ladder reduced shed rate %.1f%% -> %.1f%% at identical "
              "offered load\n",
              100 * off.shed_rate(), 100 * on.shed_rate());
  return 0;
}

}  // namespace
}  // namespace uload

int main(int argc, char** argv) {
  double scale = 0.1;
  int iters = 30;
  bool overload = false;
  bool scale_set = false;
  bool iters_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      scale = 0.02;
      iters = 4;
      scale_set = iters_set = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
      scale_set = true;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
      iters_set = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale S] [--iters N] [--smoke] [--overload]\n",
                   argv[0]);
      return 2;
    }
  }
  if (overload) {
    // The overload row is a contention experiment, not a throughput sweep —
    // keep it small unless the caller asked otherwise.
    if (!scale_set) scale = 0.05;
    if (!iters_set) iters = 8;
    return uload::RunOverload(scale, iters);
  }
  return uload::RunBench(scale, iters);
}
