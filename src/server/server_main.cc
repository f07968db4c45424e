// uload_server: standalone query-service daemon over one engine.
//
//   uload_server [--port N] [--xmark SCALE | --dblp RECORDS | --load FILE]
//                [--backend pointer|columnar] [--model tag|path]
//                [--max-concurrent N] [--max-queued N]
//                [--max-queued-degraded N] [--no-degradation]
//                [--query-timeout-ms N] [--memory-limit-mb N]
//                [--idle-timeout-ms N] [--stall-timeout-ms N]
//                [--write-timeout-ms N]
//
// Builds (or mmap-loads) a document, installs a storage model, and serves
// Run/Explain over the framed-TCP protocol until SIGINT/SIGTERM, then
// drains gracefully. See README "Query service" for a quickstart.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "engine/engine.h"
#include "server/server.h"
#include "storage/storage_models.h"
#include "workload/dblp.h"
#include "workload/xmark.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--xmark SCALE | --dblp RECORDS | "
               "--load FILE] [--backend pointer|columnar] [--model tag|path] "
               "[--max-concurrent N] [--max-queued N] "
               "[--max-queued-degraded N] [--no-degradation] "
               "[--query-timeout-ms N] [--memory-limit-mb N] "
               "[--idle-timeout-ms N] [--stall-timeout-ms N] "
               "[--write-timeout-ms N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using uload::Engine;
  int port = 7877;
  double xmark_scale = 0.1;
  int dblp_records = 0;
  std::string load_path;
  bool columnar = false;
  std::string model = "tag";
  uload::ServerConfig config;
  int64_t memory_limit_mb = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = std::atoi(next("--port"));
    } else if (arg == "--xmark") {
      xmark_scale = std::atof(next("--xmark"));
    } else if (arg == "--dblp") {
      dblp_records = std::atoi(next("--dblp"));
    } else if (arg == "--load") {
      load_path = next("--load");
    } else if (arg == "--backend") {
      columnar = std::strcmp(next("--backend"), "columnar") == 0;
    } else if (arg == "--model") {
      model = next("--model");
    } else if (arg == "--max-concurrent") {
      config.admission.max_concurrent = std::atoi(next("--max-concurrent"));
    } else if (arg == "--max-queued") {
      config.admission.max_queued = std::atoi(next("--max-queued"));
    } else if (arg == "--max-queued-degraded") {
      config.admission.max_queued_degraded =
          std::atoi(next("--max-queued-degraded"));
    } else if (arg == "--no-degradation") {
      config.admission.degradation = false;
    } else if (arg == "--idle-timeout-ms") {
      config.idle_timeout_ms = std::atoll(next("--idle-timeout-ms"));
    } else if (arg == "--stall-timeout-ms") {
      config.stall_timeout_ms = std::atoll(next("--stall-timeout-ms"));
    } else if (arg == "--write-timeout-ms") {
      config.write_timeout_ms = std::atoll(next("--write-timeout-ms"));
    } else if (arg == "--query-timeout-ms") {
      config.admission.query_timeout_ms =
          std::atoll(next("--query-timeout-ms"));
    } else if (arg == "--memory-limit-mb") {
      memory_limit_mb = std::atoll(next("--memory-limit-mb"));
    } else {
      return Usage(argv[0]);
    }
  }

  Engine::Options options;
  options.backend = columnar ? Engine::Options::Backend::kColumnar
                             : Engine::Options::Backend::kPointer;
  options.engine_memory_limit_bytes = memory_limit_mb * 1024 * 1024;
  if (options.engine_memory_limit_bytes > 0) {
    // Per-query budget: an even split with slack, so one query cannot
    // starve the rest of the fleet.
    config.admission.query_memory_limit_bytes =
        2 * options.engine_memory_limit_bytes /
        std::max(1, config.admission.max_concurrent);
  }

  std::unique_ptr<Engine> engine;
  if (!load_path.empty()) {
    auto loaded = Engine::Load(load_path, options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s: %s\n", load_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*loaded);
    std::printf("loaded columnar image %s\n", load_path.c_str());
  } else if (dblp_records > 0) {
    engine = std::make_unique<Engine>(
        uload::GenerateDblp({dblp_records, 7}), options);
    std::printf("generated DBLP, %d records\n", dblp_records);
  } else {
    engine = std::make_unique<Engine>(
        uload::GenerateXMark(uload::XMarkScale(xmark_scale)), options);
    std::printf("generated XMark at scale %.2f\n", xmark_scale);
  }

  auto install = model == "path"
                     ? engine->InstallModel(
                           uload::PathPartitionedModel(engine->summary()))
                     : engine->InstallModel(
                           uload::TagPartitionedModel(engine->summary()));
  if (!install.ok()) {
    std::fprintf(stderr, "install model: %s\n",
                 install.ToString().c_str());
    return 1;
  }

  config.port = port;
  uload::QueryServer server(engine.get(), config);
  auto st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "serving on %s:%d (%s backend, %s-partitioned model, "
      "max_concurrent=%d)\n",
      config.host.c_str(), server.port(), columnar ? "columnar" : "pointer",
      model.c_str(), config.admission.max_concurrent);
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) {
    struct timespec ts = {0, 100'000'000};
    nanosleep(&ts, nullptr);
  }
  std::printf("draining...\n");
  server.Stop();
  auto s = server.stats();
  std::printf("served %lld ok, %lld errors over %lld sessions\n",
              static_cast<long long>(s.queries_ok),
              static_cast<long long>(s.queries_error),
              static_cast<long long>(s.sessions_opened));
  return 0;
}
