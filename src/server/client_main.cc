// uload_client: one-shot command-line client for the query service.
//
//   uload_client [--host H] [--port N] [--explain]
//                [--retries N] [--backoff-ms N] [--budget-ms N]
//                ("QUERY" | --stats)
//
// Connects, sends the query (or the kStats request with --stats), prints
// the answer and exits. With --retries > 1 the client drives connect and
// the request through bounded retry with exponential backoff, reconnecting
// and replaying on transport faults; --budget-ms propagates the remaining
// wall-clock budget to the server (deadline propagation, DESIGN.md §13).
//
// Exit codes:
//   0  success
//   2  usage error
//   3  connect failed (server unreachable, handshake failed)
//   4  protocol/transport error (connection died, malformed frames)
//   5  query error (the server answered with an error Status)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/retry.h"
#include "common/status.h"
#include "server/client.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitConnect = 3;
constexpr int kExitProtocol = 4;
constexpr int kExitQuery = 5;

// Transport faults surface as kInternal (dead connection, malformed
// frames); everything else is a clean answer from the server.
int ClassifyError(const uload::Status& st) {
  return st.code() == uload::StatusCode::kInternal ? kExitProtocol
                                                   : kExitQuery;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 7877;
  bool explain = false;
  bool stats = false;
  long retries = 1;
  long backoff_ms = 50;
  long budget_ms = 0;
  std::string query;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", what);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next("--host");
    } else if (arg == "--port") {
      port = std::atoi(next("--port"));
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--retries") {
      retries = std::atol(next("--retries"));
    } else if (arg == "--backoff-ms") {
      backoff_ms = std::atol(next("--backoff-ms"));
    } else if (arg == "--budget-ms") {
      budget_ms = std::atol(next("--budget-ms"));
    } else {
      query = arg;
    }
  }
  if (query.empty() && !stats) {
    std::fprintf(stderr,
                 "usage: %s [--host H] [--port N] [--explain] "
                 "[--retries N] [--backoff-ms N] [--budget-ms N] "
                 "(\"QUERY\" | --stats)\n",
                 argv[0]);
    return kExitUsage;
  }

  uload::RetryPolicy policy;
  policy.max_attempts = retries > 0 ? static_cast<int>(retries) : 1;
  policy.initial_backoff_ms = backoff_ms > 0 ? backoff_ms : 50;
  if (budget_ms > 0) policy.overall_deadline_ms = budget_ms;

  auto client = uload::QueryClient::Connect(host, port, policy);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return kExitConnect;
  }
  uload::Result<std::string> answer =
      stats ? client->Stats()
            : (explain ? client->Explain(query, budget_ms)
                       : client->Run(query, budget_ms));
  if (!answer.ok()) {
    std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
    if (client->last_error_detail().retry_after_ms >= 0) {
      std::fprintf(stderr, "retry_after_ms=%lld\n",
                   static_cast<long long>(
                       client->last_error_detail().retry_after_ms));
    }
    return ClassifyError(answer.status());
  }
  std::printf("%s\n", answer->c_str());
  uload::Status bye = client->Goodbye();
  if (!bye.ok()) {
    // The answer already arrived; a failed goodbye is worth a note but not
    // a failing exit code.
    std::fprintf(stderr, "goodbye: %s\n", bye.ToString().c_str());
  }
  return kExitOk;
}
