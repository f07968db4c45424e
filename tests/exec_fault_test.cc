// Fault-injection sweep over the streaming engine (the robustness contract
// of DESIGN.md §8): any operator call may fail at any point — injected via
// ExecContext's FaultSpec — and the engine must always return a clean
// Status: no crash, no hang, no leak (ASAN), no race (TSAN), every budget
// charge returned, and the *same* Engine must answer the next query
// byte-identically to an unfaulted run.
//
// The sweep enumerates fault points by registration ordinal × call site ×
// call number across the engine-test corpus at batch sizes {1, 1024}, plus
// a seeded random-failure mode. scripts/check.sh --fault-injection runs
// exactly this binary under ASAN and TSAN.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "workload/dblp.h"

namespace uload {
namespace {

// Per-test hang enforcement: a hung teardown would otherwise stall the sanitizer CI legs for their
// whole job timeout. The watchdog aborts the process with a diagnostic
// instead, which gtest reports as a failed test.
class Watchdog {
 public:
  explicit Watchdog(int seconds) {
    thread_ = std::thread([this, seconds] {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                        [this] { return done_; })) {
        std::fprintf(stderr,
                     "fault-sweep watchdog: test still running after %d s — "
                     "aborting (suspected hang)\n",
                     seconds);
        std::abort();
      }
    });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

const size_t kBatchSizes[] = {1, 1024};

// Small corpus: 60 DBLP records.
Document MakeDoc() {
  DblpOptions o;
  o.records = 60;
  return GenerateDblp(o);
}

const char* kQuery =
    "for $x in doc(\"dblp\")//article return <t>{$x/title/text()}</t>";

std::unique_ptr<Engine> MakeEngine(size_t batch_size) {
  Engine::Options o;
  o.batch_size = batch_size;
  // A generous budget keeps the tracker engaged (all charges exercised)
  // without tripping; the sweep asserts it returns to zero either way.
  o.memory_limit_bytes = int64_t{1} << 30;
  auto engine = std::make_unique<Engine>(MakeDoc(), o);
  EXPECT_TRUE(engine->InstallModel(TagPartitionedModel(engine->summary())).ok());
  return engine;
}

// One faulted run followed by one clean run on the same engine. The faulted
// run must either fail cleanly (the injected kInternal, or a governor code)
// or — when the targeted call is never reached — succeed byte-identically.
// The clean run must always reproduce `expected`.
void RunFaultedThenRecover(Engine* engine, const FaultSpec& fault,
                           const std::string& expected,
                           const std::string& where) {
  Engine::Options o = engine->options();
  o.fault = fault;
  engine->SetOptions(o);
  Result<std::string> faulted = engine->Run(kQuery);
  if (faulted.ok()) {
    EXPECT_EQ(*faulted, expected) << where;
  } else {
    EXPECT_EQ(faulted.status().code(), StatusCode::kInternal) << where;
    EXPECT_NE(faulted.status().message().find("injected fault"),
              std::string::npos)
        << where << ": " << faulted.status().ToString();
  }
  // Aborted or not, every budget charge must have been returned.
  EXPECT_EQ(engine->memory().used(), 0) << where;
  // The engine must answer the next, unfaulted query as if nothing
  // happened.
  o.fault = FaultSpec();
  engine->SetOptions(o);
  Result<std::string> clean = engine->Run(kQuery);
  ASSERT_TRUE(clean.ok()) << where << ": " << clean.status().ToString();
  EXPECT_EQ(*clean, expected) << where;
  EXPECT_EQ(engine->memory().used(), 0) << where;
}

TEST(ExecFaultSweep, DeterministicInjectionAcrossAllOperators) {
  Watchdog watchdog(480);
  for (size_t batch : kBatchSizes) {
    std::unique_ptr<Engine> engine = MakeEngine(batch);
    Result<std::string> baseline = engine->Run(kQuery);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    // Registration ordinals address the fault points; the published metrics
    // of the baseline run enumerate them.
    int n = static_cast<int>(engine->LastQueryMetrics().size());
    ASSERT_GT(n, 0);
    for (int op = 0; op < n; ++op) {
      for (FaultSpec::Site site :
           {FaultSpec::Site::kOpen, FaultSpec::Site::kNextBatch}) {
        for (int64_t call : {int64_t{0}, int64_t{2}}) {
          FaultSpec f;
          f.op_index = op;
          f.site = site;
          f.call_index = call;
          std::string where =
              "batch=" + std::to_string(batch) +
              " op=" + std::to_string(op) +
              " site=" + (site == FaultSpec::Site::kOpen ? "open" : "next") +
              " call=" + std::to_string(call);
          RunFaultedThenRecover(engine.get(), f, *baseline, where);
        }
      }
    }
  }
}

TEST(ExecFaultSweep, AnyOperatorFirstCallFails) {
  Watchdog watchdog(240);
  for (size_t batch : kBatchSizes) {
    std::unique_ptr<Engine> engine = MakeEngine(batch);
    Result<std::string> baseline = engine->Run(kQuery);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    FaultSpec f;
    f.op_index = -1;  // every operator
    f.call_index = 0;
    RunFaultedThenRecover(engine.get(), f, *baseline,
                          "any-op batch=" + std::to_string(batch));
  }
}

TEST(ExecFaultSweep, SeededRandomInjection) {
  Watchdog watchdog(240);
  for (size_t batch : kBatchSizes) {
    std::unique_ptr<Engine> engine = MakeEngine(batch);
    Result<std::string> baseline = engine->Run(kQuery);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      FaultSpec f;
      f.random_seed = seed;
      f.random_prob = 0.05;
      RunFaultedThenRecover(engine.get(), f, *baseline,
                            "seed=" + std::to_string(seed) +
                                " batch=" + std::to_string(batch));
    }
  }
}

}  // namespace
}  // namespace uload
