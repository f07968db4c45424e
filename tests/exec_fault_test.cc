// Fault-injection sweep over the streaming engine (the robustness contract
// of DESIGN.md §8): any operator call may fail at any point — injected via
// ExecContext's FaultSpec — and the engine must always return a clean
// Status: no crash, no hang, no leak (ASAN), no race (TSAN), every exchange
// worker joined, every budget charge returned, and the *same* Engine must
// answer the next query byte-identically to an unfaulted run.
//
// The sweep enumerates fault points by registration ordinal × call site ×
// call number across the engine-test corpus at thread budgets {1, 4} and
// batch sizes {1, 1024}, plus a seeded random-failure mode. scripts/check.sh
// --fault-injection runs exactly this binary under ASAN and TSAN.
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
#include "eval/tag_collections.h"
#include "exec/physical.h"
#include "workload/dblp.h"

namespace uload {
namespace {

// Per-test hang enforcement: a hung teardown (deadlocked join, Pop on an
// unpoisoned queue) would otherwise stall the sanitizer CI legs for their
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

struct Config {
  size_t batch_size;
  size_t threads;
};

const Config kConfigs[] = {
    {1, 1}, {1024, 1}, {1, 4}, {1024, 4},
};

// Small but exchange-capable corpus: enough rows that thread_budget=4
// actually fans structural joins out over workers.
Document MakeDoc() {
  DblpOptions o;
  o.records = 60;
  return GenerateDblp(o);
}

const char* kQuery =
    "for $x in doc(\"dblp\")//article return <t>{$x/title/text()}</t>";

std::unique_ptr<Engine> MakeEngine(const Config& c) {
  Engine::Options o;
  o.batch_size = c.batch_size;
  o.thread_budget = c.threads;
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
  for (const Config& c : kConfigs) {
    std::unique_ptr<Engine> engine = MakeEngine(c);
    Result<std::string> baseline = engine->Run(kQuery);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    // Registration ordinals address the fault points; the published metrics
    // of the baseline run enumerate them (worker pipelines use the same
    // ordinal space per worker context, a subset of [0, n)).
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
              "batch=" + std::to_string(c.batch_size) +
              " threads=" + std::to_string(c.threads) +
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
  for (const Config& c : kConfigs) {
    std::unique_ptr<Engine> engine = MakeEngine(c);
    Result<std::string> baseline = engine->Run(kQuery);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    FaultSpec f;
    f.op_index = -1;  // every operator
    f.call_index = 0;
    RunFaultedThenRecover(engine.get(), f, *baseline,
                          "any-op batch=" + std::to_string(c.batch_size) +
                              " threads=" + std::to_string(c.threads));
  }
}

TEST(ExecFaultSweep, SeededRandomInjection) {
  Watchdog watchdog(240);
  for (const Config& c : kConfigs) {
    std::unique_ptr<Engine> engine = MakeEngine(c);
    Result<std::string> baseline = engine->Run(kQuery);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      FaultSpec f;
      f.random_seed = seed;
      f.random_prob = 0.05;
      RunFaultedThenRecover(engine.get(), f, *baseline,
                            "seed=" + std::to_string(seed) +
                                " batch=" + std::to_string(c.batch_size) +
                                " threads=" + std::to_string(c.threads));
    }
  }
}

// Faults restricted to the exchange: the worker-pool teardown path
// (poisoned queues, joined threads, drained budget charges) is the
// deadlock-prone one, so it gets its own targeted sweep. No Engine query
// places an exchange yet, so the sweep compiles a structural join that fans
// out directly, and asserts that it does.
TEST(ExecFaultSweep, ExchangeCollectorFaults) {
  Watchdog watchdog(240);
  Document doc = MakeDoc();
  NestedRelation articles =
      TagCollection(doc, "article", {"a", true, true, false});
  NestedRelation titles =
      TagCollection(doc, "title", {"t", true, true, false});
  EvalContext ctx;
  ctx.relations = {{"articles", &articles}, {"titles", &titles}};
  ctx.document = &doc;
  PlanPtr plan = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("articles"),
      LogicalPlan::Select(LogicalPlan::Scan("titles"),
                          Predicate::NotNull("t_Val")),
      "a_ID", Axis::kDescendant, "t_ID", JoinVariant::kInner);
  MemoryTracker tracker("query", int64_t{1} << 30);
  // One compiled run at thread budget 4 under `fault`.
  auto run = [&](size_t batch, const FaultSpec& fault) {
    ExecContext exec(batch);
    exec.set_thread_budget(4);
    exec.set_memory_tracker(&tracker);
    exec.set_fault(fault);
    auto phys = CompilePhysicalPlan(plan, ctx, &exec);
    if (!phys.ok()) return Result<NestedRelation>(phys.status());
    std::string desc = (*phys)->Describe();
    EXPECT_NE(desc.find("ExchangeMerge_phi"), std::string::npos) << desc;
    EXPECT_NE(desc.find("Scan_phi(titles 1/4)"), std::string::npos) << desc;
    return ExecutePhysical(phys->get());
  };
  Result<NestedRelation> baseline = run(1024, FaultSpec());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->size(), 0);
  for (const char* target :
       {"ExchangeMerge_phi", "Scan_phi(titles ", "StackTreeDesc_phi"}) {
    int injected = 0;
    for (size_t batch : {size_t{1}, size_t{1024}}) {
      for (int64_t call : {int64_t{0}, int64_t{1}, int64_t{3}}) {
        std::string where = std::string("target=") + target +
                            " batch=" + std::to_string(batch) +
                            " call=" + std::to_string(call);
        FaultSpec f;
        f.op_substring = target;
        f.call_index = call;
        Result<NestedRelation> faulted = run(batch, f);
        if (faulted.ok()) {
          EXPECT_TRUE(faulted->Equals(*baseline)) << where;
        } else {
          ++injected;
          EXPECT_EQ(faulted.status().code(), StatusCode::kInternal) << where;
          EXPECT_NE(faulted.status().message().find("injected fault"),
                    std::string::npos)
              << where << ": " << faulted.status().ToString();
        }
        // Aborted or not, every budget charge must have been returned.
        EXPECT_EQ(tracker.used(), 0) << where;
        Result<NestedRelation> clean = run(batch, FaultSpec());
        ASSERT_TRUE(clean.ok()) << where << ": " << clean.status().ToString();
        EXPECT_TRUE(clean->Equals(*baseline)) << where;
        EXPECT_EQ(tracker.used(), 0) << where;
      }
    }
    EXPECT_GT(injected, 0) << target << " was never reached";
  }
}

}  // namespace
}  // namespace uload
