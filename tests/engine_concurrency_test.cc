// Engine concurrency torture (TSAN'd in the --server-sweep CI leg): many
// threads hammering ONE engine with Run / Cancel / Save / Load-and-query
// plus metrics and memory pollers, over both storage backends. The suite
// name matches the *Engine* filter in scripts/check.sh so the main TSAN leg
// picks it up too.
//
// Also holds the regression test for the metrics-publication race: Engine
// used to expose a shared ExecContext whose per-operator metric slots were
// cleared and written by every Run — concurrent queries scribbled on each
// other and readers saw torn counters. Metrics now collect on a private
// per-query context and publish as a snapshot under the engine mutex
// (Engine::LastQueryMetrics).
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "storage/storage_models.h"
#include "workload/dblp.h"
#include "workload/xmark.h"

namespace uload {
namespace {

constexpr const char* kQueries[] = {
    "for $x in doc(\"dblp\")//article return <t>{$x/title/text()}</t>",
    "for $x in doc(\"dblp\")//inproceedings where $x/year = \"2000\" "
    "return <t>{$x/title/text()}</t>",
};

std::unique_ptr<Engine> MakeEngine(Engine::Options::Backend backend) {
  Engine::Options o;
  o.backend = backend;
  auto engine =
      std::make_unique<Engine>(GenerateDblp({/*records=*/80, /*seed=*/7}), o);
  auto st = engine->InstallModel(TagPartitionedModel(engine->summary()));
  EXPECT_TRUE(st.ok()) << st.ToString();
  return engine;
}

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class EngineConcurrencyTest
    : public ::testing::TestWithParam<Engine::Options::Backend> {};

// Concurrent Runs on one engine must be byte-identical to serial runs —
// no cross-query state, no ordering effects.
TEST_P(EngineConcurrencyTest, ConcurrentRunsMatchSerialBaseline) {
  auto engine = MakeEngine(GetParam());
  std::vector<std::string> expected;
  for (const char* q : kQueries) {
    auto r = engine->Run(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(*r));
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        size_t qi = static_cast<size_t>(t + i) % std::size(kQueries);
        auto r = engine->Run(kQueries[qi]);
        if (!r.ok() || *r != expected[qi]) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine->memory().used(), 0);
}

// One plan cache serves every thread. Four threads start on an empty cache
// and cycle through the repeat_large workload's five texts
// (perfbench/generators.cc) from different offsets, so they race on misses,
// inserts and hits of the same texts; every answer must equal a serial run
// on a separate engine.
TEST_P(EngineConcurrencyTest, SharedPlanCacheMatchesSerialBaseline) {
  constexpr const char* kRepeatTexts[] = {
      "for $x in doc(\"x\")//person/name return $x",
      "for $x in doc(\"x\")//closed_auction return $x",
      "for $x in doc(\"x\")//open_auction return $x",
      "for $x in doc(\"x\")//closed_auction/price return $x",
      "for $x in doc(\"x\")//closed_auction/annotation return $x",
  };
  constexpr size_t kTexts = std::size(kRepeatTexts);
  Engine::Options o;
  o.backend = GetParam();
  auto make = [&o] {
    auto e = std::make_unique<Engine>(GenerateXMark(XMarkScale(0.05)), o);
    EXPECT_TRUE(e->InstallModel(TagPartitionedModel(e->summary())).ok());
    return e;
  };
  std::vector<std::string> expected;
  {
    auto serial = make();
    for (const char* q : kRepeatTexts) {
      auto r = serial->Run(q);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      expected.push_back(std::move(*r));
    }
  }

  auto engine = make();
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kRounds * kTexts; ++i) {
        size_t qi = (static_cast<size_t>(t) + i) % kTexts;
        auto r = engine->Run(kRepeatTexts[qi]);
        if (!r.ok() || *r != expected[qi]) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine->plan_cache_entries(), static_cast<int64_t>(kTexts));
  EXPECT_GE(engine->plan_cache_misses(), static_cast<int64_t>(kTexts));
  EXPECT_EQ(engine->plan_cache_hits() + engine->plan_cache_misses(),
            static_cast<int64_t>(kThreads * kRounds * kTexts));
  EXPECT_EQ(engine->memory().used(), 0);
}

// The full torture: runners, a canceller, savers, loaders querying their
// freshly loaded engines, and metrics/memory pollers — all on one engine.
TEST_P(EngineConcurrencyTest, RunCancelSaveLoadTorture) {
  const bool columnar = GetParam() == Engine::Options::Backend::kColumnar;
  auto engine = MakeEngine(GetParam());
  std::string expected = *engine->Run(kQueries[0]);

  // A pre-saved image for the Load threads, so loads overlap the torture
  // from the first iteration.
  const std::string preimage =
      TempPath(std::string("torture_pre_") + (columnar ? "col" : "ptr") +
               ".uldcol");
  ASSERT_TRUE(engine->Save(preimage).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> wrong_answers{0};
  std::atomic<int> runs_done{0};
  std::vector<std::thread> threads;

  // Runners: every answer is either the right bytes or a clean governor
  // abort (the canceller is firing at random points).
  constexpr int kRunners = 3;
  constexpr int kItersPerRunner = 10;
  for (int t = 0; t < kRunners; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerRunner; ++i) {
        auto r = engine->Run(kQueries[0]);
        if (r.ok()) {
          if (*r != expected) wrong_answers.fetch_add(1);
        } else if (r.status().code() != StatusCode::kCancelled) {
          wrong_answers.fetch_add(1);
        }
        runs_done.fetch_add(1);
      }
    });
  }

  // Canceller: fires until every runner is done.
  threads.emplace_back([&] {
    while (runs_done.load() < kRunners * kItersPerRunner) {
      engine->Cancel();
      std::this_thread::yield();
    }
  });

  // Savers: persist the engine while queries run; each thread gets its own
  // path (concurrent Save to one path is not part of the contract).
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const std::string path =
          TempPath("torture_save_" + std::string(columnar ? "col" : "ptr") +
                   "_" + std::to_string(t) + ".uldcol");
      for (int i = 0; i < 3 && !stop.load(); ++i) {
        auto st = engine->Save(path);
        if (!st.ok()) wrong_answers.fetch_add(1);
      }
    });
  }

  // Loaders: restore the pre-saved image and query the loaded engine while
  // the source engine is under fire.
  threads.emplace_back([&] {
    for (int i = 0; i < 2; ++i) {
      auto loaded = Engine::Load(preimage);
      if (!loaded.ok()) {
        wrong_answers.fetch_add(1);
        continue;
      }
      auto st =
          (*loaded)->InstallModel(TagPartitionedModel((*loaded)->summary()));
      if (!st.ok()) {
        wrong_answers.fetch_add(1);
        continue;
      }
      auto r = (*loaded)->Run(kQueries[0]);
      if (!r.ok() || *r != expected) wrong_answers.fetch_add(1);
    }
  });

  // Pollers: metrics and memory reads race the runners by design.
  threads.emplace_back([&] {
    while (runs_done.load() < kRunners * kItersPerRunner) {
      auto metrics = engine->LastQueryMetrics();
      for (const auto& m : metrics) {
        if (m.tuples_produced < 0) wrong_answers.fetch_add(1);
      }
      (void)engine->LastQueryTotalTuples();
      (void)engine->memory().used();
      std::this_thread::yield();
    }
  });

  for (auto& th : threads) th.join();
  stop.store(true);
  EXPECT_EQ(wrong_answers.load(), 0);
  // Every budget returns to zero — aborted queries included.
  EXPECT_EQ(engine->memory().used(), 0);

  // The engine still serves perfectly after the storm.
  auto after = engine->Run(kQueries[0]);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, expected);
}

// Regression: metrics publication vs concurrent Run. Before the fix the
// shared ExecContext meant ClearMetrics() on one thread raced operator
// updates on another; TSAN flagged it and counters tore. Readers now get a
// consistent snapshot while writers run.
TEST_P(EngineConcurrencyTest, MetricsPublicationDoesNotRaceRuns) {
  auto engine = MakeEngine(GetParam());
  // Publish once so readers always have a snapshot.
  ASSERT_TRUE(engine->Run(kQueries[0]).ok());
  int64_t baseline = engine->LastQueryTotalTuples();
  EXPECT_GT(baseline, 0);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    for (int i = 0; i < 12; ++i) {
      if (!engine->Run(kQueries[i % 2]).ok()) bad.fetch_add(1);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        // A snapshot is internally consistent: recomputing the total from
        // the returned deque matches the engine's own sum at some published
        // instant; counters are never torn/negative.
        auto metrics = engine->LastQueryMetrics();
        int64_t total = 0;
        for (const auto& m : metrics) {
          if (m.tuples_produced < 0) bad.fetch_add(1);
          total += m.tuples_produced;
        }
        if (!metrics.empty() && total <= 0) bad.fetch_add(1);
        std::this_thread::yield();
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0);
}

// Per-call QueryOptions (the admission-control path) are applied per query,
// not engine-wide — concurrent queries with different budgets don't bleed
// into each other.
TEST_P(EngineConcurrencyTest, PerQueryOptionsAreIsolated) {
  auto engine = MakeEngine(GetParam());
  std::string expected = *engine->Run(kQueries[0]);

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  // Half the threads run with an already-expired deadline (must fail with
  // kDeadlineExceeded), half with no deadline (must succeed byte-exact).
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i) {
        Engine::QueryOptions qo;
        if (t % 2 == 0) qo.timeout_ms = -1;
        auto r = engine->Run(kQueries[0], qo);
        if (t % 2 == 0) {
          if (r.ok() ||
              r.status().code() != StatusCode::kDeadlineExceeded) {
            bad.fetch_add(1);
          }
        } else {
          if (!r.ok() || *r != expected) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(engine->memory().used(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineConcurrencyTest,
    ::testing::Values(Engine::Options::Backend::kPointer,
                      Engine::Options::Backend::kColumnar),
    [](const ::testing::TestParamInfo<Engine::Options::Backend>& info) {
      return info.param == Engine::Options::Backend::kPointer ? "Pointer"
                                                              : "Columnar";
    });

}  // namespace
}  // namespace uload
