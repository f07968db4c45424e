// End-to-end serving-path benchmark: rewritten XMark queries executed
// through the streaming engine (one combined plan through the batched
// physical executor), swept over batch sizes and thread budgets. Every
// answer is checked byte for byte against the direct XQuery interpreter
// (EvaluateQueryDirect) before it is timed; a mismatch exits 1. Prints
// per-query timings relative to the default configuration and the
// EXPLAIN-ANALYZE rendering of the serving plan. A `prepare` row per query
// times Engine::Prepare, the rewriting half of Engine::Run that the
// execution rows exclude.
//
// Run with --smoke for the CI leg: one iteration over a tiny document.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "exec/physical.h"
#include "workload/xmark.h"
#include "xml/serialize.h"
#include "xquery/interp.h"
#include "xquery/parser.h"

namespace uload {
namespace {

struct QuerySpec {
  const char* name;
  const char* text;
};

const QuerySpec kQueries[] = {
    {"person_names",
     "for $x in doc(\"x\")//people/person return <p>{$x/name/text()}</p>"},
    {"auction_prices",
     "for $x in doc(\"x\")//closed_auction where $x/price > 100 "
     "return <p>{$x/price/text()}</p>"},
    {"item_locations",
     "for $x in doc(\"x\")//item return <l>{$x/location/text()}</l>"},
    // Selection/navigation-heavy: the scan → navigate → select prefix runs
    // over every person but only ~10% survive the predicate, so execution
    // (the fusable chain) dominates and serialization is marginal.
    {"smith_people",
     "for $x in doc(\"x\")//person where $x/name contains \"Smith\" "
     "return <p>{$x/name/text()}</p>"},
    // Selection-heavy over a materialized extent: the price view already
    // carries the text value, so the rewritten plan is a pure
    // scan → rename → select chain with no per-tuple navigation (the
    // predicate fuses INTO the scan loop), and the ~8% selectivity keeps
    // serialization marginal.
    {"pricey_auctions",
     "for $x in doc(\"x\")//closed_auction/price where $x > 290 "
     "return <p>{$x/text()}</p>"},
};

// An engine over a copy of `doc` with the tag-partitioned model installed.
std::unique_ptr<Engine> MakeEngine(const Document& doc,
                                   Engine::Options::Backend backend) {
  Engine::Options o;
  o.backend = backend;
  auto engine = std::make_unique<Engine>(Document(doc), o);
  auto st = engine->InstallModel(TagPartitionedModel(engine->summary()));
  if (!st.ok()) {
    std::fprintf(stderr, "install: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return engine;
}

// Engine::Execute with a fresh per-call configuration.
Result<std::string> ExecuteWith(Engine* engine,
                                const Engine::PreparedQuery& prepared,
                                size_t batch, size_t threads) {
  Engine::QueryOptions q;
  q.batch_size = batch;
  q.thread_budget = threads;
  return engine->Execute(prepared, q);
}

// The direct interpreter's answer: the oracle every timed answer must
// equal.
Result<std::string> DirectAnswer(const char* text, const Document& doc) {
  ULOAD_ASSIGN_OR_RETURN(ExprPtr ast, ParseQuery(text));
  return EvaluateQueryDirect(*ast, doc);
}

int Run(double scale, int reps) {
  const bench::Workload& w = bench::SharedXMark(scale);
  const Document& doc = w.doc;
  std::unique_ptr<Engine> engine =
      MakeEngine(doc, Engine::Options::Backend::kPointer);
  if (engine == nullptr) return 1;

  bench::Header("query end-to-end: streaming engine");
  std::printf("xmark scale %.2f, %d rep(s)\n", scale, reps);
  std::printf("%-16s %-22s %12s %10s\n", "query", "config", "micros",
              "vs *");

  const size_t kBatchSizes[] = {1, 64, 1024};
  const size_t kThreadBudgets[] = {1, 4};
  // batch=1 is the deliberate anti-pattern config: every per-batch fixed
  // cost (virtual dispatch, accounting, batch allocation) is paid per tuple.
  // The engine's operating point is the default batch capacity.
  const size_t kDefaultBatch = TupleBatch::kDefaultCapacity;
  // Every row times execution of a query prepared (rewritten, planned,
  // verified) once outside the timed loop: rewriting is identical across
  // configurations, and Engine::Run's full cost is what perfbench measures.
  for (const QuerySpec& q : kQueries) {
    auto r = engine->Prepare(q.text);
    if (!r.ok()) {
      std::fprintf(stderr, "%s: prepare: %s\n", q.name,
                   r.status().ToString().c_str());
      return 1;
    }
    auto direct = DirectAnswer(q.text, doc);
    if (!direct.ok()) {
      std::fprintf(stderr, "%s: direct evaluation: %s\n", q.name,
                   direct.status().ToString().c_str());
      return 1;
    }
    // Times `exec` over the query and checks its last answer against the
    // interpreter; false on a mismatch.
    auto timed = [&](const char* what, double* micros,
                     const std::function<Result<std::string>()>& exec) {
      std::string out;
      *micros = bench::AvgMicros(reps, [&] {
        auto res = exec();
        if (res.ok()) out = std::move(*res);
      });
      if (out != *direct) {
        std::fprintf(stderr, "%s: %s result diverges from direct evaluation\n",
                     q.name, what);
        return false;
      }
      return true;
    };

    double sweep[2][3];
    for (size_t ti = 0; ti < 2; ++ti) {
      for (size_t bi = 0; bi < 3; ++bi) {
        if (!timed("streaming", &sweep[ti][bi], [&] {
              return ExecuteWith(engine.get(), *r, kBatchSizes[bi],
                                 kThreadBudgets[ti]);
            })) {
          return 1;
        }
      }
    }
    const double default_micros = sweep[0][2];
    auto vs_default = [&](double micros) {
      return micros > 0 ? default_micros / micros : 0.0;
    };
    for (size_t ti = 0; ti < 2; ++ti) {
      for (size_t bi = 0; bi < 3; ++bi) {
        const size_t batch = kBatchSizes[bi];
        const size_t threads = kThreadBudgets[ti];
        char config[64];
        std::snprintf(config, sizeof(config), "stream b=%zu t=%zu%s", batch,
                      threads,
                      batch == kDefaultBatch && threads == 1 ? " *" : "");
        std::printf("%-16s %-22s %12.1f %9.2fx\n", q.name, config,
                    sweep[ti][bi], vs_default(sweep[ti][bi]));
      }
    }

    // Governor overhead: the starred configuration with the resource
    // governor fully armed — an active deadline checked at every batch
    // boundary plus per-operator memory accounting against a (generous)
    // budget — versus the ungoverned starred row above. At the default
    // batch size the per-batch checks amortize over ~1k tuples, so the
    // delta must stay below run-to-run noise (EXPERIMENTS.md §PR5).
    {
      Engine::QueryOptions governed;
      governed.batch_size = kDefaultBatch;
      governed.thread_budget = 1;
      // Active-but-distant deadline: the comparison is never cheaper than
      // what a real governed query pays.
      governed.timeout_ms = int64_t{3600} * 1000;
      governed.memory_limit_bytes = int64_t{4} << 30;
      double micros = 0;
      if (!timed("governed", &micros,
                 [&] { return engine->Execute(*r, governed); })) {
        return 1;
      }
      if (engine->memory().used() != 0) {
        std::fprintf(stderr, "%s: governor leaked %lld bytes\n", q.name,
                     static_cast<long long>(engine->memory().used()));
        return 1;
      }
      std::printf("%-16s %-22s %12.1f %9.2fx (vs * %+5.1f%%)\n", q.name,
                  "stream governed", micros, vs_default(micros),
                  default_micros > 0
                      ? (micros - default_micros) / default_micros * 100.0
                      : 0.0);
    }

    // Verifier overhead: the default configuration with static plan
    // verification (verify/plan_verifier.h) switched off. The logical plan
    // is verified once in Prepare, outside the timed loop; the delta
    // against the starred row above is the physical verification that
    // every compile pays.
    {
      Engine::Options o = engine->options();
      o.verify = false;
      engine->SetOptions(o);
      double micros = 0;
      bool same = timed("unverified", &micros, [&] {
        return ExecuteWith(engine.get(), *r, kDefaultBatch, 1);
      });
      o.verify = true;
      engine->SetOptions(o);
      if (!same) return 1;
      std::printf("%-16s %-22s %12.1f %9.2fx\n", q.name, "stream no-verify",
                  micros, vs_default(micros));
    }

    // The front half every Engine::Run pays and the rows above leave out:
    // Engine::Prepare parses, translates, rewrites over the views, builds
    // the plan and verifies it. Its ratio to the starred row is how much
    // more a query costs than its execution.
    {
      bool prepared = true;
      double micros = bench::AvgMicros(reps, [&] {
        prepared = engine->Prepare(q.text).ok() && prepared;
      });
      if (!prepared) {
        std::fprintf(stderr, "%s: prepare failed\n", q.name);
        return 1;
      }
      std::printf("%-16s %-22s %12.1f %9.2fx of *\n", q.name, "prepare",
                  micros, default_micros > 0 ? micros / default_micros : 0.0);
    }
  }
  std::printf("(* = default engine configuration)\n");

  // Backend comparison (E12): the same queries, the same storage model, the
  // same executor — only Options::backend differs. Over the columnar store
  // the simple tag collections run as virtual extents (ColumnarScan_φ
  // sources streaming rows off the column arrays); over the
  // pointer backend they are materialized relations. Results are checked
  // byte-identical before any timing is reported.
  bench::Header("backend comparison: pointer tree vs columnar store");
  std::printf("%-16s %-22s %12s %12s\n", "query", "config", "micros",
              "vs pointer");
  std::unique_ptr<Engine> col_engine =
      MakeEngine(doc, Engine::Options::Backend::kColumnar);
  if (col_engine == nullptr) return 1;
  for (const QuerySpec& q : kQueries) {
    // Prepare once per backend outside the timed region: the comparison is
    // scan/execution throughput, not rewriting.
    auto r_ptr = engine->Prepare(q.text);
    auto r_col = col_engine->Prepare(q.text);
    if (!r_ptr.ok() || !r_col.ok()) {
      std::fprintf(stderr, "%s: prepare failed\n", q.name);
      return 1;
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      std::string pointer_out;
      std::string columnar_out;
      double pointer_us = bench::AvgMicros(reps, [&] {
        auto out = ExecuteWith(engine.get(), *r_ptr, kDefaultBatch, threads);
        if (out.ok()) pointer_out = std::move(*out);
      });
      double columnar_us = bench::AvgMicros(reps, [&] {
        auto out =
            ExecuteWith(col_engine.get(), *r_col, kDefaultBatch, threads);
        if (out.ok()) columnar_out = std::move(*out);
      });
      // Byte-equality only: a query may legitimately match nothing at smoke
      // scale (the highly selective smith_people), so emptiness is not an
      // error — the tier-1 differential tests enforce non-trivial results.
      if (pointer_out != columnar_out) {
        std::fprintf(stderr, "%s: columnar result diverges from pointer\n",
                     q.name);
        return 1;
      }
      char config[64];
      std::snprintf(config, sizeof(config), "pointer  t=%zu", threads);
      std::printf("%-16s %-22s %12.1f %12s\n", q.name, config, pointer_us,
                  "1.00x");
      std::snprintf(config, sizeof(config), "columnar t=%zu", threads);
      std::printf("%-16s %-22s %12.1f %11.2fx\n", q.name, config, columnar_us,
                  columnar_us > 0 ? pointer_us / columnar_us : 0.0);
    }
  }

  // Raw scan throughput (E12): a bare Scan over large tag views, compiled
  // through the physical executor for both backends. The pointer backend
  // streams copies out of the materialized NestedRelation (Scan_phi); the
  // columnar backend builds the same tuples on the fly from the column
  // arrays (ColumnarScan_phi over the virtual extent). A bare scan places
  // no exchange, so the t=4 rows run serially too. tag_name/tag_location
  // are leaf-tag views (values
  // dictionary-backed → stays virtual); tag_item has element children, so
  // on the columnar backend it falls back to one-time materialization and
  // the two legs converge.
  bench::Header("scan throughput: materialized view vs virtual extent");
  std::printf("%-16s %-22s %12s %12s %14s\n", "view", "config", "micros",
              "vs pointer", "tuples/ms");
  for (const char* view_name : {"tag_name", "tag_location", "tag_item"}) {
    double pointer_base = 0;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      struct Leg {
        const char* label;
        const Engine* engine;
      } legs[] = {{"pointer", engine.get()}, {"columnar", col_engine.get()}};
      for (const Leg& leg : legs) {
        EvalContext ctx = leg.engine->catalog().MakeEvalContext(
            &leg.engine->store());
        ExecContext exec(kDefaultBatch);
        exec.set_thread_budget(threads);
        PlanPtr plan = LogicalPlan::Scan(view_name);
        int64_t tuples = 0;
        bool failed = false;
        double micros = bench::AvgMicros(reps, [&] {
          exec.ClearMetrics();
          tuples = 0;
          auto root = CompilePhysicalPlan(plan, ctx, &exec);
          Status st = root.status();
          if (root.ok()) {
            st = DrainPhysical(root->get(), [&tuples](TupleBatch& b) {
              tuples += static_cast<int64_t>(b.size());
              return Status::Ok();
            });
          }
          if (!st.ok()) failed = true;
        });
        if (failed || tuples == 0) {
          std::fprintf(stderr, "%s: scan failed\n", view_name);
          return 1;
        }
        if (threads == 1 && leg.engine == engine.get()) pointer_base = micros;
        char config[64];
        std::snprintf(config, sizeof(config), "%-8s t=%zu", leg.label,
                      threads);
        std::printf("%-16s %-22s %12.1f %11.2fx %14.0f\n", view_name, config,
                    micros, micros > 0 ? pointer_base / micros : 0.0,
                    micros > 0 ? tuples / (micros / 1000.0) : 0.0);
      }
    }
  }

  // Cold-start comparison (E12): restoring a Save()d engine (mmap + header
  // validation + summary deserialize) against re-ingesting the document
  // from XML text (parse + summary build).
  {
    bench::Header("cold start: persisted columnar load vs XML re-parse");
    std::string xml = SerializeSubtree(doc, doc.root());
    const std::string path = "/tmp/bench_query_e2e.uldcol";
    Engine::Options co;
    co.backend = Engine::Options::Backend::kColumnar;
    Engine saver(Document(doc), co);
    if (auto st = saver.Save(path); !st.ok()) {
      std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
      return 1;
    }
    int64_t sink = 0;
    double parse_us = bench::AvgMicros(reps, [&] {
      auto d = Document::Parse(xml);
      if (d.ok()) {
        Document parsed = std::move(*d);
        PathSummary s = PathSummary::Build(&parsed);
        sink += s.size();
      }
    });
    double load_us = bench::AvgMicros(reps, [&] {
      auto e = Engine::Load(path);
      if (e.ok()) sink += (*e)->store().size();
    });
    if (sink == 0) {
      std::fprintf(stderr, "cold start: parse or load failed\n");
      return 1;
    }
    std::printf("%-28s %12.1f us\n", "re-parse + summary build", parse_us);
    std::printf("%-28s %12.1f us  (%.1fx faster, %zu-byte XML)\n",
                "Engine::Load (mmap)", load_us,
                load_us > 0 ? parse_us / load_us : 0.0, xml.size());
    std::remove(path.c_str());
  }

  // EXPLAIN ANALYZE of the serving path for the first query.
  auto ex = engine->ExplainAnalyze(kQueries[0].text);
  if (!ex.ok()) {
    std::fprintf(stderr, "explain analyze: %s\n",
                 ex.status().ToString().c_str());
    return 1;
  }
  bench::Header("explain analyze (streaming serving path)");
  std::printf("%s", ex->physical.c_str());
  return 0;
}

}  // namespace
}  // namespace uload

int main(int argc, char** argv) {
  bool smoke = false;
  double scale = 0;
  int reps = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
      scale = std::atof(argv[++i]);
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::atoi(argv[++i]);
  }
  // Default scale yields thousands of matching tuples per query so the
  // measurement reflects execution, not per-query fixed overhead.
  if (scale <= 0) scale = smoke ? 0.02 : 20.0;
  if (reps <= 0) reps = smoke ? 1 : 5;
  return uload::Run(scale, reps);
}
