// Tuple-at-a-time vs batch-at-a-time execution of a structural-join
// pipeline. Batch size 1 degenerates to the classic Open/Next/Close iterator
// model (every NextBatch() call moves one tuple, paying dispatch and
// accounting per tuple); larger batches amortize those costs. The run prints
// throughput per batch size, the 1024-vs-1 speedup, and the EXPLAIN-ANALYZE
// rendering of the executed pipeline.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "eval/tag_collections.h"
#include "exec/memory_tracker.h"
#include "exec/physical.h"
#include "exec/query_control.h"
#include "workload/xmark.h"

namespace uload {
namespace {

struct Pipeline {
  const Document& doc;
  NestedRelation people;
  NestedRelation names;
  NestedRelation emails;
  EvalContext ctx;
  PlanPtr plan;

  explicit Pipeline(double scale) : doc(bench::SharedXMark(scale).doc) {
    people = TagCollection(doc, "person", {"p", false, false, false});
    names = TagCollection(doc, "name", {"n", false, true, false});
    emails = TagCollection(doc, "emailaddress", {"e", false, true, false});
    ctx.relations = {
        {"people", &people}, {"names", &names}, {"emails", &emails}};
    ctx.document = &doc;
    // Two piped structural joins: person parent-of name, then the pairs
    // joined against emailaddress. The outer join's left input arrives
    // ordered on n_ID, so the compiler inserts a Sort_φ enforcer on p_ID —
    // the thesis's structural-join piping at work.
    PlanPtr inner = LogicalPlan::StructuralJoin(
        LogicalPlan::Scan("people"), LogicalPlan::Scan("names"), "p_ID",
        Axis::kChild, "n_ID", JoinVariant::kInner);
    plan = LogicalPlan::StructuralJoin(std::move(inner),
                                       LogicalPlan::Scan("emails"), "p_ID",
                                       Axis::kChild, "e_ID",
                                       JoinVariant::kInner);
  }
};

struct Measurement {
  size_t batch_size;
  double micros;        // one execution, averaged
  int64_t out_tuples;   // result cardinality
  double tuples_per_s;  // result tuples per second
};

Measurement Measure(const Pipeline& p, size_t batch_size, int reps) {
  ExecContext exec(batch_size);
  auto root = CompilePhysicalPlan(p.plan, p.ctx, &exec);
  if (!root.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 root.status().ToString().c_str());
    return {batch_size, 0, 0, 0};
  }
  int64_t out = 0;
  double us = bench::AvgMicros(reps, [&] {
    auto rel = ExecutePhysical(root->get());
    out = rel.ok() ? (*rel).size() : -1;
  });
  return {batch_size, us, out,
          us > 0 ? static_cast<double>(out) / (us / 1e6) : 0};
}

void Run(double scale, int reps) {
  Pipeline p(scale);
  std::printf("scale=%.2f  people=%lld names=%lld emails=%lld\n", scale,
              static_cast<long long>(p.people.size()),
              static_cast<long long>(p.names.size()),
              static_cast<long long>(p.emails.size()));
  std::printf("%-12s %12s %12s %16s %10s\n", "batch_size", "micros/run",
              "out_tuples", "tuples/sec", "speedup");
  Measurement base{};
  for (size_t bs : {size_t{1}, size_t{4}, size_t{32}, size_t{256},
                    size_t{1024}}) {
    Measurement m = Measure(p, bs, reps);
    if (bs == 1) base = m;
    std::printf("%-12zu %12.1f %12lld %16.0f %9.2fx\n", m.batch_size,
                m.micros, static_cast<long long>(m.out_tuples), m.tuples_per_s,
                base.micros > 0 ? base.micros / m.micros : 0.0);
  }
  Measurement batched = Measure(p, TupleBatch::kDefaultCapacity, reps);
  std::printf("\nbatch=1024 vs batch=1 tuple-throughput: %.2fx\n",
              base.tuples_per_s > 0 ? batched.tuples_per_s / base.tuples_per_s
                                    : 0.0);
}

// Governed fused chain: a selection/projection chain over the name
// collection, compiled into one FusedPipeline_φ tuple loop, with the
// resource governor fully armed — active deadline plus memory accounting.
// The loop pays the governor's cancellation/deadline check once per
// pipeline iteration, not once per chain member, so the batch=1 row stays
// close to the batch=1024 row.
void RunFused(double scale, int reps) {
  Pipeline p(scale);
  PlanPtr chain = LogicalPlan::Project(
      LogicalPlan::Select(
          LogicalPlan::Scan("names"),
          Predicate::NotNull("n_Val")),
      {"n_Val"}, /*dedup=*/false);
  std::printf("\ngoverned fused chain (scale=%.2f)\n", scale);
  std::printf("%-20s %12s %12s %16s %10s\n", "config", "micros/run",
              "out_tuples", "tuples/sec", "vs b=1");
  double base_us = 0;
  for (size_t batch : {size_t{1}, size_t{1024}}) {
    ExecContext exec(batch);
    auto control = std::make_shared<QueryControl>();
    control->set_deadline_ns(QueryControl::NowNs() +
                             int64_t{3600} * 1'000'000'000);
    MemoryTracker mem("bench-fused", int64_t{4} << 30);
    exec.set_control(control);
    exec.set_memory_tracker(&mem);
    auto root = CompilePhysicalPlan(chain, p.ctx, &exec);
    if (!root.ok()) {
      std::fprintf(stderr, "compile failed: %s\n",
                   root.status().ToString().c_str());
      return;
    }
    int64_t out = 0;
    double us = bench::AvgMicros(reps, [&] {
      auto rel = ExecutePhysical(root->get());
      out = rel.ok() ? (*rel).size() : -1;
    });
    if (batch == 1) base_us = us;
    char config[64];
    std::snprintf(config, sizeof(config), "fused b=%zu", batch);
    std::printf("%-20s %12.1f %12lld %16.0f %9.2fx\n", config, us,
                static_cast<long long>(out),
                us > 0 ? static_cast<double>(out) / (us / 1e6) : 0.0,
                us > 0 ? base_us / us : 0.0);
  }
}

void ShowAnalyze(double scale) {
  Pipeline p(scale);
  ExecContext exec;
  auto root = CompilePhysicalPlan(p.plan, p.ctx, &exec);
  if (!root.ok()) return;
  auto rel = ExecutePhysical(root->get());
  if (!rel.ok()) return;
  std::printf("\nEXPLAIN ANALYZE (batch=%zu, %lld result tuples):\n%s",
              exec.batch_size(), static_cast<long long>((*rel).size()),
              (*root)->DescribeAnalyze().c_str());
}

}  // namespace
}  // namespace uload

int main() {
  uload::bench::Header("E-exec: batch-at-a-time structural-join pipeline");
  uload::Run(/*scale=*/0.5, /*reps=*/5);
  uload::Run(/*scale=*/2.0, /*reps=*/3);
  uload::RunFused(/*scale=*/20.0, /*reps=*/5);
  uload::ShowAnalyze(/*scale=*/0.5);
  return 0;
}
