// E8 — §1.2.3: stack-based structural join algorithms vs the nested-loop
// baseline. StackTreeDesc/StackTreeAnc are linear in input+output; the
// nested loop is quadratic.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "exec/structural_join.h"
#include "workload/xmark.h"

namespace uload {
namespace {

struct Inputs {
  std::vector<StructuralId> ancestors;
  std::vector<StructuralId> descendants;
};

// Ancestor side: item elements; descendant side: all their keyword
// descendants (both in document order).
Inputs MakeInputs(double scale) {
  const Document& doc = bench::SharedXMark(scale).doc;
  Inputs in;
  for (NodeIndex i = 1; i < doc.size(); ++i) {
    const Node& n = doc.node(i);
    if (!n.is_element()) continue;
    if (n.label == "item") in.ancestors.push_back(n.sid);
    if (n.label == "keyword") in.descendants.push_back(n.sid);
  }
  return in;
}

void BM_StackTreeDesc(benchmark::State& state) {
  Inputs in = MakeInputs(state.range(0) / 10.0);
  for (auto _ : state) {
    auto pairs = StackTreeDesc(in.ancestors, in.descendants,
                               Axis::kDescendant);
    benchmark::DoNotOptimize(pairs.size());
  }
  state.counters["anc"] = static_cast<double>(in.ancestors.size());
  state.counters["desc"] = static_cast<double>(in.descendants.size());
}
BENCHMARK(BM_StackTreeDesc)->Arg(2)->Arg(10)->Arg(40);

void BM_StackTreeAnc(benchmark::State& state) {
  Inputs in = MakeInputs(state.range(0) / 10.0);
  for (auto _ : state) {
    auto pairs = StackTreeAnc(in.ancestors, in.descendants,
                              Axis::kDescendant);
    benchmark::DoNotOptimize(pairs.size());
  }
}
BENCHMARK(BM_StackTreeAnc)->Arg(2)->Arg(10)->Arg(40);

void BM_NestedLoopJoin(benchmark::State& state) {
  Inputs in = MakeInputs(state.range(0) / 10.0);
  for (auto _ : state) {
    auto pairs = NestedLoopStructuralJoin(in.ancestors, in.descendants,
                                          Axis::kDescendant);
    benchmark::DoNotOptimize(pairs.size());
  }
}
BENCHMARK(BM_NestedLoopJoin)->Arg(2)->Arg(10)->Arg(40);

void BM_ParentChildStackTree(benchmark::State& state) {
  const Document& doc = bench::SharedXMark(1.0).doc;
  std::vector<StructuralId> parents;
  std::vector<StructuralId> children;
  for (NodeIndex i = 1; i < doc.size(); ++i) {
    const Node& n = doc.node(i);
    if (!n.is_element()) continue;
    if (n.label == "person") parents.push_back(n.sid);
    if (n.label == "name") children.push_back(n.sid);
  }
  for (auto _ : state) {
    auto pairs = StackTreeAnc(parents, children, Axis::kChild);
    benchmark::DoNotOptimize(pairs.size());
  }
}
BENCHMARK(BM_ParentChildStackTree);

}  // namespace
}  // namespace uload



// --- Pipelined (iterator) execution of a join plan --------------------------

#include "eval/tag_collections.h"
#include "exec/physical.h"

namespace uload {
namespace {

struct PlanFixture {
  const Document& doc;
  NestedRelation people;
  NestedRelation names;
  EvalContext ctx;
  PlanPtr plan;

  explicit PlanFixture(double scale) : doc(bench::SharedXMark(scale).doc) {
    people = TagCollection(doc, "person", {"p", false, false, false});
    names = TagCollection(doc, "name", {"n", false, true, false});
    // Tag collections are built in document order; the binder says so.
    ctx.relations = {{"people", {&people, OrderDescriptor::On("p_ID")}},
                     {"names", {&names, OrderDescriptor::On("n_ID")}}};
    ctx.document = &doc;
    plan = LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                       LogicalPlan::Scan("names"), "p_ID",
                                       Axis::kChild, "n_ID",
                                       JoinVariant::kInner);
  }
};

void BM_PipelinedJoinPlan(benchmark::State& state) {
  PlanFixture f(state.range(0) / 10.0);
  for (auto _ : state) {
    auto r = ExecutePhysicalPlan(f.plan, f.ctx);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_PipelinedJoinPlan)->Arg(2)->Arg(10);

}  // namespace
}  // namespace uload

BENCHMARK_MAIN();
