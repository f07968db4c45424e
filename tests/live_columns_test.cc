// Live-column pruning (exec/physical.cc, exec/fusion.h; DESIGN §11): an
// inline source copies only the columns some consumer above it reads, in
// fused chains and across pipeline breakers. Each test checks what a
// source keeps (the pipeline's source schema) and that the answer equals
// the materializing test oracle's. Also here: Navigate_φ's document walk
// over attributes, text and Dewey anchors on both document backends, and
// the hash join's table counting toward the query's memory limit.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "eval/tag_collections.h"
#include "exec/fusion.h"
#include "exec/memory_tracker.h"
#include "exec/physical.h"
#include "storage/columnar/columnar_document.h"
#include "storage/store.h"
#include "support/evaluator.h"
#include "workload/xmark.h"
#include "xam/xam_parser.h"

namespace uload {
namespace {

// The source schema of the first inline-source pipeline in `op`'s tree
// whose source is labelled `source`, or "<none>".
std::string SourceSchema(const PhysicalOperator& op,
                         const std::string& source) {
  if (op.kind() == PhysOpKind::kFusedPipeline &&
      op.label().rfind("FusedPipeline_phi[" + source, 0) == 0) {
    return static_cast<const FusedPipelinePhys&>(op)
        .source_schema()
        ->ToString();
  }
  for (const PhysicalOperator* c : op.children()) {
    std::string s = SourceSchema(*c, source);
    if (s != "<none>") return s;
  }
  return "<none>";
}

class LiveColumnsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = GenerateXMark(XMarkScale(0.05));
    // One container row whose Val and Cont hold the whole <people> subtree.
    containers_ = TagCollection(doc_, "people", {"c", true, true, true});
    people_ = TagCollection(doc_, "person", {"p", true, true, false});
    names_ = TagCollection(doc_, "name", {"n", true, true, false});
    ctx_.relations = {
        {"containers", {&containers_, OrderDescriptor::On("c_ID")}},
        {"people", {&people_, OrderDescriptor::On("p_ID")}},
        {"names", {&names_, OrderDescriptor::On("n_ID")}}};
    ctx_.document = &doc_;
  }

  // Compiles `plan`, checks its answer against the oracle tuple for tuple,
  // and returns the compiled tree, for inspection only: it was bound to an
  // ExecContext that is gone.
  PhysicalPtr CheckAgainstOracle(const PlanPtr& plan,
                                 const EvalContext& ctx) {
    ExecContext exec;
    auto phys = CompilePhysicalPlan(plan, ctx, &exec);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    if (!phys.ok()) return nullptr;
    auto got = ExecutePhysical(phys->get());
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    auto want = Evaluate(*plan, ctx);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    if (got.ok() && want.ok()) {
      EXPECT_GT(want->size(), 0);
      EXPECT_TRUE(got->Equals(*want))
          << "physical rows=" << got->size()
          << " oracle rows=" << want->size() << "\n"
          << (*phys)->Describe();
    }
    return std::move(*phys);
  }
  PhysicalPtr CheckAgainstOracle(const PlanPtr& plan) {
    return CheckAgainstOracle(plan, ctx_);
  }

  // person/name below each container, with its id and value.
  static PlanPtr NamesOfContainers() {
    NavEmit emit;
    emit.id = true;
    emit.val = true;
    emit.prefix = "nm";
    return LogicalPlan::Navigate(
        LogicalPlan::Scan("containers"), "c_ID",
        {NavStep{Axis::kChild, "person"}, NavStep{Axis::kChild, "name"}},
        emit);
  }

  Document doc_;
  NestedRelation containers_;
  NestedRelation people_;
  NestedRelation names_;
  EvalContext ctx_;
};

TEST_F(LiveColumnsTest, NavigateSourceKeepsOnlyTheAnchorId) {
  // The repeat_large shape: navigate from a container row and project the
  // reached nodes. The container's Tag, Val and Cont are dead.
  PhysicalPtr phys = CheckAgainstOracle(LogicalPlan::Project(
      NamesOfContainers(), {"nm_ID", "nm_Val"}, /*dedup=*/true));
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(phys->Describe(),
            "FusedPipeline_phi[Scan_phi(containers) -> "
            "Navigate_phi[c_ID] -> Project0_phi]\n");
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(containers)"), "c_ID");
}

TEST_F(LiveColumnsTest, PruningCrossesPipelineBreakers) {
  // Sort_φ's input: the sort key and what the projection above reads.
  PhysicalPtr phys = CheckAgainstOracle(LogicalPlan::Project(
      LogicalPlan::SortOp(NamesOfContainers(), {"nm_Val"}), {"nm_ID"},
      /*dedup=*/false));
  ASSERT_NE(phys, nullptr);
  EXPECT_NE(phys->Describe().find("Sort_phi"), std::string::npos);
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(containers)"), "c_ID");

  // A structural join's inputs: each side's join id plus what is read.
  phys = CheckAgainstOracle(LogicalPlan::Project(
      LogicalPlan::StructuralJoin(LogicalPlan::Scan("containers"),
                                  LogicalPlan::Scan("names"), "c_ID",
                                  Axis::kDescendant, "n_ID",
                                  JoinVariant::kInner),
      {"n_Val"}, /*dedup=*/false));
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(containers)"), "c_ID");
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(names)"), "n_ID, n_Val");

  // A semijoin reads only the right side's join id.
  phys = CheckAgainstOracle(LogicalPlan::Project(
      LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                  LogicalPlan::Scan("names"), "p_ID",
                                  Axis::kChild, "n_ID", JoinVariant::kSemi),
      {"p_Val"}, /*dedup=*/false));
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(people)"), "p_ID, p_Val");
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(names)"), "n_ID");

  // A nest variant keeps its right side whole: collections are not pruned.
  phys = CheckAgainstOracle(LogicalPlan::Project(
      LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                  LogicalPlan::Scan("names"), "p_ID",
                                  Axis::kChild, "n_ID",
                                  JoinVariant::kNestOuter, "ns"),
      {"p_ID", "ns"}, /*dedup=*/false));
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(people)"), "p_ID");
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(names)"), "n_ID, n_Tag, n_Val");

  // A value join's build and probe sides.
  phys = CheckAgainstOracle(LogicalPlan::Project(
      LogicalPlan::ValueJoin(LogicalPlan::Scan("people"),
                             LogicalPlan::Scan("names"), "p_Val",
                             Comparator::kNe, "n_Val", JoinVariant::kInner),
      {"p_ID"}, /*dedup=*/true));
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(people)"), "p_ID, p_Val");
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(names)"), "n_Val");

  // A product reads each side's live columns.
  phys = CheckAgainstOracle(LogicalPlan::Project(
      LogicalPlan::Product(LogicalPlan::Scan("containers"),
                           LogicalPlan::Scan("names")),
      {"n_Val"}, /*dedup=*/false));
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(containers)"), "");
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(names)"), "n_Val");
}

TEST_F(LiveColumnsTest, PositionalOperatorsKeepEveryColumn) {
  // Union and Retype work by position: their inputs are never pruned.
  PhysicalPtr phys = CheckAgainstOracle(LogicalPlan::Project(
      LogicalPlan::Union(LogicalPlan::Scan("names"),
                         LogicalPlan::Scan("names")),
      {"n_ID"}, /*dedup=*/false));
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(names)"), "n_ID, n_Tag, n_Val");

  phys = CheckAgainstOracle(LogicalPlan::Project(
      LogicalPlan::Retype(LogicalPlan::Scan("names"),
                          Schema::Make({Attribute::Atomic("a"),
                                        Attribute::Atomic("b"),
                                        Attribute::Atomic("c")})),
      {"c"}, /*dedup=*/false));
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(names)"), "n_ID, n_Tag, n_Val");
}

TEST_F(LiveColumnsTest, PrefilterResolvesAgainstTheStoredRow) {
  // The first Select, behind a rename, runs on the stored row before the
  // source copies anything. The source keeps ID and Val and drops the Tag
  // between them, so the predicate's Val is at stored position 2 but at
  // position 1 of what the pipeline sees.
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(
          LogicalPlan::PrefixNames(LogicalPlan::Scan("names"), "x"),
          Predicate::CompareConst("xn_Val", Comparator::kContainsWord,
                                  AtomicValue::String("vintage"))),
      {"xn_ID", "xn_Val"}, /*dedup=*/false);
  PhysicalPtr phys = CheckAgainstOracle(plan);
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(phys->Describe(),
            "FusedPipeline_phi[Scan_phi(names) -> Rename_phi -> "
            "Select_phi[xn_Val contains \"vintage\"] -> Project_phi]\n");
  EXPECT_EQ(SourceSchema(*phys, "Scan_phi(names)"), "n_ID, n_Val");

  // The same through an index binding (IndexScan_φ's row-list source).
  EvalContext ctx = ctx_;
  ctx.index_bind = [this](const std::string& relation,
                          const std::vector<std::pair<std::string,
                                                      AtomicValue>>&)
      -> Result<IndexBinding> {
    if (relation != "names") return Status::NotFound(relation);
    IndexBinding b;
    b.data = &names_;
    for (int64_t i = 0; i < names_.size(); i += 2) b.rows.push_back(i);
    return b;
  };
  auto ix = CompilePhysicalPlan(
      LogicalPlan::Project(
          LogicalPlan::Select(
              LogicalPlan::PrefixNames(LogicalPlan::IndexScan("names", {}),
                                       "x"),
              Predicate::NotNull("xn_Val")),
          {"xn_Val"}, /*dedup=*/false),
      ctx);
  ASSERT_TRUE(ix.ok()) << ix.status().ToString();
  EXPECT_EQ(SourceSchema(**ix, "IndexScan_phi(names)"), "n_Val");
  auto rows = ExecutePhysical(ix->get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), (names_.size() + 1) / 2);
  for (int64_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ(rows->tuple(i).fields[0].atom(),
              names_.tuple(2 * i).fields[2].atom());
  }
}

TEST_F(LiveColumnsTest, ColumnarSourceDecodesOnlyLiveColumns) {
  // A virtual columnar extent assembles only the kept columns, and still
  // advertises its declared document order on its ID for the structural
  // join above it.
  ColumnarDocument col = ColumnarDocument::FromDocument(doc_);
  auto xam = ParseXam("xam\nnode n label=name id=s tag val\nedge top // j n\n");
  ASSERT_TRUE(xam.ok()) << xam.status().ToString();
  auto view = MaterializedView::Materialize("cnames", std::move(*xam), col);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_NE(view->virtual_store(), nullptr);
  EvalContext ctx;
  ctx.relations = {{"people", {&people_, OrderDescriptor::On("p_ID")}}};
  ctx.views = {{"cnames", &*view}};
  ctx.document = &col;

  PlanPtr vals = LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("cnames"),
                          Predicate::CompareConst(
                              "n_Val", Comparator::kContainsWord,
                              AtomicValue::String("vintage"))),
      {"n_ID"}, /*dedup=*/false);
  PhysicalPtr phys = CheckAgainstOracle(vals, ctx);
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(SourceSchema(*phys, "ColumnarScan_phi(cnames)"), "n_ID, n_Val");

  PlanPtr join = LogicalPlan::Project(
      LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                  LogicalPlan::Scan("cnames"), "p_ID",
                                  Axis::kChild, "n_ID", JoinVariant::kInner),
      {"p_Val", "n_ID"}, /*dedup=*/false);
  phys = CheckAgainstOracle(join, ctx);
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(SourceSchema(*phys, "ColumnarScan_phi(cnames)"), "n_ID");
  EXPECT_EQ(phys->Describe().find("Sort_phi"), std::string::npos)
      << phys->Describe();
  // The same answer as over the materialized collection.
  auto want = ExecutePhysicalPlan(
      LogicalPlan::Project(
          LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                      LogicalPlan::Scan("names"), "p_ID",
                                      Axis::kChild, "n_ID",
                                      JoinVariant::kInner),
          {"p_Val", "n_ID"}, /*dedup=*/false),
      ctx_);
  auto got = ExecutePhysicalPlan(join, ctx);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_TRUE(got->Equals(*want));
}

// --- Navigate_φ's document walk ------------------------------------------------

TEST(NavigateWalkTest, StepsAgreeWithTheOracleOnBothBackends) {
  auto parsed = Document::Parse(
      "<r a=\"1\"><p id=\"x\" k=\"2\">t1<q>u</q>t2<q/>"
      "<s b=\"3\">v<q b=\"4\">w</q></s></p><p/>"
      "<p id=\"y\">z<p><q>deep</q></p></p></r>");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Document doc = std::move(parsed).value();
  ColumnarDocument col = ColumnarDocument::FromDocument(doc);
  NestedRelation sids = TagCollection(doc, "p", {"p", false, false, false});
  NestedRelation deweys = TagCollection(
      doc, "p", {"p", false, false, false, IdKind::kParental});
  ASSERT_EQ(sids.size(), 4);

  const std::vector<std::vector<NavStep>> paths = {
      {{Axis::kChild, "@id"}},
      {{Axis::kChild, "#text"}},
      {{Axis::kChild, ""}},
      {{Axis::kDescendant, "q"}},
      {{Axis::kDescendant, "#text"}},
      {{Axis::kDescendant, "@b"}},
      {{Axis::kDescendant, ""}, {Axis::kChild, "#text"}},
      {{Axis::kChild, "s"}, {Axis::kDescendant, "@b"}},
  };
  for (const DocumentStore* store :
       {static_cast<const DocumentStore*>(&doc),
        static_cast<const DocumentStore*>(&col)}) {
    for (const NestedRelation* anchors : {&sids, &deweys}) {
      EvalContext ctx;
      ctx.relations = {{"anchors", anchors}};
      ctx.document = store;
      for (size_t k = 0; k < paths.size(); ++k) {
        NavEmit emit;
        emit.id = true;
        emit.tag = true;
        emit.val = true;
        emit.cont = true;
        emit.prefix = "m";
        emit.id_kind = anchors == &deweys ? IdKind::kParental
                                          : IdKind::kStructural;
        PlanPtr plan = LogicalPlan::Navigate(LogicalPlan::Scan("anchors"),
                                             "p_ID", paths[k], emit,
                                             JoinVariant::kLeftOuter);
        std::string where = std::string(store->backend_name()) + " path " +
                            std::to_string(k) +
                            (anchors == &deweys ? " dewey" : " sid");
        auto got = ExecutePhysicalPlan(plan, ctx);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
        auto want = Evaluate(*plan, ctx);
        ASSERT_TRUE(want.ok()) << where << ": " << want.status().ToString();
        EXPECT_TRUE(got->Equals(*want)) << where << "\n"
                                        << got->ToString() << "\nvs\n"
                                        << want->ToString();
        EXPECT_GT(got->size(), 0) << where;
      }
    }
  }
}

TEST(NavigateWalkTest, DeweyAnchorsOutsideTheDocumentReachNothing) {
  auto parsed = Document::Parse("<r><a/><b><c/></b></r>");
  ASSERT_TRUE(parsed.ok());
  Document doc = std::move(parsed).value();
  ColumnarDocument col = ColumnarDocument::FromDocument(doc);
  NestedRelation anchors(Schema::Make({Attribute::Atomic("x_ID")}));
  for (const DeweyId& d : {DeweyId{1, 2}, DeweyId{1, 3}, DeweyId{1, 0},
                           DeweyId{2}, DeweyId{1, 2, 1, 1}}) {
    anchors.Add(Tuple{{Field(AtomicValue::Dewey(d))}});
  }
  NavEmit emit;
  emit.id = true;
  emit.prefix = "m";
  emit.id_kind = IdKind::kParental;
  PlanPtr plan = LogicalPlan::Navigate(LogicalPlan::Scan("anchors"), "x_ID",
                                       {{Axis::kDescendant, ""}}, emit,
                                       JoinVariant::kNestOuter);
  for (const DocumentStore* store :
       {static_cast<const DocumentStore*>(&doc),
        static_cast<const DocumentStore*>(&col)}) {
    EvalContext ctx;
    ctx.relations = {{"anchors", &anchors}};
    ctx.document = store;
    auto got = ExecutePhysicalPlan(plan, ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = Evaluate(*plan, ctx);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(got->Equals(*want)) << store->backend_name();
    // Only 1.2 (<b>) has a descendant element.
    ASSERT_EQ(got->size(), 5);
    for (int64_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ(got->tuple(i).fields[1].collection().size(), i == 0 ? 1u : 0u)
          << store->backend_name() << " anchor " << i;
    }
  }
}

// --- Memory accounting -------------------------------------------------------

TEST(HashJoinMemoryTest, HashTableCountsTowardTheMemoryLimit) {
  // A per-query memory limit (Engine::Options::memory_limit_bytes) is a
  // MemoryTracker with that limit. The build side holds its tuples and its
  // hash table until Close, so both count: here the table is about as large
  // as the tuples, and a limit of 1.5x the tuples' bytes must refuse the
  // join, while 4x admits it.
  NestedRelation build(Schema::Make({Attribute::Atomic("r_Val")}));
  for (int i = 0; i < 2000; ++i) {
    build.Add(Tuple{{Field(AtomicValue::String(
        "key-" + std::to_string(i) + std::string(40, 'x')))}});
  }
  NestedRelation probe(Schema::Make({Attribute::Atomic("l_Val")}));
  probe.Add(build.tuple(7));
  EvalContext ctx;
  ctx.relations = {{"l", &probe}, {"r", &build}};
  PlanPtr join = LogicalPlan::ValueJoin(LogicalPlan::Scan("l"),
                                        LogicalPlan::Scan("r"), "l_Val",
                                        Comparator::kEq, "r_Val",
                                        JoinVariant::kInner);
  const int64_t tuple_bytes = ApproxTupleListBytes(build.tuples());
  {
    MemoryTracker mem("join", tuple_bytes * 3 / 2);
    ExecContext exec;
    exec.set_memory_tracker(&mem);
    auto got = ExecutePhysicalPlan(join, ctx, &exec);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
        << got.status().ToString();
    EXPECT_EQ(mem.used(), 0);
  }
  {
    MemoryTracker mem("join", tuple_bytes * 4);
    ExecContext exec;
    exec.set_memory_tracker(&mem);
    auto got = ExecutePhysicalPlan(join, ctx, &exec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), 1);
    EXPECT_GT(mem.peak(), tuple_bytes * 3 / 2);
    EXPECT_EQ(mem.used(), 0);
  }
}

}  // namespace
}  // namespace uload
