// E7 — Chapter 2's motivation: the same query over different storage
// models. The optimizer only sees the XAM set; the resulting plans (QEP1 /
// QEP6 / QEP7 / QEP9 / QEP11 analogues) differ in shape and cost:
//  * inlined shredding answers q from one relation;
//  * tag partitioning needs structural joins;
//  * path partitioning needs structural joins but touches less data;
//  * non-fragmented (blob) storage answers content queries without joins;
//  * a composite-key index answers the selective query by a lookup.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "eval/xam_eval.h"
#include "exec/physical.h"
#include "rewrite/rewriter.h"
#include "storage/catalog.h"
#include "storage/columnar/columnar_document.h"
#include "xam/xam_parser.h"
#include "xml/document.h"

namespace uload {
namespace {

// A bib-style document: books with one title/year and 1-3 authors, plus
// document-centric sections inside each book body (for q').
Document MakeBib(int books) {
  Document doc;
  NodeIndex bib = doc.AddNode(NodeKind::kElement, "bib", "",
                              doc.document_node());
  uint32_t state = 99;
  auto next = [&]() {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
  };
  auto leaf = [&](NodeIndex parent, const std::string& tag,
                  const std::string& text) {
    doc.AddNode(NodeKind::kText, "#text", text,
                doc.AddNode(NodeKind::kElement, tag, "", parent));
  };
  for (int i = 0; i < books; ++i) {
    NodeIndex book = doc.AddNode(NodeKind::kElement, "book", "", bib);
    leaf(book, "title", "Book number " + std::to_string(i));
    leaf(book, "year", std::to_string(1990 + static_cast<int>(next() % 20)));
    int authors = 1 + next() % 3;
    for (int a = 0; a < authors; ++a) {
      leaf(book, "author", "Author " + std::to_string(next() % 50));
    }
    NodeIndex body = doc.AddNode(NodeKind::kElement, "body", "", book);
    int sections = 1 + next() % 4;
    for (int s = 0; s < sections; ++s) {
      NodeIndex section = doc.AddNode(NodeKind::kElement, "section", "", body);
      doc.AddNode(NodeKind::kAttribute, "no", std::to_string(s + 1), section);
      doc.AddNode(NodeKind::kText, "#text", "In this section we discuss ",
                  section);
      leaf(section, "it", "Web");
      doc.AddNode(NodeKind::kText, "#text", " data in ", section);
      leaf(section, "b", "XML");
      doc.AddNode(NodeKind::kText, "#text", " documents.", section);
    }
  }
  doc.Finalize();
  return doc;
}

Xam Parse(const char* text) {
  auto x = ParseXam(text);
  return x.ok() ? std::move(x).value() : Xam();
}

struct ModelRun {
  const char* name;
  std::vector<NamedXam> views;
};

void RunQuery(const char* label, const Xam& q, const ModelRun& model,
              const Document& doc, const PathSummary& summary) {
  Catalog catalog;
  for (const NamedXam& v : model.views) {
    auto st = catalog.AddXam(v.name, v.xam, doc);
    if (!st.ok()) {
      std::printf("  %-18s view error: %s\n", model.name,
                  st.ToString().c_str());
      return;
    }
  }
  std::vector<NamedXam> defs;
  for (const auto& v : catalog.views()) {
    defs.push_back({v->name(), v->definition()});
  }
  Rewriter rewriter(&summary, defs);
  RewriteOptions opts;
  opts.max_results = 1;
  auto t0 = std::chrono::steady_clock::now();
  auto r = rewriter.RewriteBest(q, opts);
  auto t1 = std::chrono::steady_clock::now();
  if (!r.ok()) {
    std::printf("  %-18s %-10s no rewriting (%s)\n", model.name, label,
                r.status().ToString().c_str());
    return;
  }
  EvalContext ctx = catalog.MakeEvalContext(&doc);
  int64_t rows = 0;
  double exec_us = bench::AvgMicros(5, [&] {
    auto res = ExecutePhysicalPlan(r->plan, ctx);
    if (res.ok()) rows = res->size();
  });
  std::printf("  %-18s %-10s ops=%-3d views=%zu  rewrite=%6.1f us  "
              "exec=%8.1f us  rows=%lld  bytes=%lld\n",
              model.name, label, r->operator_count, r->views_used.size(),
              std::chrono::duration<double, std::micro>(t1 - t0).count(),
              exec_us, static_cast<long long>(rows),
              static_cast<long long>(catalog.TotalBytes()));
}

}  // namespace
}  // namespace uload

int main(int argc, char** argv) {
  using namespace uload;
  Document doc = MakeBib(800);
  PathSummary summary = PathSummary::Build(&doc);
  std::printf("bib document: %lld elements, summary %lld nodes\n",
              static_cast<long long>(doc.element_count()),
              static_cast<long long>(summary.size()));

  // q: every book with its authors and title values (thesis §2.1.1 —
  // QEP1 returns authorValue/titleValue; node identity is not needed).
  Xam q = Parse(
      "xam\nnode e1 label=book\nnode e2 label=author val\n"
      "node e3 label=title val\n"
      "edge top // j e1\nedge e1 / j e2\nedge e1 / j e3\n");
  // q': book sections with their content (document-centric, §2.1.1).
  Xam qprime = Parse(
      "xam\nnode e1 label=book\nnode e2 label=section id=s cont\n"
      "edge top // j e1\nedge e1 // j e2\n");
  // q'': selective author lookup by year (thesis §2.1.2, QEP10/QEP11).
  Xam qsel = Parse(
      "xam\nnode e1 label=book\nnode e2 label=year val=\"1999\"\n"
      "node e3 label=author val\n"
      "edge top // j e1\nedge e1 / s e2\nedge e1 / j e3\n");

  std::vector<ModelRun> models;
  models.push_back({"inlined(Hybrid)", InlinedShreddingModel(summary)});
  models.push_back({"tag-partitioned", TagPartitionedModel(summary)});
  models.push_back({"path-partitioned", PathPartitionedModel(summary)});
  {
    // Blob storage for sections plus books for q'.
    std::vector<NamedXam> blob = TagPartitionedModel(summary);
    blob.push_back(NonFragmentedStore("section"));
    models.push_back({"blob(sections)", std::move(blob)});
  }
  {
    // Tag partitioning plus the booksByYearTitle-style index: q'' should
    // turn into an index lookup (QEP11).
    std::vector<NamedXam> indexed = TagPartitionedModel(summary);
    indexed.push_back(ValueIndex("book", {"year"}));
    models.push_back({"tag+year-index", std::move(indexed)});
  }

  bench::Header("q — //book with author and title values");
  for (const auto& m : models) RunQuery("q", q, m, doc, summary);

  bench::Header("q' — //book//section content (fragmented vs blob)");
  for (const auto& m : models) RunQuery("q'", qprime, m, doc, summary);

  bench::Header("q'' — selective year/title query");
  for (const auto& m : models) RunQuery("q''", qsel, m, doc, summary);

  // Storage footprint per backend (E12): the same XAM set installed over
  // the pointer tree (every view a materialized NestedRelation) and over
  // the column store (qualifying views virtualized down to a delta+varint
  // row-id list). data/index bytes come from the views themselves; the
  // columnar document's own columns+dictionaries are shared by
  // all its views and reported once.
  bench::Header("storage footprint: materialized views vs virtual extents");
  ColumnarDocument col = ColumnarDocument::FromDocument(doc);
  auto cb = col.ApproximateBytesBreakdown();
  std::printf("columnar store: columns=%lld dict=%lld "
              "(document %lld bytes as pointer tree)\n",
              static_cast<long long>(cb.column_bytes),
              static_cast<long long>(cb.dict_bytes),
              static_cast<long long>(doc.ApproximateBytes()));
  std::printf("  %-18s %-9s %10s %10s %10s %12s\n", "model", "backend",
              "data", "index", "rowsets", "virtualized");
  for (const auto& m : models) {
    struct Leg {
      const char* name;
      const DocumentStore* store;
    } legs[] = {{"pointer", &doc}, {"columnar", &col}};
    for (const Leg& leg : legs) {
      Catalog catalog;
      bool ok = true;
      for (const NamedXam& v : m.views) {
        if (!catalog.AddXam(v.name, v.xam, *leg.store).ok()) ok = false;
      }
      if (!ok) continue;
      MaterializedView::StorageBytes total;
      int virtualized = 0;
      for (const auto& view : catalog.views()) {
        auto b = view->ApproximateBytesBreakdown();
        total.data_bytes += b.data_bytes;
        total.index_bytes += b.index_bytes;
        total.rowset_bytes += b.rowset_bytes;
        if (b.virtualized) ++virtualized;
      }
      std::printf("  %-18s %-9s %10lld %10lld %10lld %9d/%zu\n", m.name,
                  leg.name, static_cast<long long>(total.data_bytes),
                  static_cast<long long>(total.index_bytes),
                  static_cast<long long>(total.rowset_bytes), virtualized,
                  catalog.views().size());
    }
  }

  std::printf(
      "\nExpected shape (thesis Ch.2): the inlined store answers q with the\n"
      "fewest operators; tag/path partitioning require structural joins;\n"
      "the blob store answers q' without reassembling sections.\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
