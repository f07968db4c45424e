// The storage zoo (thesis §2.3): express a spectrum of published storage
// schemes — Edge, Universal, node tables, structural-id tables, tag and
// path partitioning, blobs, value indexes — as XAM sets, materialize them
// for one document, and show what each stores.
#include <cstdio>

#include "storage/catalog.h"
#include "storage/storage_models.h"
#include "xam/xam_printer.h"
#include "xml/document.h"

int main() {
  using namespace uload;
  const char* xml =
      "<library>"
      "<book year=\"1999\"><title>Data on the Web</title>"
      "<author>Abiteboul</author><author>Suciu</author></book>"
      "<book year=\"2002\"><title>The Syntactic Web</title>"
      "<author>Tim</author></book>"
      "</library>";
  auto parsed = Document::Parse(xml);
  if (!parsed.ok()) return 1;
  Document doc = std::move(parsed).value();
  PathSummary summary = PathSummary::Build(&doc);

  struct Entry {
    const char* title;
    std::vector<NamedXam> views;
  };
  std::vector<Entry> zoo;
  zoo.push_back({"Edge model [Florescu&Kossmann]", EdgeModel()});
  zoo.push_back({"Universal table", UniversalModel(summary)});
  zoo.push_back({"Node table (Galax-style, native #1)", NodeTableModel()});
  zoo.push_back({"Structural ids (native #2)", StructuralIdModel()});
  zoo.push_back({"Tag-partitioned (Timber/Natix, native #3)",
                 TagPartitionedModel(summary)});
  zoo.push_back({"Path-partitioned (XQueC/Monet, native #4)",
                 PathPartitionedModel(summary)});
  zoo.push_back({"Inlined shredding (Shared/Hybrid)",
                 InlinedShreddingModel(summary)});
  zoo.push_back({"Blob store for books", {NonFragmentedStore("book")}});
  zoo.push_back({"Index: books by (year, title)",
                 {ValueIndex("book", {"year", "title"})}});
  zoo.push_back({"T-index on //book//author", {TIndex("book", "author")}});

  for (Entry& e : zoo) {
    std::printf("=== %s ===\n", e.title);
    Catalog catalog;
    int64_t tuples = 0;
    for (NamedXam& v : e.views) {
      auto st = catalog.AddXam(v.name, v.xam, doc);
      if (!st.ok()) {
        std::printf("  error: %s\n", st.ToString().c_str());
        continue;
      }
      tuples += catalog.Find(v.name)->row_count();
    }
    std::printf("  %zu structure(s), %lld tuples, ~%lld bytes\n",
                catalog.views().size(), static_cast<long long>(tuples),
                static_cast<long long>(catalog.TotalBytes()));
    // Show the first XAM of the model in the textual syntax.
    if (!e.views.empty()) {
      std::printf("  first XAM:\n");
      std::string text = PrintXam(e.views[0].xam);
      // Indent for readability.
      size_t pos = 0;
      while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) nl = text.size();
        std::printf("    %s\n", text.substr(pos, nl - pos).c_str());
        pos = nl + 1;
      }
    }
    // R-marked views support index lookups.
    const MaterializedView* idx = catalog.Find("idx_book_year_title");
    if (idx != nullptr) {
      auto hit = idx->LookupRows(
          {{"idx_book_year_title_n2_Val", AtomicValue::String("1999")},
           {"idx_book_year_title_n3_Val",
            AtomicValue::String("Data on the Web")}});
      if (hit.ok()) {
        std::printf("  index lookup (1999, 'Data on the Web') -> %lld row(s)\n",
                    static_cast<long long>(hit->size()));
      }
    }
    std::printf("\n");
  }
  return 0;
}
