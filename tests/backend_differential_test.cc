// Backend-swap invariance, the PR's acceptance bar for physical data
// independence: the same query over the same storage model must produce
// byte-identical XML whether the document lives in the pointer tree or the
// columnar store — across the engine corpus (bib / DBLP / XMark), storage
// models and batch sizes {1, 1024}. The pointer backend at defaults is the
// oracle; every other (backend, batch) cell must match it exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "storage/storage_models.h"
#include "workload/dblp.h"
#include "workload/xmark.h"

namespace uload {
namespace {

constexpr const char* kBib =
    "<bib>"
    "<book id=\"b1\"><title>Data on the Web</title><year>1999</year>"
    "<author>Abiteboul</author><author>Suciu</author></book>"
    "<book><title>The Syntactic Web</title><year>2002</year>"
    "<author>Tim</author></book>"
    "<phdthesis><title>XAMs</title><year>2007</year>"
    "<author>Arion</author></phdthesis>"
    "</bib>";

struct CorpusDoc {
  const char* name;
  Document doc;
};

std::vector<CorpusDoc> MakeCorpus() {
  std::vector<CorpusDoc> corpus;
  {
    auto d = Document::Parse(kBib);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    corpus.push_back({"bib", std::move(d).value()});
  }
  corpus.push_back({"dblp", GenerateDblp({150, 7})});
  corpus.push_back({"xmark", GenerateXMark(XMarkScale(0.05))});
  return corpus;
}

std::vector<std::string> QueriesFor(const std::string& corpus) {
  if (corpus == "bib") {
    return {
        "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>",
        "for $x in doc(\"bib\")//book where $x/year = \"1999\" "
        "return <a>{$x/author/text()}</a>",
        "for $x in doc(\"bib\")//phdthesis return <t>{$x/title/text()}</t>",
    };
  }
  if (corpus == "dblp") {
    return {
        "for $x in doc(\"d\")//article return <t>{$x/title/text()}</t>",
        "for $x in doc(\"d\")//inproceedings "
        "return <a>{$x/author/text()}</a>",
    };
  }
  return {
      "for $x in doc(\"x\")//people/person return <p>{$x/name/text()}</p>",
      "for $x in doc(\"x\")//item return <l>{$x/location/text()}</l>",
  };
}

struct ModelSpec {
  const char* name;
  std::vector<NamedXam> (*make)(const PathSummary&);
};

const ModelSpec kModels[] = {
    {"tag-partitioned", +[](const PathSummary& s) {
       return TagPartitionedModel(s);
     }},
    {"path-partitioned", +[](const PathSummary& s) {
       return PathPartitionedModel(s);
     }},
};

TEST(BackendDifferential, ByteIdenticalResultsAcrossTheWholeGrid) {
  const size_t kBatches[] = {1, 1024};
  for (CorpusDoc& c : MakeCorpus()) {
    for (const ModelSpec& m : kModels) {
      // Oracle: pointer backend, default batch. A query a model
      // cannot rewrite (e.g. nested paths over path partitioning) is part of
      // the contract too: every cell must fail with the same code.
      std::vector<Result<std::string>> expected;
      {
        Engine oracle{Document(c.doc)};
        auto st = oracle.InstallModel(m.make(oracle.summary()));
        ASSERT_TRUE(st.ok()) << c.name << "/" << m.name << ": " << st.ToString();
        for (const std::string& q : QueriesFor(c.name)) {
          expected.push_back(oracle.Run(q));
        }
      }
      for (auto backend : {Engine::Options::Backend::kPointer,
                           Engine::Options::Backend::kColumnar}) {
        for (size_t batch : kBatches) {
          Engine::Options o;
          o.backend = backend;
          o.batch_size = batch;
          Engine engine{Document(c.doc), o};
          auto st = engine.InstallModel(m.make(engine.summary()));
          ASSERT_TRUE(st.ok()) << st.ToString();
          const std::vector<std::string> queries = QueriesFor(c.name);
          for (size_t qi = 0; qi < queries.size(); ++qi) {
            auto out = engine.Run(queries[qi]);
            std::string cell =
                std::string(c.name) + "/" + m.name +
                (backend == Engine::Options::Backend::kColumnar ? "/columnar"
                                                                : "/pointer") +
                "/b=" + std::to_string(batch) + "/q" + std::to_string(qi);
            if (expected[qi].ok()) {
              ASSERT_TRUE(out.ok()) << cell << ": " << out.status().ToString();
              EXPECT_EQ(*expected[qi], *out) << cell;
            } else {
              ASSERT_FALSE(out.ok()) << cell << ": oracle failed ("
                                     << expected[qi].status().ToString()
                                     << ") but this cell succeeded";
              EXPECT_EQ(expected[qi].status().code(), out.status().code())
                  << cell;
            }
          }
        }
      }
    }
  }
}

TEST(BackendDifferential, SaveLoadEngineJoinsTheGridUnchanged) {
  // A Load()ed engine (mmap-backed columns) must agree with the in-memory
  // engines on the same queries.
  auto d = Document::Parse(kBib);
  ASSERT_TRUE(d.ok());
  Engine oracle{std::move(d).value()};
  auto st = oracle.InstallModel(TagPartitionedModel(oracle.summary()));
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::string path = std::string(::testing::TempDir()) + "/grid.uldcol";
  st = oracle.Save(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto loaded = Engine::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  st = (*loaded)->InstallModel(TagPartitionedModel((*loaded)->summary()));
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (const std::string& q : QueriesFor("bib")) {
    auto a = oracle.Run(q);
    auto b = (*loaded)->Run(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(*a, *b) << q;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uload
