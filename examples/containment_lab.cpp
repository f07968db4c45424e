// A tour of the Chapter 4 machinery: canonical models, containment under
// summary constraints (including the cases only the summary makes true),
// decorated unions, and minimization. Exits 1 when a result it prints does
// not hold, so the tour doubles as a test.
#include <cstdio>

#include "containment/containment.h"
#include "containment/minimize.h"
#include "workload/xmark.h"
#include "xam/xam_parser.h"
#include "xam/xam_printer.h"

namespace {

uload::Xam P(const char* text) {
  auto x = uload::ParseXam(text);
  if (!x.ok()) {
    std::printf("pattern parse error: %s\n", x.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(x).value();
}

bool ok = true;

// Records a printed result that must hold.
void Expect(bool holds, const char* what) {
  if (!holds) {
    std::printf("UNEXPECTED: %s does not hold\n", what);
    ok = false;
  }
}

}  // namespace

int main() {
  using namespace uload;
  Document doc = GenerateXMark(XMarkScale(0.2));
  PathSummary summary = PathSummary::Build(&doc);
  std::printf("XMark summary: %lld nodes\n\n",
              static_cast<long long>(summary.size()));

  // 1. Canonical models (§4.3).
  Xam p = P(
      "xam\nnode e1 id=s\nnode e2 label=name val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  auto model = CanonicalModel(p, summary);
  std::printf("pattern //*[./name] has |mod_S(p)| = %zu canonical trees:\n",
              model.size());
  for (size_t i = 0; i < model.size() && i < 3; ++i) {
    std::printf("%s\n", model[i].ToString(summary).c_str());
  }
  Expect(!model.empty(), "a non-empty canonical model");

  // 2. Containment that only holds under the summary (§4.4).
  Xam via_star = P(
      "xam\nnode e1 label=people\nnode e2 id=s\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Xam person = P("xam\nnode e1 label=person id=s\nedge top // j e1\n");
  auto c1 = IsContained(via_star, person, summary);
  auto c2 = IsContained(person, via_star, summary);
  std::printf("//people/* vs //person: %s and %s -> %s under this summary\n",
              (c1.ok() && *c1) ? "⊆" : "⊄", (c2.ok() && *c2) ? "⊇" : "⊅",
              (c1.ok() && c2.ok() && *c1 && *c2) ? "equivalent"
                                                 : "not equivalent");
  Expect(c1.ok() && c2.ok() && *c1 && *c2, "//people/* ≡ //person");

  // 3. Decorated union coverage (§4.4.2).
  Xam mid = P("xam\nnode e1 label=price id=s val>50\nedge top // j e1\n");
  Xam lo = P("xam\nnode e1 label=price id=s val<200\nedge top // j e1\n");
  Xam hi = P("xam\nnode e1 label=price id=s val>100\nedge top // j e1\n");
  auto single = IsContained(mid, lo, summary);
  auto both = IsContainedInUnion(mid, {&lo, &hi}, summary);
  std::printf("price>50 in price<200: %s; in (price<200 ∪ price>100): %s\n",
              (single.ok() && *single) ? "yes" : "no",
              (both.ok() && *both) ? "yes" : "no");
  Expect(single.ok() && !*single, "price>50 ⊄ price<200");
  Expect(both.ok() && *both, "price>50 ⊆ price<200 ∪ price>100");

  // 4. Minimization (§4.5).
  Xam verbose = P(
      "xam\nnode e1 label=site\nnode e2 label=people\nnode e3 label=person\n"
      "node e4 label=name id=s val\n"
      "edge top / j e1\nedge e1 / j e2\nedge e2 / j e3\nedge e3 / j e4\n");
  auto minima = MinimizeGlobally(verbose, summary);
  if (minima.ok() && !minima->empty()) {
    std::printf("\n%d-node pattern minimizes to %d nodes:\n%s",
                verbose.size(), (*minima)[0].size(),
                PrintXam((*minima)[0]).c_str());
  }
  return ok ? 0 : 1;
}
