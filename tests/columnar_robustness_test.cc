// Loader hardening corpus for the persisted columnar format, mirroring the
// parser corpus (xml_parser_robustness_test.cc): a truncated, corrupted, or
// hostile image of any kind must come back from LoadColumnar as a clean
// ParseError Status — never a crash, out-of-bounds read, or document that
// later misbehaves. The corpus covers truncation at every section boundary
// (and a byte sweep around them), bad magic, unsupported versions, flipped
// payload bytes against the checksums, header-field lies (row count,
// section count, offsets, total size), and checksum-valid images whose
// columns describe no well-formed tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "storage/columnar/columnar_format.h"
#include "summary/path_summary.h"
#include "workload/dblp.h"

namespace uload {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// One well-formed persisted image, built once, mutated per test.
class ColumnarRobustness : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Document doc = GenerateDblp({40, 7});
    PathSummary summary = PathSummary::Build(&doc);
    ColumnarDocument col = ColumnarDocument::FromDocument(doc);
    const std::string path = TempPath("good.uldcol");
    auto st = SaveColumnar(col, summary.Serialize(), path);
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    image_ = new std::string((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    ASSERT_GT(image_->size(), 32u);
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
  }

  // Writes `bytes` to a scratch file and loads it.
  static Result<LoadedColumnar> LoadBytes(const std::string& bytes) {
    const std::string path = TempPath("mutant.uldcol");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    Result<LoadedColumnar> r = LoadColumnar(path);
    std::remove(path.c_str());
    return r;
  }

  static void ExpectCleanFailure(const std::string& bytes,
                                 const std::string& what) {
    auto r = LoadBytes(bytes);
    ASSERT_FALSE(r.ok()) << what << ": loader accepted a corrupt image";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError)
        << what << ": " << r.status().ToString();
  }

  // Section table offsets: entries start at byte 32, 32 bytes each, with
  // the payload offset at entry+8 (see columnar_format.h layout).
  static std::vector<size_t> SectionBoundaries() {
    const std::string& img = *image_;
    uint32_t sections = 0;
    std::memcpy(&sections, img.data() + 12, sizeof(sections));
    std::vector<size_t> cuts = {0, 8, 12, 16, 24, 32};
    for (uint32_t s = 0; s < sections; ++s) {
      size_t entry = 32 + size_t{s} * 32;
      cuts.push_back(entry);
      uint64_t offset = 0, length = 0;
      std::memcpy(&offset, img.data() + entry + 8, sizeof(offset));
      std::memcpy(&length, img.data() + entry + 16, sizeof(length));
      cuts.push_back(offset);
      cuts.push_back(offset + length);
    }
    return cuts;
  }

  // The good image with one cell of the stored fixed-width column in
  // section `id` replaced and that section's FNV-1a checksum recomputed, so
  // only the loader's checks of the content stand between the mutant and a
  // document.
  template <typename T>
  static std::string SetCell(uint32_t id, NodeIndex row, T value) {
    std::string img = *image_;
    uint32_t sections = 0;
    std::memcpy(&sections, img.data() + 12, sizeof(sections));
    for (uint32_t s = 0; s < sections; ++s) {
      const size_t entry = 32 + size_t{s} * 32;
      uint32_t entry_id = 0;
      std::memcpy(&entry_id, img.data() + entry, sizeof(entry_id));
      if (entry_id != id) continue;
      uint64_t offset = 0, length = 0;
      std::memcpy(&offset, img.data() + entry + 8, sizeof(offset));
      std::memcpy(&length, img.data() + entry + 16, sizeof(length));
      std::memcpy(img.data() + offset + static_cast<size_t>(row) * sizeof(T),
                  &value, sizeof(T));
      uint64_t h = 0xcbf29ce484222325ull;
      for (uint64_t i = 0; i < length; ++i) {
        h ^= static_cast<uint8_t>(img[offset + i]);
        h *= 0x100000001b3ull;
      }
      std::memcpy(img.data() + entry + 24, &h, sizeof(h));
      return img;
    }
    ADD_FAILURE() << "no section " << id;
    return img;
  }

  static std::string* image_;
};

// Stored-column section ids (columnar_format.h).
constexpr uint32_t kKindSection = 5;
constexpr uint32_t kParentSection = 6;
constexpr uint32_t kLabelIdSection = 7;
constexpr uint32_t kValueIdSection = 8;

std::string* ColumnarRobustness::image_ = nullptr;

TEST_F(ColumnarRobustness, GoodImageStillLoads) {
  auto r = LoadBytes(*image_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->document.size(), 0);
}

TEST_F(ColumnarRobustness, TruncationAtEverySectionBoundaryIsAStatus) {
  for (size_t cut : SectionBoundaries()) {
    // The boundary itself plus a sweep of nearby lengths on both sides.
    for (int d = -3; d <= 3; ++d) {
      int64_t len = static_cast<int64_t>(cut) + d;
      if (len < 0 || len >= static_cast<int64_t>(image_->size())) continue;
      ExpectCleanFailure(image_->substr(0, static_cast<size_t>(len)),
                         "truncated to " + std::to_string(len) + " bytes");
    }
  }
}

TEST_F(ColumnarRobustness, CoarseTruncationSweepNeverCrashes) {
  // Beyond exact boundaries: cut every ~1/64 of the file.
  size_t step = image_->size() / 64 + 1;
  for (size_t len = 0; len < image_->size(); len += step) {
    ExpectCleanFailure(image_->substr(0, len),
                       "truncated to " + std::to_string(len) + " bytes");
  }
}

TEST_F(ColumnarRobustness, BadMagicIsRejected) {
  std::string img = *image_;
  img[0] = 'X';
  ExpectCleanFailure(img, "bad magic");
  ExpectCleanFailure(std::string(64, '\0'), "zero magic");
  ExpectCleanFailure("short", "five-byte file");
  ExpectCleanFailure("", "empty file");
}

TEST_F(ColumnarRobustness, UnsupportedVersionIsRejected) {
  std::string img = *image_;
  uint32_t bad = kColumnarFormatVersion + 1;
  std::memcpy(img.data() + 8, &bad, sizeof(bad));
  ExpectCleanFailure(img, "future version");
  bad = 0;
  std::memcpy(img.data() + 8, &bad, sizeof(bad));
  ExpectCleanFailure(img, "version 0");
}

TEST_F(ColumnarRobustness, FlippedPayloadBytesTripTheChecksums) {
  // One flipped byte inside every section payload must be caught by that
  // section's FNV-1a checksum.
  const std::string& good = *image_;
  uint32_t sections = 0;
  std::memcpy(&sections, good.data() + 12, sizeof(sections));
  for (uint32_t s = 0; s < sections; ++s) {
    size_t entry = 32 + size_t{s} * 32;
    uint64_t offset = 0, length = 0;
    std::memcpy(&offset, good.data() + entry + 8, sizeof(offset));
    std::memcpy(&length, good.data() + entry + 16, sizeof(length));
    if (length == 0) continue;
    std::string img = good;
    img[offset + length / 2] ^= 0x5a;
    ExpectCleanFailure(img, "flipped byte in section " + std::to_string(s));
  }
}

TEST_F(ColumnarRobustness, HeaderFieldLiesAreRejected) {
  {  // Row count inflated: columns no longer cover the claimed rows.
    std::string img = *image_;
    uint64_t rows = 0;
    std::memcpy(&rows, img.data() + 16, sizeof(rows));
    rows *= 2;
    std::memcpy(img.data() + 16, &rows, sizeof(rows));
    ExpectCleanFailure(img, "inflated row count");
  }
  {  // Total-size field disagrees with the actual file size.
    std::string img = *image_;
    uint64_t total = img.size() + 1024;
    std::memcpy(img.data() + 24, &total, sizeof(total));
    ExpectCleanFailure(img, "lying total size");
  }
  {  // Section count pointing past the file.
    std::string img = *image_;
    uint32_t sections = 10'000;
    std::memcpy(img.data() + 12, &sections, sizeof(sections));
    ExpectCleanFailure(img, "huge section count");
  }
  {  // A section offset pointing outside the file.
    std::string img = *image_;
    uint64_t offset = img.size() + 64;
    std::memcpy(img.data() + 32 + 8, &offset, sizeof(offset));
    ExpectCleanFailure(img, "out-of-bounds section offset");
  }
  {  // Misaligned section offset.
    std::string img = *image_;
    uint64_t offset = 0;
    std::memcpy(&offset, img.data() + 32 + 8, sizeof(offset));
    offset += 1;
    std::memcpy(img.data() + 32 + 8, &offset, sizeof(offset));
    ExpectCleanFailure(img, "misaligned section offset");
  }
}

// Checksum-valid images whose columns describe no well-formed document:
// each must fail with ParseError at the loader's structural checks, before
// any accessor can index a column out of range.
TEST_F(ColumnarRobustness, MalformedTreesBehindValidChecksumsAreRejected) {
  auto good = LoadBytes(*image_);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  const ColumnarDocument& doc = good->document;
  ASSERT_EQ(doc.root(), 1);
  const std::vector<NodeIndex> top = doc.Children(doc.root());
  ASSERT_GE(top.size(), 3u);
  ASSERT_TRUE(doc.is_element(top.back()));
  const auto element = static_cast<uint8_t>(NodeKind::kElement);
  const auto text = static_cast<uint8_t>(NodeKind::kText);
  const struct {
    const char* what;
    std::string image;
    const char* message;
  } mutants[] = {
      {"forward parent link", SetCell<int32_t>(kParentSection, top[1],
                                               top[1] + 1),
       "bad parent link"},
      {"self parent link", SetCell<int32_t>(kParentSection, top[1], top[1]),
       "bad parent link"},
      {"parent off the ancestor path",
       SetCell<int32_t>(kParentSection, top[2], top[0]),
       "parent not on ancestor path"},
      {"row 0 an element", SetCell<uint8_t>(kKindSection, 0, element),
       "row 0 is not the document"},
      {"row 0 with a parent", SetCell<int32_t>(kParentSection, 0, 0),
       "row 0 is not the document"},
      {"kind out of range", SetCell<uint8_t>(kKindSection, top[1], 4),
       "invalid node kind"},
      {"label id out of range",
       SetCell<uint32_t>(kLabelIdSection, top[1], 0xffffffffu),
       "dictionary id out of range"},
      {"value id out of range",
       SetCell<uint32_t>(kValueIdSection, top[1], 0xffffffffu),
       "dictionary id out of range"},
      {"no root element", SetCell<uint8_t>(kKindSection, 1, text),
       "exactly one child"},
      {"two root elements", SetCell<int32_t>(kParentSection, top.back(), 0),
       "exactly one child"},
  };
  for (const auto& m : mutants) {
    SCOPED_TRACE(m.what);
    auto r = LoadBytes(m.image);
    ASSERT_FALSE(r.ok()) << "loader accepted the mutant";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_NE(r.status().ToString().find(m.message), std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(ColumnarRobustness, MissingFileIsACleanStatus) {
  auto r = LoadColumnar(TempPath("does-not-exist.uldcol"));
  ASSERT_FALSE(r.ok());
}

}  // namespace
}  // namespace uload
