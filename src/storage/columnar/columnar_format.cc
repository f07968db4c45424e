#include "storage/columnar/columnar_format.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

namespace uload {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the columnar format references on-disk columns in place and "
              "assumes a little-endian host");

namespace {

constexpr char kMagic[8] = {'U', 'L', 'D', 'C', 'O', 'L', '1', '\0'};
constexpr size_t kHeaderSize = 32;
constexpr size_t kTableEntrySize = 32;

enum SectionId : uint32_t {
  kSecLabelDictOffsets = 1,
  kSecLabelDictBlob = 2,
  kSecValueDictOffsets = 3,
  kSecValueDictBlob = 4,
  kSecKind = 5,
  kSecParent = 6,
  kSecLabelIds = 7,
  kSecValueIds = 8,
  kSecSummary = 9,
};
constexpr uint32_t kSectionCount = 9;

uint64_t Fnv1a(const uint8_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void PutU32(uint32_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(uint64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
uint32_t ReadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t ReadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename T>
std::string RawColumn(const T* data, int64_t n) {
  return std::string(reinterpret_cast<const char*>(data),
                     static_cast<size_t>(n) * sizeof(T));
}

struct SectionView {
  const uint8_t* data = nullptr;
  uint64_t length = 0;
};

}  // namespace

// Accessor for ColumnarDocument internals; declared friend in
// columnar_document.h.
class ColumnarFormatIO {
 public:
  static Status Save(const ColumnarDocument& d, const std::string& summary,
                     const std::string& path) {
    const int64_t n = d.n_;
    std::vector<std::pair<uint32_t, std::string>> sections;
    sections.reserve(kSectionCount);

    std::string label_off;
    d.labels_.EncodeOffsets(&label_off);
    sections.emplace_back(kSecLabelDictOffsets, std::move(label_off));
    sections.emplace_back(kSecLabelDictBlob, std::string(d.labels_.blob()));
    std::string value_off;
    d.values_.EncodeOffsets(&value_off);
    sections.emplace_back(kSecValueDictOffsets, std::move(value_off));
    sections.emplace_back(kSecValueDictBlob, std::string(d.values_.blob()));

    sections.emplace_back(kSecKind, RawColumn(d.kind_.data, n));
    sections.emplace_back(kSecParent, RawColumn(d.parent_.data, n));
    sections.emplace_back(kSecLabelIds, RawColumn(d.label_id_.data, n));
    sections.emplace_back(kSecValueIds, RawColumn(d.value_id_.data, n));
    sections.emplace_back(kSecSummary, summary);

    // Assemble: header, table, aligned payloads.
    std::string table;
    std::string payload;
    uint64_t base = kHeaderSize + kTableEntrySize * sections.size();
    for (auto& [id, bytes] : sections) {
      while ((base + payload.size()) % 8 != 0) payload.push_back('\0');
      uint64_t offset = base + payload.size();
      PutU32(id, &table);
      PutU32(0, &table);
      PutU64(offset, &table);
      PutU64(bytes.size(), &table);
      PutU64(Fnv1a(reinterpret_cast<const uint8_t*>(bytes.data()),
                   bytes.size()),
             &table);
      payload += bytes;
    }
    std::string header;
    header.append(kMagic, sizeof(kMagic));
    PutU32(kColumnarFormatVersion, &header);
    PutU32(static_cast<uint32_t>(sections.size()), &header);
    PutU64(static_cast<uint64_t>(n), &header);
    PutU64(base + payload.size(), &header);

    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::Internal("cannot write '" + path + "'");
    }
    bool ok = std::fwrite(header.data(), 1, header.size(), f) ==
                  header.size() &&
              std::fwrite(table.data(), 1, table.size(), f) == table.size() &&
              (payload.empty() ||
               std::fwrite(payload.data(), 1, payload.size(), f) ==
                   payload.size());
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) return Status::Internal("short write to '" + path + "'");
    return Status::Ok();
  }

  static Result<LoadedColumnar> Load(const std::string& path) {
    ULOAD_ASSIGN_OR_RETURN(MmapFile map, MmapFile::Open(path));
    const uint8_t* b = map.data();
    const size_t size = map.size();
    if (size < kHeaderSize) {
      return Status::ParseError("columnar file: truncated header");
    }
    if (std::memcmp(b, kMagic, sizeof(kMagic)) != 0) {
      return Status::ParseError("columnar file: bad magic");
    }
    uint32_t version = ReadU32(b + 8);
    if (version != kColumnarFormatVersion) {
      return Status::ParseError("columnar file: unsupported version " +
                                std::to_string(version));
    }
    uint32_t nsec = ReadU32(b + 12);
    uint64_t rows = ReadU64(b + 16);
    uint64_t declared_size = ReadU64(b + 24);
    if (declared_size != size) {
      return Status::ParseError("columnar file: size mismatch (truncated?)");
    }
    if (nsec != kSectionCount) {
      return Status::ParseError("columnar file: unexpected section count");
    }
    if (rows < 1 ||
        rows > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
      return Status::ParseError("columnar file: row count out of range");
    }
    const int64_t n = static_cast<int64_t>(rows);
    uint64_t table_end = kHeaderSize + uint64_t{kTableEntrySize} * nsec;
    if (table_end > size) {
      return Status::ParseError("columnar file: truncated section table");
    }

    SectionView secs[kSectionCount + 1];
    bool seen[kSectionCount + 1] = {false};
    for (uint32_t s = 0; s < nsec; ++s) {
      const uint8_t* e = b + kHeaderSize + kTableEntrySize * s;
      uint32_t id = ReadU32(e);
      uint64_t offset = ReadU64(e + 8);
      uint64_t length = ReadU64(e + 16);
      uint64_t checksum = ReadU64(e + 24);
      if (id < 1 || id > kSectionCount) {
        return Status::ParseError("columnar file: unknown section id " +
                                  std::to_string(id));
      }
      if (seen[id]) {
        return Status::ParseError("columnar file: duplicate section");
      }
      if (offset % 8 != 0 || offset < table_end || offset > size ||
          length > size - offset) {
        return Status::ParseError("columnar file: section out of bounds");
      }
      if (Fnv1a(b + offset, length) != checksum) {
        return Status::ParseError("columnar file: section checksum mismatch");
      }
      seen[id] = true;
      secs[id] = SectionView{b + offset, length};
    }
    for (uint32_t id = 1; id <= kSectionCount; ++id) {
      if (!seen[id]) {
        return Status::ParseError("columnar file: missing section " +
                                  std::to_string(id));
      }
    }

    auto expect_len = [&](SectionId id, uint64_t want) -> Status {
      if (secs[id].length != want) {
        return Status::ParseError("columnar file: column length mismatch");
      }
      return Status::Ok();
    };
    ULOAD_RETURN_NOT_OK(expect_len(kSecKind, rows));
    for (SectionId id : {kSecParent, kSecLabelIds, kSecValueIds}) {
      ULOAD_RETURN_NOT_OK(expect_len(id, rows * 4));
    }

    ColumnarDocument d;
    d.n_ = n;
    ULOAD_ASSIGN_OR_RETURN(
        d.labels_,
        StringDict::FromEncoded(
            secs[kSecLabelDictOffsets].data, secs[kSecLabelDictOffsets].length,
            reinterpret_cast<const char*>(secs[kSecLabelDictBlob].data),
            secs[kSecLabelDictBlob].length));
    ULOAD_ASSIGN_OR_RETURN(
        d.values_,
        StringDict::FromEncoded(
            secs[kSecValueDictOffsets].data, secs[kSecValueDictOffsets].length,
            reinterpret_cast<const char*>(secs[kSecValueDictBlob].data),
            secs[kSecValueDictBlob].length));

    d.kind_.SetExternal(secs[kSecKind].data);
    d.parent_.SetExternal(
        reinterpret_cast<const int32_t*>(secs[kSecParent].data));
    d.label_id_.SetExternal(
        reinterpret_cast<const uint32_t*>(secs[kSecLabelIds].data));
    d.value_id_.SetExternal(
        reinterpret_cast<const uint32_t*>(secs[kSecValueIds].data));

    // Range-check dictionary references and kinds before any accessor runs.
    for (int64_t i = 0; i < n; ++i) {
      if (d.kind_.data[i] > static_cast<uint8_t>(NodeKind::kText)) {
        return Status::ParseError("columnar file: invalid node kind");
      }
      if (d.label_id_.data[i] >= d.labels_.size() ||
          d.value_id_.data[i] >= d.values_.size()) {
        return Status::ParseError("columnar file: dictionary id out of range");
      }
    }

    // Structure (subtree intervals, depth, ordinal, root, element count)
    // from the parent column — rejects inconsistent links and a document
    // node without exactly one root element.
    ULOAD_RETURN_NOT_OK(d.BuildStructure());

    LoadedColumnar out;
    out.summary_text.assign(
        reinterpret_cast<const char*>(secs[kSecSummary].data),
        secs[kSecSummary].length);
    d.mapping_ = std::move(map);
    out.document = std::move(d);
    return out;
  }
};

Status SaveColumnar(const ColumnarDocument& doc,
                    const std::string& summary_text, const std::string& path) {
  return ColumnarFormatIO::Save(doc, summary_text, path);
}

Result<LoadedColumnar> LoadColumnar(const std::string& path) {
  return ColumnarFormatIO::Load(path);
}

}  // namespace uload
