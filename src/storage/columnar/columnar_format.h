// Persisted columnar format: header + section table + checksummed payload
// sections, loaded by mmap.
//
// File layout (all integers little-endian):
//
//   [0..7]    magic "ULDCOL1\0"
//   [8..11]   u32 version (currently 2)
//   [12..15]  u32 section count
//   [16..23]  u64 row count
//   [24..31]  u64 total file size (truncation tripwire)
//   then `section count` table entries of 32 bytes each:
//       u32 section id, u32 reserved, u64 offset, u64 length,
//       u64 FNV-1a checksum of the payload bytes
//   then the payload sections, each starting at an 8-byte-aligned offset.
//
// Sections, by id: 1-4 the label and value string dictionaries (each
// delta+varint offsets, then the raw blob); the stored per-row columns, raw
// little-endian arrays referenced in place by the loader — 5 kind (u8),
// 6 parent (i32), 7 label id (u32), 8 value id (u32); 9 the serialized
// PathSummary. Nothing derivable is persisted: post, depth, ordinal and
// subtree ends are derived from the parent column at load, so an image
// cannot carry labels that disagree with its tree. Loading validates
// magic, version, bounds, alignment, per-section checksums, node kinds,
// dictionary-id ranges and the tree shape (parent links, one root element)
// before handing out a document — a truncated or corrupted file yields a
// clean Status, never UB.
#ifndef ULOAD_STORAGE_COLUMNAR_COLUMNAR_FORMAT_H_
#define ULOAD_STORAGE_COLUMNAR_COLUMNAR_FORMAT_H_

#include <string>

#include "common/status.h"
#include "storage/columnar/columnar_document.h"

namespace uload {

inline constexpr uint32_t kColumnarFormatVersion = 2;

// A loaded store plus the persisted catalog metadata that rides with it.
struct LoadedColumnar {
  ColumnarDocument document;
  // PathSummary::Serialize() payload ("" when none was saved).
  std::string summary_text;
};

// Writes `doc` (and `summary_text`, normally PathSummary::Serialize()) to
// `path`, replacing any existing file.
Status SaveColumnar(const ColumnarDocument& doc,
                    const std::string& summary_text, const std::string& path);

// Maps `path` and validates it; the returned document serves fixed-width
// columns and dictionary blobs directly out of the mapping.
Result<LoadedColumnar> LoadColumnar(const std::string& path);

}  // namespace uload

#endif  // ULOAD_STORAGE_COLUMNAR_COLUMNAR_FORMAT_H_
