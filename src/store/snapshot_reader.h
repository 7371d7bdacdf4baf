// SnapshotReader: mmaps a snapshot file, validates header, section table
// and every section checksum up front, and hands out bounds-checked
// cursors over the section payloads. All failure modes (missing file,
// truncation, bit flips, foreign or future-format files) surface as
// descriptive IOError Statuses — never UB.
#ifndef HDKP2P_STORE_SNAPSHOT_READER_H_
#define HDKP2P_STORE_SNAPSHOT_READER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "store/mapped_file.h"
#include "store/snapshot_format.h"

namespace hdk::store {

/// Sequential bounds-checked reader over one section's payload. Every
/// read validates the remaining length first, so a corrupt length field
/// anywhere turns into a clean error instead of an out-of-bounds read.
class SectionCursor {
 public:
  SectionCursor(const uint8_t* data, size_t size, std::string section)
      : p_(data), end_(data + size), section_(std::move(section)) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  Status ReadBytes(void* out, size_t n) {
    if (remaining() < n) return Truncated(n);
    // memcpy needs non-null pointers even for n == 0, and an empty
    // vector's data() may be null.
    if (n != 0) std::memcpy(out, p_, n);
    p_ += n;
    return Status::OK();
  }

  Status ReadU8(uint8_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadU32(uint32_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }
  Status ReadDouble(double* v) {
    uint64_t bits = 0;
    HDK_RETURN_NOT_OK(ReadU64(&bits));
    *v = std::bit_cast<double>(bits);
    return Status::OK();
  }

  template <typename T>
  Status ReadPod(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(v, sizeof(T));
  }

  /// Counterpart of SnapshotWriter::WriteArray: u64 count, then one bulk
  /// memcpy of the raw element image into a freshly sized vector.
  template <typename T>
  Status ReadArray(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    HDK_RETURN_NOT_OK(ReadU64(&count));
    if (count > remaining() / sizeof(T)) {
      return Truncated(static_cast<size_t>(count) * sizeof(T));
    }
    out->resize(static_cast<size_t>(count));
    return ReadBytes(out->data(), out->size() * sizeof(T));
  }

  /// Zero-copy read: points `*out` at the next `n` bytes of the mapped
  /// section and advances past them, without copying. The returned view
  /// is only valid while the snapshot mapping is alive — callers that
  /// retain it must also retain the SnapshotReader (see
  /// HdkSearchEngine's snapshot backing).
  Status ReadView(size_t n, const uint8_t** out) {
    if (remaining() < n) return Truncated(n);
    *out = p_;
    p_ += n;
    return Status::OK();
  }

  /// Fails unless the section was consumed exactly — a layout drift
  /// (reader and writer disagreeing on a section's contents) is caught
  /// here instead of silently mis-parsing.
  Status ExpectEnd() const {
    if (remaining() != 0) {
      return Status::IOError("snapshot section '" + section_ + "': " +
                             std::to_string(remaining()) +
                             " trailing bytes (format drift or corruption)");
    }
    return Status::OK();
  }

 private:
  Status Truncated(size_t wanted) const {
    return Status::IOError(
        "snapshot section '" + section_ + "': need " +
        std::to_string(wanted) + " bytes, " + std::to_string(remaining()) +
        " remain (truncated or corrupt)");
  }

  const uint8_t* p_;
  const uint8_t* end_;
  std::string section_;
};

/// Validated, mmap-backed view of one snapshot file.
class SnapshotReader {
 public:
  /// Maps and fully validates `path`: magic, format version, header and
  /// section-table bounds, table checksum and every section checksum.
  static Result<SnapshotReader> Open(const std::string& path);

  uint64_t config_hash() const { return header_.config_hash; }
  uint64_t store_hash() const { return header_.store_hash; }
  uint32_t format_version() const { return header_.format_version; }
  uint64_t file_size() const { return file_.size(); }

  /// The validated section table, in file order.
  const std::vector<SectionEntry>& sections() const { return table_; }

  /// Cursor over one section's payload; IOError when absent.
  Result<SectionCursor> Find(SectionId id) const;

 private:
  MappedFile file_;
  SnapshotHeader header_;
  std::vector<SectionEntry> table_;
};

}  // namespace hdk::store

#endif  // HDKP2P_STORE_SNAPSHOT_READER_H_
