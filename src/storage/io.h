#ifndef MOVD_STORAGE_IO_H_
#define MOVD_STORAGE_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace movd {

/// Buffered binary file writer. Encodes little-endian fixed-width values
/// and LEB128 varints; the MOVD file format (movd_file.h) is built on it.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);
  ~BinaryWriter();
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  bool ok() const { return file_ != nullptr && !failed_; }

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteVarint(uint64_t v);
  void WriteDouble(double v);
  void WriteBytes(const void* data, size_t size);

  /// Bytes written so far (current file offset).
  uint64_t offset() const { return offset_; }

  /// Flushes and closes; returns false if any write failed.
  bool Close();

 private:
  std::FILE* file_ = nullptr;
  bool failed_ = false;
  uint64_t offset_ = 0;
};

/// Buffered binary file reader matching BinaryWriter's encoding.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);
  ~BinaryReader();
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  bool ok() const { return file_ != nullptr && !failed_; }
  bool AtEof();

  /// Bytes between the read cursor and the end of the file (as it was
  /// when opened). Readers check every count they read against it before
  /// allocating for it.
  uint64_t Remaining() const { return size_ > pos_ ? size_ - pos_ : 0; }

  /// Marks the stream failed: the caller found the bytes malformed.
  void MarkCorrupt() { failed_ = true; }

  uint32_t ReadU32();
  uint64_t ReadU64();
  uint64_t ReadVarint();
  double ReadDouble();
  void ReadBytes(void* data, size_t size);

  /// Repositions the read cursor.
  void Seek(uint64_t offset);

 private:
  std::FILE* file_ = nullptr;
  bool failed_ = false;
  uint64_t size_ = 0;  // file size at open
  uint64_t pos_ = 0;   // read cursor
};

}  // namespace movd

#endif  // MOVD_STORAGE_IO_H_
