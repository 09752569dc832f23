#ifndef MOVD_STORAGE_MOVD_FILE_H_
#define MOVD_STORAGE_MOVD_FILE_H_

#include <optional>
#include <string>

#include "model/movd_model.h"
#include "storage/io.h"
#include "util/status.h"

namespace movd {

/// Serialized size in bytes of one OVR record (used for memory accounting
/// in the disk-based pipeline).
size_t SerializedOvrSize(const OvrView& ovr);

/// Appends one OVR record to a writer (format: mbr, pois, region pieces).
void WriteOvr(BinaryWriter* writer, const OvrView& ovr);

/// Reads one OVR record. A record whose counts overrun the file or whose
/// poi indices exceed int32 fails `reader` instead.
Ovr ReadOvr(BinaryReader* reader);

/// Sequential writer for a MOVD file:
///   header (magic, version, reserved count slot) + OVR records.
/// The record count is patched into the header on Close().
class MovdFileWriter {
 public:
  explicit MovdFileWriter(const std::string& path);

  void Append(const OvrView& ovr);
  uint64_t count() const { return count_; }

  /// Finalises the header; kIoError on I/O failure.
  Status Close();

 private:
  std::string path_;
  BinaryWriter writer_;
  uint64_t count_ = 0;
};

/// Sequential reader for a MOVD file.
class MovdFileReader {
 public:
  explicit MovdFileReader(const std::string& path);

  bool ok() const { return ok_; }
  uint64_t count() const { return count_; }

  /// Reads the next OVR; nullopt once all records were consumed.
  std::optional<Ovr> Next();

 private:
  BinaryReader reader_;
  uint64_t count_ = 0;
  uint64_t read_ = 0;
  bool ok_ = false;
};

/// Writes a whole in-memory MOVD to `path`. kIoError on failure.
Status SaveMovd(const std::string& path, const Movd& movd);

/// Loads a whole MOVD file into memory. kIoError when the file cannot be
/// opened, kDataLoss when the header or a record fails validation
/// (corrupt/truncated/version mismatch, or a count the file's remaining
/// bytes cannot hold).
StatusOr<Movd> LoadMovd(const std::string& path);

}  // namespace movd

#endif  // MOVD_STORAGE_MOVD_FILE_H_
