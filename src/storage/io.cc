#include "storage/io.h"

#include <cstring>

#include "util/check.h"

namespace movd {

BinaryWriter::BinaryWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "wb")) {}

BinaryWriter::~BinaryWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  if (file_ == nullptr || failed_) return;
  if (std::fwrite(data, 1, size, file_) != size) failed_ = true;
  offset_ += size;
}

void BinaryWriter::WriteU32(uint32_t v) {
  unsigned char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = (v >> (8 * i)) & 0xff;
  WriteBytes(buf, 4);
}

void BinaryWriter::WriteU64(uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = (v >> (8 * i)) & 0xff;
  WriteBytes(buf, 8);
}

void BinaryWriter::WriteVarint(uint64_t v) {
  unsigned char buf[10];
  size_t n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  WriteBytes(buf, n);
}

void BinaryWriter::WriteDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

bool BinaryWriter::Close() {
  if (file_ == nullptr) return false;
  const bool ok = std::fclose(file_) == 0 && !failed_;
  file_ = nullptr;
  return ok;
}

BinaryReader::BinaryReader(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")) {
  if (file_ == nullptr) return;
  long size = -1;
  if (std::fseek(file_, 0, SEEK_END) == 0) size = std::ftell(file_);
  if (size < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    failed_ = true;
    return;
  }
  size_ = static_cast<uint64_t>(size);
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool BinaryReader::AtEof() {
  if (file_ == nullptr || failed_) return true;
  const int c = std::fgetc(file_);
  if (c == EOF) return true;
  std::ungetc(c, file_);
  return false;
}

void BinaryReader::ReadBytes(void* data, size_t size) {
  if (file_ == nullptr || failed_) {
    std::memset(data, 0, size);
    return;
  }
  if (std::fread(data, 1, size, file_) != size) {
    failed_ = true;
    std::memset(data, 0, size);
    return;
  }
  pos_ += size;
}

uint32_t BinaryReader::ReadU32() {
  unsigned char buf[4];
  ReadBytes(buf, 4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buf[i]) << (8 * i);
  return v;
}

uint64_t BinaryReader::ReadU64() {
  unsigned char buf[8];
  ReadBytes(buf, 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf[i]) << (8 * i);
  return v;
}

uint64_t BinaryReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    unsigned char byte;
    ReadBytes(&byte, 1);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  failed_ = true;  // malformed varint
  return v;
}

double BinaryReader::ReadDouble() {
  const uint64_t bits = ReadU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void BinaryReader::Seek(uint64_t offset) {
  if (file_ == nullptr) return;
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    failed_ = true;
    return;
  }
  pos_ = offset;
}

}  // namespace movd
