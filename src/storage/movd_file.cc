#include "storage/movd_file.h"

#include <cstdint>
#include <cstdio>

#include "util/check.h"

namespace movd {
namespace {

constexpr uint32_t kMagic = 0x4d4f5644;  // "MOVD"
constexpr uint32_t kVersion = 1;
// The smallest encodings, which bound every count a file can carry.
constexpr uint64_t kMinPoiBytes = 2;     // set + object varints
constexpr uint64_t kMinPieceBytes = 1;   // its vertex-count varint
constexpr uint64_t kVertexBytes = 16;    // two doubles
constexpr uint64_t kMinRecordBytes = 4 * 8 + 1 + 1;  // mbr + two counts
constexpr uint64_t kMaxIndex = INT32_MAX;  // PoiRef fields are int32

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

size_t SerializedOvrSize(const OvrView& ovr) {
  size_t bytes = 4 * 8;  // mbr
  bytes += VarintSize(ovr.pois.size());
  for (const PoiRef& p : ovr.pois) {
    bytes += VarintSize(static_cast<uint32_t>(p.set)) +
             VarintSize(static_cast<uint32_t>(p.object));
  }
  bytes += VarintSize(ovr.region.pieces().size());
  for (const PieceView piece : ovr.region.pieces()) {
    bytes += VarintSize(piece.VertexCount()) + piece.VertexCount() * 16;
  }
  return bytes;
}

void WriteOvr(BinaryWriter* writer, const OvrView& ovr) {
  writer->WriteDouble(ovr.mbr.min_x);
  writer->WriteDouble(ovr.mbr.min_y);
  writer->WriteDouble(ovr.mbr.max_x);
  writer->WriteDouble(ovr.mbr.max_y);
  writer->WriteVarint(ovr.pois.size());
  for (const PoiRef& p : ovr.pois) {
    writer->WriteVarint(static_cast<uint32_t>(p.set));
    writer->WriteVarint(static_cast<uint32_t>(p.object));
  }
  writer->WriteVarint(ovr.region.pieces().size());
  for (const PieceView piece : ovr.region.pieces()) {
    writer->WriteVarint(piece.VertexCount());
    for (const Point& v : piece.vertices()) {
      writer->WriteDouble(v.x);
      writer->WriteDouble(v.y);
    }
  }
}

Ovr ReadOvr(BinaryReader* reader) {
  // Every count is checked against the bytes left before anything is
  // reserved for it: a hostile count fails the reader (kDataLoss from
  // LoadMovd) instead of throwing from an impossible allocation.
  Ovr ovr;
  ovr.mbr.min_x = reader->ReadDouble();
  ovr.mbr.min_y = reader->ReadDouble();
  ovr.mbr.max_x = reader->ReadDouble();
  ovr.mbr.max_y = reader->ReadDouble();
  const uint64_t num_pois = reader->ReadVarint();
  if (num_pois > reader->Remaining() / kMinPoiBytes) {
    reader->MarkCorrupt();
    return ovr;
  }
  ovr.pois.reserve(num_pois);
  for (uint64_t i = 0; i < num_pois; ++i) {
    const uint64_t set = reader->ReadVarint();
    const uint64_t object = reader->ReadVarint();
    if (set > kMaxIndex || object > kMaxIndex) {
      reader->MarkCorrupt();
      return ovr;
    }
    ovr.pois.push_back(
        {static_cast<int32_t>(set), static_cast<int32_t>(object)});
  }
  const uint64_t num_pieces = reader->ReadVarint();
  if (num_pieces > reader->Remaining() / kMinPieceBytes) {
    reader->MarkCorrupt();
    return ovr;
  }
  std::vector<ConvexPolygon> pieces;
  pieces.reserve(num_pieces);
  for (uint64_t i = 0; i < num_pieces; ++i) {
    const uint64_t num_verts = reader->ReadVarint();
    if (num_verts > reader->Remaining() / kVertexBytes) {
      reader->MarkCorrupt();
      return ovr;
    }
    std::vector<Point> verts;
    verts.reserve(num_verts);
    for (uint64_t v = 0; v < num_verts; ++v) {
      const double x = reader->ReadDouble();
      const double y = reader->ReadDouble();
      verts.push_back({x, y});
    }
    pieces.push_back(ConvexPolygon::FromTrustedRing(std::move(verts)));
  }
  ovr.region = Region::FromPieces(pieces);
  return ovr;
}

MovdFileWriter::MovdFileWriter(const std::string& path)
    : path_(path), writer_(path) {
  writer_.WriteU32(kMagic);
  writer_.WriteU32(kVersion);
  writer_.WriteU64(0);  // count, patched on Close
}

void MovdFileWriter::Append(const OvrView& ovr) {
  WriteOvr(&writer_, ovr);
  ++count_;
}

Status MovdFileWriter::Close() {
  if (!writer_.Close()) {
    return Status::IoError("cannot write " + path_);
  }
  // Patch the count into the header.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  if (f == nullptr) {
    return Status::IoError("cannot reopen " + path_ + " to patch header");
  }
  if (std::fseek(f, 8, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek to header of " + path_);
  }
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = (count_ >> (8 * i)) & 0xff;
  const bool ok = std::fwrite(buf, 1, 8, f) == 8;
  if (std::fclose(f) != 0 || !ok) {
    return Status::IoError("cannot patch record count into " + path_);
  }
  return Status::Ok();
}

MovdFileReader::MovdFileReader(const std::string& path) : reader_(path) {
  if (!reader_.ok()) return;
  const uint32_t magic = reader_.ReadU32();
  const uint32_t version = reader_.ReadU32();
  count_ = reader_.ReadU64();
  ok_ = reader_.ok() && magic == kMagic && version == kVersion &&
        count_ <= reader_.Remaining() / kMinRecordBytes;
}

std::optional<Ovr> MovdFileReader::Next() {
  if (!ok_ || read_ >= count_) return std::nullopt;
  ++read_;
  Ovr ovr = ReadOvr(&reader_);
  if (!reader_.ok()) {
    ok_ = false;
    return std::nullopt;
  }
  return ovr;
}

Status SaveMovd(const std::string& path, const Movd& movd) {
  MovdFileWriter writer(path);
  for (const OvrView ovr : movd.ovrs) writer.Append(ovr);
  return writer.Close();
}

StatusOr<Movd> LoadMovd(const std::string& path) {
  // An unreadable file is an I/O problem; a readable file the reader
  // rejects is a data problem. The caller's recovery differs (report the
  // path vs. skip the artifact), so probe readability first.
  std::FILE* probe = std::fopen(path.c_str(), "rb");
  if (probe == nullptr) {
    return Status::IoError("cannot open " + path);
  }
  std::fclose(probe);
  MovdFileReader reader(path);
  if (!reader.ok()) {
    return Status::DataLoss("bad MOVD header in " + path);
  }
  Movd movd;
  movd.ovrs.reserve(reader.count());
  while (auto ovr = reader.Next()) movd.ovrs.push_back(*ovr);
  if (!reader.ok() && movd.ovrs.size() != reader.count()) {
    return Status::DataLoss("truncated MOVD record in " + path);
  }
  return movd;
}

}  // namespace movd
