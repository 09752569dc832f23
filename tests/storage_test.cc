#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "model/movd_model.h"
#include "core/overlap.h"
#include "storage/external_sort.h"
#include "storage/io.h"
#include "storage/movd_file.h"
#include "storage/streaming_overlap.h"
#include "test_tmp.h"
#include "util/rng.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

Movd RandomBasicMovd(size_t sites, int32_t set, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < sites; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  const auto vd = VoronoiDiagram::Build(pts, kBounds);
  std::vector<int32_t> ids(vd.sites().size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  return MovdFromVoronoi(vd, set, ids);
}

std::vector<std::string> Canonicalize(const Movd& movd) {
  std::vector<std::string> keys;
  for (const OvrView ovr : movd.ovrs) {
    std::string k;
    for (const PoiRef& p : ovr.pois) {
      k += std::to_string(p.set) + ":" + std::to_string(p.object) + ";";
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "|%.9f,%.9f,%.9f,%.9f|%zu", ovr.mbr.min_x,
                  ovr.mbr.min_y, ovr.mbr.max_x, ovr.mbr.max_y,
                  ovr.region.VertexCount());
    k += buf;
    keys.push_back(std::move(k));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  const std::string path = Tmp("prim.bin");
  {
    BinaryWriter w(path);
    ASSERT_TRUE(w.ok());
    w.WriteU32(0xdeadbeef);
    w.WriteU64(0x0123456789abcdefULL);
    w.WriteVarint(0);
    w.WriteVarint(127);
    w.WriteVarint(128);
    w.WriteVarint(UINT64_MAX);
    w.WriteDouble(-0.1);
    w.WriteDouble(1e308);
    EXPECT_TRUE(w.Close());
  }
  BinaryReader r(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.ReadVarint(), 0u);
  EXPECT_EQ(r.ReadVarint(), 127u);
  EXPECT_EQ(r.ReadVarint(), 128u);
  EXPECT_EQ(r.ReadVarint(), UINT64_MAX);
  EXPECT_EQ(r.ReadDouble(), -0.1);
  EXPECT_EQ(r.ReadDouble(), 1e308);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEof());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsNotOk) {
  BinaryReader r("/nonexistent/nope.bin");
  EXPECT_FALSE(r.ok());
  BinaryWriter w("/nonexistent/nope.bin");
  EXPECT_FALSE(w.ok());
}

TEST(MovdFileTest, RoundTripsMovd) {
  const Movd movd = RandomBasicMovd(25, 3, 201);
  const std::string path = Tmp("movd.bin");
  ASSERT_TRUE(SaveMovd(path, movd));
  const auto loaded = LoadMovd(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(Canonicalize(movd), Canonicalize(*loaded));
  // Regions themselves survive, not just MBRs.
  double area = 0.0;
  for (const OvrView ovr : loaded->ovrs) area += ovr.region.Area();
  EXPECT_NEAR(area, kBounds.Area(), 1e-6 * kBounds.Area());
  std::remove(path.c_str());
}

TEST(MovdFileTest, EmptyMovd) {
  const std::string path = Tmp("empty.bin");
  ASSERT_TRUE(SaveMovd(path, Movd{}));
  const auto loaded = LoadMovd(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->ovrs.empty());
  std::remove(path.c_str());
}

TEST(MovdFileTest, RejectsGarbageHeader) {
  const std::string path = Tmp("garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a movd file at all", f);
  std::fclose(f);
  EXPECT_FALSE(LoadMovd(path).has_value());
  std::remove(path.c_str());
}

TEST(MovdFileTest, TruncatedFileFailsGracefully) {
  const Movd movd = RandomBasicMovd(15, 0, 207);
  const std::string path = Tmp("trunc.bin");
  ASSERT_TRUE(SaveMovd(path, movd));
  // Chop the file in the middle of a record.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  MovdFileReader reader(path);
  EXPECT_TRUE(reader.ok());  // header intact
  size_t read = 0;
  while (reader.Next().has_value()) ++read;
  EXPECT_LT(read, movd.ovrs.size());
  EXPECT_FALSE(reader.ok());  // the failure is reported, not hidden
  EXPECT_FALSE(LoadMovd(path).has_value());
  std::remove(path.c_str());
}

TEST(MovdFileTest, SerializedSizeMatchesBytesWritten) {
  const Movd movd = RandomBasicMovd(10, 0, 202);
  size_t expected = 0;
  for (const OvrView ovr : movd.ovrs) expected += SerializedOvrSize(ovr);
  const std::string path = Tmp("sized.bin");
  ASSERT_TRUE(SaveMovd(path, movd));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fclose(f);
  EXPECT_EQ(static_cast<size_t>(file_size), expected + 16);  // header = 16
  std::remove(path.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

// The serving engine persists overlap artifacts (not just basic MOVDs)
// through SaveMovd/LoadMovd for warm starts; the overlay must survive a
// save → load → save cycle byte-identically, or warm-started answers
// could drift from cold ones.
TEST(MovdFileTest, OverlayArtifactRoundTripIsByteIdentical) {
  const Movd a = RandomBasicMovd(20, 0, 301);
  const Movd b = RandomBasicMovd(15, 1, 302);
  const Movd overlay = Overlap(a, b, BoundaryMode::kRealRegion);
  ASSERT_GT(overlay.ovrs.size(), a.ovrs.size());

  const std::string path1 = Tmp("overlay1.movd");
  const std::string path2 = Tmp("overlay2.movd");
  ASSERT_TRUE(SaveMovd(path1, overlay));
  const auto loaded = LoadMovd(path1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->ovrs.size(), overlay.ovrs.size());
  EXPECT_EQ(Canonicalize(overlay), Canonicalize(*loaded));
  ASSERT_TRUE(SaveMovd(path2, *loaded));

  const std::string bytes1 = ReadFileBytes(path1);
  const std::string bytes2 = ReadFileBytes(path2);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, bytes2);
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

// Writes `bytes` to `path` verbatim.
void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// A valid header (magic "MOVD", version 1) claiming `count` records.
std::vector<uint8_t> Header(uint64_t count) {
  std::vector<uint8_t> out = {0x44, 0x56, 0x4f, 0x4d, 1, 0, 0, 0};
  for (int i = 0; i < 8; ++i) out.push_back((count >> (8 * i)) & 0xff);
  return out;
}

// Hostile counts are data loss, not an exception from an impossible
// allocation: the serve warm start loads every file in its artifact
// directory, so one such file must not take the process down.
TEST(MovdFileTest, HostileHeaderCountIsDataLoss) {
  const std::string path = Tmp("huge_count.movd");
  WriteBytes(path, Header(uint64_t{1} << 61));  // 16 bytes, no records
  MovdFileReader reader(path);
  EXPECT_FALSE(reader.ok());
  const StatusOr<Movd> loaded = LoadMovd(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(MovdFileTest, HostileRecordCountsAreDataLoss) {
  // One record: a zero MBR, then a poi-count varint of ~2^63 / a piece
  // count, vertex count or poi index the file cannot hold.
  const auto record = [](const std::vector<uint8_t>& tail) {
    std::vector<uint8_t> out = Header(1);
    out.insert(out.end(), 32, 0);  // mbr
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  };
  const std::vector<uint8_t> huge = {0xff, 0xff, 0xff, 0xff, 0xff,
                                     0xff, 0xff, 0xff, 0x7f};  // 2^63 - 1
  std::vector<uint8_t> poi_index = {1, 0};  // one poi: set 0, object ...
  poi_index.insert(poi_index.end(), {0x80, 0x80, 0x80, 0x80, 0x08});  // 2^31
  poi_index.push_back(0);  // no pieces
  std::vector<uint8_t> pieces = {0};  // no pois
  pieces.insert(pieces.end(), huge.begin(), huge.end());
  std::vector<uint8_t> vertices = {0, 1};  // no pois, one piece
  vertices.insert(vertices.end(), huge.begin(), huge.end());
  const std::vector<std::vector<uint8_t>> files = {
      record(huge), record(poi_index), record(pieces), record(vertices)};
  for (size_t i = 0; i < files.size(); ++i) {
    SCOPED_TRACE("file " + std::to_string(i));
    const std::string path = Tmp("hostile_record.movd");
    WriteBytes(path, files[i]);
    const StatusOr<Movd> loaded = LoadMovd(path);
    ASSERT_FALSE(loaded.has_value());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    std::remove(path.c_str());
  }
}

// A file with the right magic but a future format version must be
// rejected with a structured failure (nullopt / !ok()), never a crash or
// a garbage MOVD.
TEST(MovdFileTest, RejectsVersionMismatch) {
  const Movd movd = RandomBasicMovd(10, 0, 303);
  const std::string path = Tmp("version.movd");
  ASSERT_TRUE(SaveMovd(path, movd));
  // Header layout: u32 magic, u32 version, u64 count (little-endian).
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
  const uint32_t bad_version = 999;
  ASSERT_EQ(std::fwrite(&bad_version, sizeof(bad_version), 1, f), 1u);
  std::fclose(f);

  MovdFileReader reader(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(LoadMovd(path).has_value());
  std::remove(path.c_str());
}

class ExternalSortTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ExternalSortTest, ProducesSweepOrderUnderBudget) {
  const Movd movd = RandomBasicMovd(120, 0, 203);
  const std::string in = Tmp("sortin.bin");
  const std::string out = Tmp("sortout.bin");
  ASSERT_TRUE(SaveMovd(in, movd));
  ExternalSortStats stats;
  ASSERT_TRUE(ExternalSortMovdFile(in, out, GetParam(), &stats));
  EXPECT_EQ(stats.records, movd.ovrs.size());
  const auto sorted = LoadMovd(out);
  ASSERT_TRUE(sorted.has_value());
  ASSERT_EQ(sorted->ovrs.size(), movd.ovrs.size());
  for (size_t i = 1; i < sorted->ovrs.size(); ++i) {
    EXPECT_GE(sorted->ovrs[i - 1].mbr.max_y, sorted->ovrs[i].mbr.max_y);
  }
  // Same multiset of OVRs.
  EXPECT_EQ(Canonicalize(movd), Canonicalize(*sorted));
  std::remove(in.c_str());
  std::remove(out.c_str());
}

INSTANTIATE_TEST_SUITE_P(Budgets, ExternalSortTest,
                         ::testing::Values(1 << 10,   // many runs
                                           16 << 10,  // a few runs
                                           1 << 30)); // single run

TEST(ExternalSortTest, SpillsMultipleRunsUnderTinyBudget) {
  const Movd movd = RandomBasicMovd(200, 0, 204);
  const std::string in = Tmp("runs_in.bin");
  const std::string out = Tmp("runs_out.bin");
  ASSERT_TRUE(SaveMovd(in, movd));
  ExternalSortStats stats;
  ASSERT_TRUE(ExternalSortMovdFile(in, out, 2 << 10, &stats));
  EXPECT_GT(stats.runs, 4u);
  EXPECT_LE(stats.peak_bytes, (2u << 10) + 512u);  // budget + one record
  std::remove(in.c_str());
  std::remove(out.c_str());
}

class StreamingOverlapTest : public ::testing::TestWithParam<BoundaryMode> {};

TEST_P(StreamingOverlapTest, MatchesInMemoryOverlap) {
  const BoundaryMode mode = GetParam();
  const Movd a = RandomBasicMovd(40, 0, 205);
  const Movd b = RandomBasicMovd(55, 1, 206);
  const Movd expected = Overlap(a, b, mode);

  const std::string pa = Tmp("sa.bin"), pb = Tmp("sb.bin");
  const std::string sa = Tmp("sa_sorted.bin"), sb = Tmp("sb_sorted.bin");
  const std::string out = Tmp("stream_out.bin");
  ASSERT_TRUE(SaveMovd(pa, a));
  ASSERT_TRUE(SaveMovd(pb, b));
  ASSERT_TRUE(ExternalSortMovdFile(pa, sa, 4 << 10));
  ASSERT_TRUE(ExternalSortMovdFile(pb, sb, 4 << 10));

  StreamingOverlapStats stats;
  ASSERT_TRUE(StreamingOverlap(sa, sb, mode, out, &stats));
  const auto got = LoadMovd(out);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(Canonicalize(*got), Canonicalize(expected));
  EXPECT_EQ(stats.output_ovrs, expected.ovrs.size());
  // The sweep never holds everything at once (spatial data has bounded
  // sweep width).
  EXPECT_LT(stats.peak_active_ovrs, a.ovrs.size() + b.ovrs.size());
  for (const auto& p : {pa, pb, sa, sb, out}) std::remove(p.c_str());
}

INSTANTIATE_TEST_SUITE_P(Modes, StreamingOverlapTest,
                         ::testing::Values(BoundaryMode::kRealRegion,
                                           BoundaryMode::kMbr));

TEST(StreamingOverlapTest, RejectsUnsortedInput) {
  Movd unsorted;
  for (int i = 0; i < 3; ++i) {
    Ovr ovr;
    ovr.mbr = Rect(0, i * 10.0, 10, i * 10.0 + 5);  // ascending max_y
    ovr.region = Region::FromRect(ovr.mbr);
    ovr.pois = {{0, i}};
    unsorted.ovrs.push_back(ovr);
  }
  const std::string pa = Tmp("uns_a.bin"), pb = Tmp("uns_b.bin");
  const std::string out = Tmp("uns_out.bin");
  ASSERT_TRUE(SaveMovd(pa, unsorted));
  ASSERT_TRUE(SaveMovd(pb, unsorted));
  EXPECT_FALSE(StreamingOverlap(pa, pb, BoundaryMode::kMbr, out, nullptr));
  for (const auto& p : {pa, pb, out}) std::remove(p.c_str());
}

TEST(StreamingOverlapTest, PeakMemoryIsFractionOfInputOnTallData) {
  // Many horizontal strips: at any sweep position only a couple are active.
  Movd a, b;
  for (int i = 0; i < 200; ++i) {
    Ovr ovr;
    ovr.mbr = Rect(0, 200.0 - i, 100, 200.0 - i + 0.9);
    ovr.region = Region::FromRect(ovr.mbr);
    ovr.pois = {{0, i}};
    a.ovrs.push_back(ovr);
    ovr.pois = {{1, i}};
    b.ovrs.push_back(ovr);
  }
  const std::string pa = Tmp("tall_a.bin"), pb = Tmp("tall_b.bin");
  const std::string out = Tmp("tall_out.bin");
  ASSERT_TRUE(SaveMovd(pa, a));
  ASSERT_TRUE(SaveMovd(pb, b));
  StreamingOverlapStats stats;
  ASSERT_TRUE(StreamingOverlap(pa, pb, BoundaryMode::kMbr, out, &stats));
  EXPECT_LE(stats.peak_active_ovrs, 8u);
  EXPECT_EQ(stats.output_ovrs, 200u);  // strips pair only with their twin
  for (const auto& p : {pa, pb, out}) std::remove(p.c_str());
}

}  // namespace
}  // namespace movd
