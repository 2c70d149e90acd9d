// Unit tests for the io substrate: typed writer/reader round-trips, buffer
// boundary behaviour, varints, CRC-32 vectors, and file sinks.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>

#include "io/byte_sink.hpp"
#include "io/crc32.hpp"
#include "io/data_reader.hpp"
#include "io/data_writer.hpp"
#include "io/file_io.hpp"

namespace ickpt::io {
namespace {

TEST(DataWriter, ScalarRoundTrip) {
  VectorSink sink;
  {
    DataWriter w(sink);
    w.write_u8(0xAB);
    w.write_bool(true);
    w.write_bool(false);
    w.write_u16(0xBEEF);
    w.write_u32(0xDEADBEEF);
    w.write_u64(0x0123456789ABCDEFull);
    w.write_i32(-42);
    w.write_i64(-1234567890123LL);
    w.write_f32(3.5F);
    w.write_f64(-2.25);
    w.flush();
  }
  DataReader r(sink.bytes());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.read_bool());
  EXPECT_EQ(r.read_u16(), 0xBEEF);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_EQ(r.read_i64(), -1234567890123LL);
  EXPECT_EQ(r.read_f32(), 3.5F);
  EXPECT_EQ(r.read_f64(), -2.25);
  EXPECT_TRUE(r.at_end());
}

TEST(DataWriter, BigEndianLayout) {
  VectorSink sink;
  {
    DataWriter w(sink);
    w.write_u32(0x01020304);
    w.flush();
  }
  ASSERT_EQ(sink.bytes().size(), 4u);
  EXPECT_EQ(sink.bytes()[0], 0x01);
  EXPECT_EQ(sink.bytes()[1], 0x02);
  EXPECT_EQ(sink.bytes()[2], 0x03);
  EXPECT_EQ(sink.bytes()[3], 0x04);
}

TEST(DataWriter, StringRoundTrip) {
  VectorSink sink;
  {
    DataWriter w(sink);
    w.write_string("");
    w.write_string("hello");
    w.write_string(std::string(1000, 'x'));
    w.flush();
  }
  DataReader r(sink.bytes());
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_string(), std::string(1000, 'x'));
  EXPECT_TRUE(r.at_end());
}

TEST(DataWriter, BufferBoundarySpill) {
  // Tiny buffer: every write crosses the boundary at some point.
  VectorSink sink;
  {
    DataWriter w(sink, 16);
    for (std::uint32_t i = 0; i < 1000; ++i) w.write_u32(i);
    w.flush();
  }
  DataReader r(sink.bytes());
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(r.read_u32(), i);
  EXPECT_TRUE(r.at_end());
}

TEST(DataWriter, LargeBlockBypassesBuffer) {
  VectorSink sink;
  std::vector<std::uint8_t> block(200000, 0x5A);
  {
    DataWriter w(sink, 1024);
    w.write_u8(1);
    w.write_bytes(block.data(), block.size());
    w.write_u8(2);
    w.flush();
  }
  ASSERT_EQ(sink.bytes().size(), block.size() + 2);
  EXPECT_EQ(sink.bytes().front(), 1);
  EXPECT_EQ(sink.bytes()[1], 0x5A);
  EXPECT_EQ(sink.bytes().back(), 2);
}

TEST(DataWriter, BytesWrittenCountsBuffered) {
  VectorSink sink;
  DataWriter w(sink);
  EXPECT_EQ(w.bytes_written(), 0u);
  w.write_u32(7);
  EXPECT_EQ(w.bytes_written(), 4u);  // still buffered
  w.flush();
  EXPECT_EQ(w.bytes_written(), 4u);
}

TEST(Varint, RoundTripEdgeValues) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  VectorSink sink;
  {
    DataWriter w(sink);
    for (std::uint64_t v : cases) w.write_varint(v);
    w.flush();
  }
  DataReader r(sink.bytes());
  for (std::uint64_t v : cases) EXPECT_EQ(r.read_varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Varint, SignedZigzagRoundTrip) {
  const std::int64_t cases[] = {0,
                                -1,
                                1,
                                -64,
                                64,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  VectorSink sink;
  {
    DataWriter w(sink);
    for (std::int64_t v : cases) w.write_varint_i64(v);
    w.flush();
  }
  DataReader r(sink.bytes());
  for (std::int64_t v : cases) EXPECT_EQ(r.read_varint_i64(), v);
}

TEST(Varint, SmallValuesAreOneByte) {
  VectorSink sink;
  DataWriter w(sink);
  w.write_varint(127);
  w.flush();
  EXPECT_EQ(sink.size(), 1u);
}

TEST(DataReader, UnderflowThrows) {
  std::vector<std::uint8_t> three{1, 2, 3};
  DataReader r(three);
  EXPECT_THROW(r.read_u32(), CorruptionError);
}

TEST(DataReader, TruncatedVarintThrows) {
  std::vector<std::uint8_t> bytes{0x80, 0x80};  // continuation, then EOF
  DataReader r(bytes);
  EXPECT_THROW(r.read_varint(), CorruptionError);
}

TEST(DataReader, OverlongVarintThrows) {
  std::vector<std::uint8_t> bytes(11, 0x80);
  DataReader r(bytes);
  EXPECT_THROW(r.read_varint(), CorruptionError);
}

TEST(DataReader, RemainingTracksConsumption) {
  std::vector<std::uint8_t> bytes{0, 0, 0, 0, 0, 0, 0, 0};
  DataReader r(bytes);
  EXPECT_EQ(r.remaining(), 8u);
  r.read_u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.read_u32();
  EXPECT_TRUE(r.at_end());
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): shares no code or table
/// with Crc32, so it checks both the folded kernel and the bytewise loop.
std::uint32_t reference_crc(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard CRC-32 check value).
  const char* check = "123456789";
  EXPECT_EQ(Crc32::compute(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(Crc32::compute(nullptr, 0), 0x00000000u);
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths cross every path: bytewise only (< 64), one 64-byte block plus
  // 16-byte steps and a tail, and many blocks; start offsets 0-15 make the
  // kernel's 16-byte loads unaligned.
  std::mt19937 rng(11);
  std::vector<std::uint8_t> data(1100 + 16);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (std::size_t start = 0; start < 16; ++start)
    for (std::size_t n = 0; n <= 1100; ++n)
      ASSERT_EQ(Crc32::compute(data.data() + start, n),
                reference_crc(data.data() + start, n))
          << "start " << start << ", length " << n;
}

TEST(Crc32, IncrementalMatchesOneShot) {
  // 1 MiB fed in pieces that split 64-byte blocks anywhere: pieces under
  // 64 bytes (bytewise only), a few hundred bytes, and tens of KiB.
  std::mt19937 rng(7);
  std::vector<std::uint8_t> data(1u << 20);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t whole = reference_crc(data.data(), data.size());
  EXPECT_EQ(Crc32::compute(data.data(), data.size()), whole);
  Crc32 crc;
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t limit[] = {64, 1000, 70000};
    std::size_t n = std::min<std::size_t>(rng() % limit[rng() % 3],
                                          data.size() - off);
    crc.update(data.data() + off, n);
    off += n;
  }
  EXPECT_EQ(crc.value(), whole);
}

TEST(Crc32, FormatPin) {
  // Every log, .bak file and fsck verdict on disk depends on this value: a
  // wrong fold constant must fail here, not orphan existing logs.
  std::vector<std::uint8_t> data(4u << 20);
  std::uint64_t x = 1;
  for (auto& b : data) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(x >> 56);
  }
  EXPECT_EQ(Crc32::compute(data.data(), data.size()), 0x467FC2ECu);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(128, 0x33);
  std::uint32_t original = Crc32::compute(data.data(), data.size());
  data[64] ^= 0x01;
  EXPECT_NE(Crc32::compute(data.data(), data.size()), original);
}

TEST(CountingSink, CountsWithoutStoring) {
  CountingSink sink;
  DataWriter w(sink);
  for (int i = 0; i < 100; ++i) w.write_u64(static_cast<std::uint64_t>(i));
  w.flush();
  EXPECT_EQ(sink.count(), 800u);
}

TEST(FileIo, SinkRoundTrip) {
  std::string path = ::testing::TempDir() + "/ickpt_io_test.bin";
  {
    FileSink sink(path);
    DataWriter w(sink);
    w.write_u32(0xCAFEBABE);
    w.write_string("stable");
    w.flush();
  }
  auto bytes = read_file(path);
  DataReader r(bytes);
  EXPECT_EQ(r.read_u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.read_string(), "stable");
  std::remove(path.c_str());
}

TEST(FileIo, AppendMode) {
  std::string path = ::testing::TempDir() + "/ickpt_io_append.bin";
  std::remove(path.c_str());
  {
    FileSink sink(path, FileSink::Mode::kAppend);
    std::uint8_t a = 1;
    sink.write(&a, 1);
  }
  {
    FileSink sink(path, FileSink::Mode::kAppend);
    std::uint8_t b = 2;
    sink.write(&b, 1);
  }
  auto bytes = read_file(path);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 1);
  EXPECT_EQ(bytes[1], 2);
  std::remove(path.c_str());
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/ickpt/nope.bin"), IoError);
}

TEST(FileIo, TruncateFileShrinksTheFile) {
  const std::string path = ::testing::TempDir() + "/ickpt_truncate.bin";
  write_file(path, std::vector<std::uint8_t>(10, 0x5A));
  truncate_file(path, 4);
  EXPECT_EQ(read_file(path), std::vector<std::uint8_t>(4, 0x5A));
  std::remove(path.c_str());
  EXPECT_THROW(truncate_file(path, 0), IoError);
}

TEST(FileIo, TruncateFileThrowsWhenTheCutCannotBeSynced) {
  // repair() promises a durable truncation, so a failure to open the file
  // for its fsync is an error naming the path, not a silent success.
  const std::string path = ::testing::TempDir() + "/ickpt_truncate_wo.bin";
  write_file(path, std::vector<std::uint8_t>(10, 0x5A));
  ASSERT_EQ(::chmod(path.c_str(), S_IWUSR), 0);  // truncatable, not readable
  if (const int fd = ::open(path.c_str(), O_RDONLY); fd >= 0) {
    ::close(fd);
    std::remove(path.c_str());
    GTEST_SKIP() << "this process may read a write-only file (root)";
  }
  try {
    truncate_file(path, 4);
    ADD_FAILURE() << "truncate_file must report the failed open";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ickpt::io
