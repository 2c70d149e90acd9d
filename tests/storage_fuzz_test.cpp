// Randomized stable-storage properties:
//   * prefix property: for ANY byte-truncation of ANY log, scan returns a
//     prefix of the untruncated scan's frames (never a wrong frame, never a
//     later frame without its predecessors);
//   * corruption property: flipping ANY single byte never yields a frame
//     sequence that disagrees with the original on the frames it keeps,
//     and salvage loses exactly the frame holding the flipped byte;
//   * file/memory agreement: every damaged image scans to the same result,
//     field for field, from memory and from a file, plain and in salvage
//     mode, with payloads that straddle the reader's 64 KiB refill chunks;
//   * AsyncLog sticky-error property: a failing append surfaces on drain.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <random>

#include "common/error.hpp"
#include "core/async_log.hpp"
#include "io/file_io.hpp"
#include "io/stable_storage.hpp"

namespace ickpt::io {
namespace {

/// Payload sizes from three ranges: small frames that share one window,
/// frames near one 64 KiB refill chunk, and frames spanning several.
std::size_t payload_size(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      return rng() % 201;
    case 1:
      return 60000 + rng() % 12001;
    default:
      return 100000 + rng() % 200001;
  }
}

std::vector<std::uint8_t> random_log(std::mt19937_64& rng, int frames,
                                     std::vector<std::vector<std::uint8_t>>&
                                         payloads_out) {
  std::string path = ::testing::TempDir() + "/ickpt_fuzzlog_" +
                     std::to_string(rng()) + ".log";
  std::remove(path.c_str());
  {
    StableStorage storage(path);
    for (int i = 0; i < frames; ++i) {
      std::vector<std::uint8_t> payload(payload_size(rng));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
      storage.append(payload);
      payloads_out.push_back(std::move(payload));
    }
  }
  auto bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

void expect_same(const ScanResult& file, const ScanResult& mem) {
  EXPECT_EQ(file.clean, mem.clean);
  EXPECT_EQ(file.stop_reason, mem.stop_reason);
  EXPECT_EQ(file.stop_offset, mem.stop_offset);
  EXPECT_EQ(file.valid_prefix_bytes, mem.valid_prefix_bytes);
  EXPECT_EQ(file.regions_skipped, mem.regions_skipped);
  EXPECT_EQ(file.bytes_skipped, mem.bytes_skipped);
  ASSERT_EQ(file.frames.size(), mem.frames.size());
  for (std::size_t i = 0; i < file.frames.size(); ++i) {
    EXPECT_EQ(file.frames[i].seq, mem.frames[i].seq);
    EXPECT_EQ(file.frames[i].offset, mem.frames[i].offset);
    EXPECT_EQ(file.frames[i].resync, mem.frames[i].resync);
    EXPECT_EQ(file.frames[i].payload, mem.frames[i].payload);
  }
}

struct Scans {
  ScanResult plain;
  ScanResult salvage;
};

/// Scan `bytes` from memory and, written out, from a file, plain and in
/// salvage mode; the file and memory results must agree in every field.
/// Returns the in-memory scans.
Scans scan_both_ways(const std::vector<std::uint8_t>& bytes) {
  const std::string path = ::testing::TempDir() + "/ickpt_fuzz_image.log";
  write_file(path, bytes);
  Scans scans;
  for (const bool salvage : {false, true}) {
    ScanResult mem = StableStorage::scan_bytes(bytes, {.salvage = salvage});
    SCOPED_TRACE(salvage ? "salvage scan" : "plain scan");
    expect_same(StableStorage::scan(path, {.salvage = salvage}), mem);
    (salvage ? scans.salvage : scans.plain) = std::move(mem);
  }
  std::remove(path.c_str());
  return scans;
}

/// Byte offset of every frame, then the log's size.
std::vector<std::size_t> frame_bounds(
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<std::size_t> bounds{0};
  for (const auto& payload : payloads)
    bounds.push_back(bounds.back() + 20 + payload.size());
  return bounds;
}

class StorageFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageFuzz, TruncationYieldsPrefix) {
  std::mt19937_64 rng(GetParam() * 7 + 1);
  std::vector<std::vector<std::uint8_t>> payloads;
  auto bytes = random_log(rng, 2 + static_cast<int>(rng() % 6), payloads);

  // Frame boundaries: a cut exactly at one yields a clean, shorter log —
  // indistinguishable by design from a log that simply has fewer frames.
  const std::vector<std::size_t> boundaries = frame_bounds(payloads);

  for (int trial = 0; trial < 32; ++trial) {
    std::size_t cut = rng() % (bytes.size() + 1);
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(cut));
    SCOPED_TRACE("cut=" + std::to_string(cut));
    ScanResult scan = scan_both_ways(truncated).plain;
    ASSERT_LE(scan.frames.size(), payloads.size());
    for (std::size_t i = 0; i < scan.frames.size(); ++i) {
      EXPECT_EQ(scan.frames[i].seq, i);
      EXPECT_EQ(scan.frames[i].payload, payloads[i]) << "cut=" << cut;
    }
    const bool on_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    EXPECT_EQ(scan.clean, on_boundary) << "cut=" << cut;
  }
}

TEST_P(StorageFuzz, SingleByteFlipNeverForgesFrames) {
  std::mt19937_64 rng(GetParam() * 13 + 5);
  std::vector<std::vector<std::uint8_t>> payloads;
  auto bytes = random_log(rng, 3, payloads);
  const std::vector<std::size_t> bounds = frame_bounds(payloads);

  for (int trial = 0; trial < 64; ++trial) {
    auto corrupted = bytes;
    std::size_t pos = rng() % corrupted.size();
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    SCOPED_TRACE("pos=" + std::to_string(pos));
    const Scans scans = scan_both_ways(corrupted);
    // Whatever survives must be a prefix of the true frames, except that a
    // flip inside payload bytes is caught by the CRC, and a flip in a
    // header is caught by magic/CRC/length checks.
    const ScanResult& scan = scans.plain;
    ASSERT_LE(scan.frames.size(), payloads.size());
    for (std::size_t i = 0; i < scan.frames.size(); ++i)
      EXPECT_EQ(scan.frames[i].payload, payloads[i]) << "pos=" << pos;

    // Salvage loses exactly the damaged frame and skips exactly its bytes,
    // however far past the reader's window a (possibly corrupt) length
    // sent it.
    const std::size_t hit = static_cast<std::size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), pos) - bounds.begin() -
        1);
    const ScanResult& salvaged = scans.salvage;
    EXPECT_EQ(salvaged.stop_offset, bounds[hit]);
    EXPECT_EQ(salvaged.regions_skipped, 1u);
    EXPECT_EQ(salvaged.bytes_skipped, bounds[hit + 1] - bounds[hit]);
    ASSERT_EQ(salvaged.frames.size(), payloads.size() - 1);
    for (std::size_t i = 0; i < salvaged.frames.size(); ++i) {
      const std::size_t seq = i < hit ? i : i + 1;
      EXPECT_EQ(salvaged.frames[i].seq, seq);
      EXPECT_EQ(salvaged.frames[i].offset, bounds[seq]);
      EXPECT_EQ(salvaged.frames[i].resync, seq == hit + 1);
      EXPECT_EQ(salvaged.frames[i].payload, payloads[seq]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(StorageScan, HugeLengthPastEndOfFileIsATornPayload) {
  // A header whose length claims about 1 GiB, in a log of about 100 KB: the
  // reader must call it torn without sizing a buffer for it, and salvage
  // must still reach the frames after it.
  std::mt19937_64 rng(42);
  std::vector<std::vector<std::uint8_t>> payloads;
  const std::string path = ::testing::TempDir() + "/ickpt_huge_length.log";
  std::remove(path.c_str());
  {
    StableStorage storage(path);
    for (const std::size_t n : {30000, 40000, 20000, 10000}) {
      std::vector<std::uint8_t> payload(n);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
      storage.append(payload);
      payloads.push_back(std::move(payload));
    }
  }
  auto bytes = read_file(path);
  const std::size_t bad = 20 + payloads[0].size();  // second frame's header
  const std::uint32_t claimed = (1u << 30) - 1;
  for (int i = 0; i < 4; ++i)
    bytes[bad + 12 + i] = static_cast<std::uint8_t>(claimed >> (24 - 8 * i));
  write_file(path, bytes);

  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  for (const bool from_file : {true, false}) {
    SCOPED_TRACE(from_file ? "file" : "memory");
    ScanResult plain = from_file ? StableStorage::scan(path)
                                 : StableStorage::scan_bytes(bytes);
    EXPECT_FALSE(plain.clean);
    EXPECT_EQ(plain.stop_reason, "torn frame payload");
    EXPECT_EQ(plain.stop_offset, bad);
    ASSERT_EQ(plain.frames.size(), 1u);
    EXPECT_EQ(plain.frames[0].payload, payloads[0]);

    ScanResult salvage =
        from_file ? StableStorage::scan(path, {.salvage = true})
                  : StableStorage::scan_bytes(bytes, {.salvage = true});
    EXPECT_EQ(salvage.stop_reason, "torn frame payload");
    ASSERT_EQ(salvage.frames.size(), 3u);
    EXPECT_EQ(salvage.frames[1].seq, 2u);
    EXPECT_TRUE(salvage.frames[1].resync);
    EXPECT_EQ(salvage.frames[1].payload, payloads[2]);
    EXPECT_EQ(salvage.frames[2].payload, payloads[3]);
    EXPECT_EQ(salvage.regions_skipped, 1u);
    EXPECT_EQ(salvage.bytes_skipped, 20 + payloads[1].size());
  }
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  // ru_maxrss is in KiB; a buffer sized to the claimed length would add
  // about 1 GiB to the peak.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 256 * 1024);
  std::remove(path.c_str());
}

/// One payload of `n` bytes of `fill` in chunks from `pool`.
io::ChunkSink chunk_payload(io::ChunkPool& pool, std::size_t n,
                            std::uint8_t fill) {
  io::ChunkSink sink(pool);
  const std::vector<std::uint8_t> bytes(n, fill);
  sink.write(bytes.data(), bytes.size());
  return sink;
}

TEST(AsyncLogErrors, FailedAppendSurfacesOnDrain) {
  std::string path = ::testing::TempDir() + "/ickpt_async_err.log";
  std::remove(path.c_str());
  // A torn write inside the first frame header: the worker's append throws;
  // the error must be sticky, surface on drain, and carry the seq of the
  // lost frame.
  io::ScriptedFaultPolicy torn(io::FaultKind::kTornWrite, 5);
  StableStorage storage(path, io::StorageOptions{.fault = &torn});
  io::ChunkPool pool;
  core::AsyncLog log(storage);
  log.submit(chunk_payload(pool, 64, 0x41));
  try {
    log.drain();
    FAIL() << "drain() must rethrow the background append failure";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("seq 0"), std::string::npos)
        << e.what();
  }
  // A lost append would leave a hole in the frame/epoch correspondence, so
  // the log is poisoned: further submits rethrow instead of writing frames
  // under the wrong sequence numbers.
  EXPECT_TRUE(log.poisoned());
  io::ChunkSink late = chunk_payload(pool, 16, 0x42);
  EXPECT_THROW(log.submit(std::move(late)), IoError);
  EXPECT_EQ(late.size(), 16u) << "a refused payload stays with the caller";
  auto scan = StableStorage::scan(path);
  EXPECT_TRUE(scan.frames.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ickpt::io
