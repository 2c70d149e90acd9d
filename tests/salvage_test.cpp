// Salvage recovery and repair: mid-log corruption costs one checkpoint
// window instead of the whole suffix, a corrupt most-recent full falls back
// to the prior window (or a clean CorruptionError — never a partial graph),
// FrameIterator streams frames with byte offsets, and
// StableStorage::repair / reopen-time auto-repair truncate only the
// unreadable tail (settled frames beyond mid-log damage are preserved)
// with the removed bytes saved to .bak.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/manager.hpp"
#include "io/file_io.hpp"
#include "io/stable_storage.hpp"
#include "tests/test_types.hpp"
#include "verify/fsck.hpp"

namespace ickpt::testing {
namespace {

using core::CheckpointManager;
using core::ManagerOptions;
using core::TypeRegistry;
using io::StableStorage;

// Raw-log helpers: 16-byte payloads => every frame is 20 + 16 = 36 bytes.
constexpr std::size_t kFrameBytes = 36;

std::vector<std::uint8_t> payload_of(std::uint8_t fill) {
  return std::vector<std::uint8_t>(16, fill);
}

class SalvageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ickpt_salvage_test.log";
    std::remove(path_.c_str());
    std::remove((path_ + ".bak").c_str());
    register_test_types(registry_);
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".bak").c_str());
  }

  /// Take `n` checkpoints of one leaf (value 10+i at epoch i) and return
  /// the frame table of the resulting clean log.
  std::vector<io::Frame> build_manager_log(unsigned full_interval, int n) {
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    ManagerOptions opts;
    opts.full_interval = full_interval;
    CheckpointManager manager(path_, opts);
    for (int i = 0; i < n; ++i) {
      leaf->set_i32(10 + i);
      manager.take(*leaf);
    }
    auto scan = StableStorage::scan(path_);
    EXPECT_TRUE(scan.clean);
    EXPECT_EQ(scan.frames.size(), static_cast<std::size_t>(n));
    return scan.frames;
  }

  /// Flip the first payload byte of the frame starting at `frame_offset`.
  void corrupt_payload_at(std::uint64_t frame_offset) {
    auto bytes = io::read_file(path_);
    ASSERT_LT(frame_offset + 20, bytes.size());
    bytes[frame_offset + 20] ^= 0xFF;
    io::write_file(path_, bytes);
  }

  std::string path_;
  TypeRegistry registry_;
};

TEST_F(SalvageTest, SalvageScanResyncsPastMidLogCorruption) {
  {
    StableStorage storage(path_);
    for (std::uint8_t i = 0; i < 4; ++i) storage.append(payload_of(i));
  }
  corrupt_payload_at(kFrameBytes);  // frame 1

  auto plain = StableStorage::scan(path_);
  EXPECT_FALSE(plain.clean);
  ASSERT_EQ(plain.frames.size(), 1u);
  EXPECT_EQ(plain.stop_offset, kFrameBytes);
  EXPECT_EQ(plain.valid_prefix_bytes, kFrameBytes);

  auto salvaged = StableStorage::scan(path_, {.salvage = true});
  EXPECT_FALSE(salvaged.clean);
  ASSERT_EQ(salvaged.frames.size(), 3u);
  EXPECT_EQ(salvaged.frames[0].seq, 0u);
  EXPECT_EQ(salvaged.frames[1].seq, 2u);
  EXPECT_EQ(salvaged.frames[2].seq, 3u);
  EXPECT_FALSE(salvaged.frames[0].resync);
  EXPECT_TRUE(salvaged.frames[1].resync);
  EXPECT_FALSE(salvaged.frames[2].resync);
  EXPECT_EQ(salvaged.frames[1].offset, 2 * kFrameBytes);
  EXPECT_EQ(salvaged.stop_offset, kFrameBytes);
  EXPECT_EQ(salvaged.regions_skipped, 1u);
  EXPECT_EQ(salvaged.bytes_skipped, kFrameBytes);
}

TEST_F(SalvageTest, FrameIteratorStreamsFramesWithOffsets) {
  {
    StableStorage storage(path_);
    for (std::uint8_t i = 0; i < 3; ++i) storage.append(payload_of(i));
  }
  io::FrameIterator it(path_);
  io::Frame frame;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(it.next(frame));
    EXPECT_EQ(frame.seq, i);
    EXPECT_EQ(frame.offset, i * kFrameBytes);
    EXPECT_EQ(frame.payload, payload_of(static_cast<std::uint8_t>(i)));
  }
  EXPECT_FALSE(it.next(frame));
  EXPECT_TRUE(it.clean());
  EXPECT_EQ(it.valid_prefix_bytes(), 3 * kFrameBytes);

  // The in-memory iterator sees the identical stream.
  auto bytes = io::read_file(path_);
  io::FrameIterator mem(bytes.data(), bytes.size());
  std::size_t count = 0;
  while (mem.next(frame)) ++count;
  EXPECT_EQ(count, 3u);
  EXPECT_TRUE(mem.clean());

  // A missing file is an empty, clean log.
  io::FrameIterator missing(path_ + ".does-not-exist");
  EXPECT_FALSE(missing.next(frame));
  EXPECT_TRUE(missing.clean());
  EXPECT_EQ(missing.valid_prefix_bytes(), 0u);
}

TEST_F(SalvageTest, FrameIteratorOpensAtRecordedOffset) {
  {
    StableStorage storage(path_);
    for (std::uint8_t i = 0; i < 4; ++i) storage.append(payload_of(i));
  }
  // From a frame boundary: the frames from there on, at their absolute
  // offsets, fully checked.
  io::FrameIterator it(path_, {}, 2 * kFrameBytes);
  io::Frame frame;
  for (std::uint64_t i = 2; i < 4; ++i) {
    ASSERT_TRUE(it.next(frame));
    EXPECT_EQ(frame.seq, i);
    EXPECT_EQ(frame.offset, i * kFrameBytes);
    EXPECT_FALSE(frame.resync);
    EXPECT_EQ(frame.payload, payload_of(static_cast<std::uint8_t>(i)));
  }
  EXPECT_FALSE(it.next(frame));
  EXPECT_TRUE(it.clean());
  EXPECT_EQ(it.valid_prefix_bytes(), 4 * kFrameBytes);

  // Off a boundary the bytes do not parse as a frame: damage, no frames.
  io::FrameIterator off(path_, {}, 2 * kFrameBytes + 1);
  EXPECT_FALSE(off.next(frame));
  EXPECT_FALSE(off.clean());
  EXPECT_EQ(off.stop_offset(), 2 * kFrameBytes + 1);

  // At or past the end there is nothing to read.
  io::FrameIterator end(path_, {}, 4 * kFrameBytes);
  EXPECT_FALSE(end.next(frame));
  EXPECT_TRUE(end.clean());
}

TEST_F(SalvageTest, HeaderPassChecksWhatTheFullPassChecks) {
  // next_header streams payloads through the iterator's window and keeps
  // only a prefix of each; it must accept and reject exactly the frames
  // next() does, and keep exactly their first bytes. Big frames span
  // several windows; consecutive payload bytes differ by 7, so no magic
  // resync hides inside them, flipped byte or not.
  std::vector<std::uint8_t> big(300000);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 7);
  std::vector<std::uint64_t> offsets{0};
  {
    StableStorage storage(path_);
    for (int i = 0; i < 6; ++i) {
      const auto payload =
          i % 2 == 0 ? payload_of(static_cast<std::uint8_t>(i)) : big;
      storage.append(payload);
      offsets.push_back(offsets.back() + 20 + payload.size());
    }
  }
  auto bytes = io::read_file(path_);
  bytes[offsets[2] + 20] ^= 0xFF;           // frame 2, inside the window
  bytes[offsets[3] + 20 + 200000] ^= 0xFF;  // frame 3, far past the window
  bytes.resize(bytes.size() - 1);           // frame 5 torn
  io::write_file(path_, bytes);

  struct Pass {
    std::vector<std::uint64_t> seqs, offsets;
    std::vector<bool> resync;
    std::vector<std::vector<std::uint8_t>> payloads;  // or the kept prefixes
    std::vector<std::size_t> lengths;
    bool clean = true;
    std::string stop_reason;
    std::uint64_t stop_offset = 0, valid_prefix = 0, bytes_skipped = 0;
    std::size_t regions = 0;
  };
  // `prefix` unset: next(); otherwise next_header(frame, *prefix).
  auto drain = [](io::FrameIterator& it, std::optional<std::size_t> prefix) {
    Pass p;
    io::Frame frame;
    while (prefix ? it.next_header(frame, *prefix) : it.next(frame)) {
      p.seqs.push_back(frame.seq);
      p.offsets.push_back(frame.offset);
      p.resync.push_back(frame.resync);
      p.payloads.push_back(frame.payload);
      p.lengths.push_back(frame.payload_bytes);
    }
    p.clean = it.clean();
    p.stop_reason = it.stop_reason();
    p.stop_offset = it.stop_offset();
    p.valid_prefix = it.valid_prefix_bytes();
    p.regions = it.regions_skipped();
    p.bytes_skipped = it.bytes_skipped();
    return p;
  };
  for (bool salvage : {false, true}) {
    SCOPED_TRACE(salvage ? "salvage" : "plain");
    io::FrameIterator full_it(path_, {.salvage = salvage});
    const Pass full = drain(full_it, std::nullopt);
    EXPECT_EQ(full.seqs, salvage ? std::vector<std::uint64_t>({0, 1, 4})
                                 : std::vector<std::uint64_t>({0, 1}));
    EXPECT_EQ(full.stop_reason, "frame CRC mismatch");
    EXPECT_EQ(full.stop_offset, offsets[2]);
    for (std::size_t i = 0; i < full.seqs.size(); ++i)
      EXPECT_EQ(full.lengths[i], full.payloads[i].size());
    for (const std::size_t prefix : {0, 11}) {
      SCOPED_TRACE("prefix " + std::to_string(prefix));
      io::FrameIterator header_it(path_, {.salvage = salvage});
      io::FrameIterator mem_it(bytes.data(), bytes.size(),
                               {.salvage = salvage});
      const Pass header = drain(header_it, prefix);
      const Pass mem = drain(mem_it, prefix);
      for (const Pass* p : {&header, &mem}) {
        EXPECT_EQ(p->seqs, full.seqs);
        EXPECT_EQ(p->offsets, full.offsets);
        EXPECT_EQ(p->resync, full.resync);
        EXPECT_EQ(p->lengths, full.lengths);
        for (std::size_t i = 0; i < full.seqs.size() && i < p->seqs.size();
             ++i) {
          const auto& whole = full.payloads[i];
          EXPECT_EQ(p->payloads[i],
                    std::vector<std::uint8_t>(
                        whole.begin(),
                        whole.begin() + std::min(prefix, whole.size())));
        }
        EXPECT_EQ(p->clean, full.clean);
        EXPECT_EQ(p->stop_reason, full.stop_reason);
        EXPECT_EQ(p->stop_offset, full.stop_offset);
        EXPECT_EQ(p->valid_prefix, full.valid_prefix);
        EXPECT_EQ(p->regions, full.regions);
        EXPECT_EQ(p->bytes_skipped, full.bytes_skipped);
      }
    }
  }
}

TEST_F(SalvageTest, HeaderPassKeepsPrefixesThatStraddleTheWindow) {
  // One 23-byte payload, then 16-byte ones: with the iterator's 128 KiB
  // window, frame 3640's header ends 5 bytes before the window does, so
  // its 11-byte prefix is read partly from the window and partly from the
  // refill. Every payload's bytes name its frame, so a prefix taken from
  // the wrong place cannot match.
  std::vector<std::vector<std::uint8_t>> payloads;
  {
    StableStorage storage(path_);
    for (std::size_t i = 0; i < 4000; ++i) {
      std::vector<std::uint8_t> payload(i == 0 ? 23 : 16);
      for (std::size_t b = 0; b < payload.size(); ++b)
        payload[b] = static_cast<std::uint8_t>(i * 31 + b);
      storage.append(payload);
      payloads.push_back(payload);
    }
  }
  io::FrameIterator it(path_);
  io::Frame frame;
  std::size_t n = 0;
  while (it.next_header(frame, 11)) {
    ASSERT_LT(n, payloads.size());
    EXPECT_EQ(frame.payload_bytes, payloads[n].size());
    EXPECT_EQ(frame.payload, std::vector<std::uint8_t>(
                                 payloads[n].begin(), payloads[n].begin() + 11))
        << "frame " << n;
    ++n;
  }
  EXPECT_EQ(n, payloads.size());
  EXPECT_TRUE(it.clean());
}

// Regression for the pre-salvage behavior: one corrupt incremental used to
// cost every later checkpoint, including two fulls that supersede it.
// Recovery now resyncs past it (plain-scan truncation stays pinned at the
// io level by SalvageScanResyncsPastMidLogCorruption).
TEST_F(SalvageTest, RecoverSalvagesSuffixAfterMidLogCorruption) {
  auto frames = build_manager_log(/*full_interval=*/2, /*n=*/6);
  corrupt_payload_at(frames[1].offset);  // incremental at epoch 1

  auto salvaged = CheckpointManager::recover(path_, registry_);
  EXPECT_FALSE(salvaged.log_clean);
  // Resync found frames 2..5; the newest window is the epoch-4 full plus
  // the epoch-5 incremental.
  EXPECT_EQ(salvaged.checkpoints_applied, 2u);
  EXPECT_EQ(salvaged.state.root_as<Leaf>()->i32, 15);
  EXPECT_EQ(salvaged.state.epoch, 5u);
  EXPECT_EQ(salvaged.frames_total, 5u);
  EXPECT_EQ(salvaged.frames_dropped, 3u);
  EXPECT_EQ(salvaged.corrupt_regions, 1u);
  EXPECT_EQ(salvaged.damage_offset, frames[1].offset);
  EXPECT_GT(salvaged.bytes_skipped, 0u);
  EXPECT_FALSE(salvaged.log_note.empty());
  EXPECT_NE(salvaged.log_note.find("at byte"), std::string::npos)
      << salvaged.log_note;
}

TEST_F(SalvageTest, CorruptMostRecentFullFallsBackToPriorWindow) {
  auto frames = build_manager_log(/*full_interval=*/3, /*n=*/7);
  // Fulls at epochs 0, 3, 6; kill the most recent one.
  corrupt_payload_at(frames[6].offset);

  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_FALSE(result.log_clean);
  // Falls back to the epoch-3 full plus incrementals 4 and 5.
  EXPECT_EQ(result.checkpoints_applied, 3u);
  EXPECT_EQ(result.state.root_as<Leaf>()->i32, 15);
  EXPECT_EQ(result.state.epoch, 5u);
}

// A squash keeps the newest *usable* state — exactly what recover() replays
// from the file — not the newest frame: with the epoch-6 full corrupt it
// keeps epoch 5 as one full frame (seq == epoch).
TEST_F(SalvageTest, SquashCompactionKeepsNewestUsableWindow) {
  auto frames = build_manager_log(/*full_interval=*/3, /*n=*/7);
  corrupt_payload_at(frames[6].offset);
  const auto before = CheckpointManager::recover(path_, registry_);

  const auto compacted = CheckpointManager::compact(path_, registry_);
  EXPECT_EQ(compacted.retained, std::vector<Epoch>{before.state.epoch});
  EXPECT_EQ(compacted.epochs_dropped, 0u);

  auto scan = StableStorage::scan(path_);
  EXPECT_TRUE(scan.clean);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].seq, before.state.epoch);
  // bytes_after is the squashed payload, without the frame header.
  EXPECT_EQ(compacted.bytes_after, scan.frames[0].payload.size());

  const auto after = CheckpointManager::recover(path_, registry_);
  EXPECT_TRUE(after.log_clean);
  EXPECT_EQ(after.state.epoch, 5u);
  EXPECT_EQ(after.state.root_as<Leaf>()->i32, 15);
}

TEST_F(SalvageTest, CorruptOnlyFullThrowsCorruptionError) {
  auto frames = build_manager_log(/*full_interval=*/100, /*n=*/5);
  corrupt_payload_at(frames[0].offset);  // the only full checkpoint
  // Incrementals alone cannot reconstruct the graph: a clean error, never a
  // partial state.
  try {
    CheckpointManager::recover(path_, registry_);
    FAIL() << "recovery without a usable full checkpoint must throw";
  } catch (const CorruptionError& e) {
    EXPECT_NE(std::string(e.what()).find("full checkpoint"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SalvageTest, RepairTruncatesTornTailAndFsckGoesClean) {
  auto frames = build_manager_log(/*full_interval=*/100, /*n=*/4);
  auto bytes = io::read_file(path_);
  const std::uint64_t torn_at = frames[3].offset;
  const std::uint64_t torn_bytes = bytes.size() - torn_at - 7;
  bytes.resize(bytes.size() - 7);  // tear the final frame
  io::write_file(path_, bytes);

  auto before = verify::fsck_log(path_, registry_);
  EXPECT_FALSE(before.clean());
  const auto* tail = before.first("log-tail");
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(tail->byte_offset, static_cast<std::int64_t>(torn_at));

  auto repaired = StableStorage::repair(path_);
  EXPECT_TRUE(repaired.repaired);
  EXPECT_EQ(repaired.frames_kept, 3u);
  EXPECT_EQ(repaired.bytes_removed, torn_bytes);
  EXPECT_FALSE(repaired.reason.empty());
  EXPECT_EQ(repaired.bak_path, path_ + ".bak");
  EXPECT_EQ(io::read_file(repaired.bak_path).size(), torn_bytes);

  auto after = verify::fsck_log(path_, registry_);
  EXPECT_TRUE(after.clean()) << after.to_string();
  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_TRUE(result.log_clean);
  EXPECT_EQ(result.state.epoch, 2u);
  EXPECT_EQ(result.state.root_as<Leaf>()->i32, 12);
}

TEST_F(SalvageTest, RepairSavesATornTailSpanningManyCopyChunks) {
  // repair() copies the removed tail to .bak in fixed-size chunks; a torn
  // frame of a few hundred KiB spans many of them and must land byte for
  // byte. (Consecutive payload bytes differ by 7, so no magic resync hides
  // inside the torn payload.)
  {
    StableStorage storage(path_);
    storage.append(payload_of(1));
    std::vector<std::uint8_t> big(300000);
    for (std::size_t i = 0; i < big.size(); ++i)
      big[i] = static_cast<std::uint8_t>(i * 7);
    storage.append(big);
  }
  auto bytes = io::read_file(path_);
  bytes.pop_back();  // tear the big frame
  io::write_file(path_, bytes);

  auto repaired = StableStorage::repair(path_);
  EXPECT_TRUE(repaired.repaired);
  EXPECT_EQ(repaired.frames_kept, 1u);
  EXPECT_EQ(repaired.reason, "torn frame payload");
  EXPECT_EQ(repaired.bytes_removed, bytes.size() - kFrameBytes);
  EXPECT_EQ(io::read_file(repaired.bak_path),
            std::vector<std::uint8_t>(bytes.begin() + kFrameBytes,
                                      bytes.end()));
  EXPECT_EQ(io::file_size(path_), kFrameBytes);
}

TEST_F(SalvageTest, RepairOnCleanLogIsNoOp) {
  auto size_before = [&] {
    build_manager_log(/*full_interval=*/4, /*n=*/3);
    return io::read_file(path_).size();
  }();
  auto repaired = StableStorage::repair(path_);
  EXPECT_FALSE(repaired.repaired);
  EXPECT_EQ(repaired.bytes_removed, 0u);
  EXPECT_EQ(io::read_file(path_).size(), size_before);
}

TEST_F(SalvageTest, ReopenAfterMidLogDamagePreservesLaterFramesAndSeqs) {
  {
    StableStorage storage(path_);
    for (std::uint8_t i = 0; i < 3; ++i) storage.append(payload_of(i));
  }
  // Corrupt frame 1: the plain-scan prefix ends at frame 0, but frame 2
  // (seq 2) is settled state beyond the damage. Reopen must keep it in the
  // log — the damage is mid-log, not an unreadable tail — and resume seq
  // numbering above it so new frames can never collide.
  corrupt_payload_at(kFrameBytes);

  StableStorage reopened(path_);
  EXPECT_EQ(reopened.next_seq(), 3u);
  EXPECT_EQ(reopened.append(payload_of(9)), 3u);

  // Nothing was truncated or moved aside: mid-log damage stays in place
  // for salvage readers, and appends land after the clean tail boundary.
  EXPECT_FALSE(io::file_exists(path_ + ".bak"));
  EXPECT_FALSE(StableStorage::scan(path_).clean);
  auto salvaged = StableStorage::scan(path_, {.salvage = true});
  ASSERT_EQ(salvaged.frames.size(), 3u);
  EXPECT_EQ(salvaged.frames[0].seq, 0u);
  EXPECT_EQ(salvaged.frames[1].seq, 2u);
  EXPECT_EQ(salvaged.frames[2].seq, 3u);
}

TEST_F(SalvageTest, RepairOnMidLogDamageOnlyIsNoOp) {
  auto frames = build_manager_log(/*full_interval=*/100, /*n=*/4);
  const auto size_before = io::read_file(path_).size();
  corrupt_payload_at(frames[1].offset);

  auto repaired = StableStorage::repair(path_);
  EXPECT_FALSE(repaired.repaired);
  EXPECT_EQ(repaired.bytes_removed, 0u);
  EXPECT_EQ(repaired.frames_kept, 3u);
  EXPECT_NE(repaired.reason.find("mid-log"), std::string::npos)
      << repaired.reason;
  EXPECT_EQ(io::read_file(path_).size(), size_before);
}

TEST_F(SalvageTest, RepairKeepsSettledFramesBehindMidLogDamage) {
  // The chaos-soak data-loss scenario: a bit flip lands in one frame
  // (silent at write time, CRC-bad at read time), later epochs — including
  // a fresh full checkpoint — append fine after it, then a crash tears the
  // tail. Repair must remove only the torn bytes; truncating at the first
  // damage would destroy the settled suffix.
  auto frames = build_manager_log(/*full_interval=*/3, /*n=*/7);
  corrupt_payload_at(frames[1].offset);  // flip an early incremental
  auto bytes = io::read_file(path_);
  bytes.resize(bytes.size() - 7);  // tear the final frame (the epoch-6 full)
  io::write_file(path_, bytes);
  const std::uint64_t torn_bytes = bytes.size() - frames[6].offset;

  auto repaired = StableStorage::repair(path_);
  EXPECT_TRUE(repaired.repaired);
  EXPECT_EQ(repaired.frames_kept, 5u);  // frames 0,2,3,4,5 survive
  EXPECT_EQ(repaired.bytes_removed, torn_bytes);
  EXPECT_NE(repaired.reason.find("damaged tail"), std::string::npos)
      << repaired.reason;
  EXPECT_EQ(io::read_file(path_).size(), frames[6].offset);

  // Recovery chains the epoch-3 full with incrementals 4 and 5.
  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_EQ(result.state.epoch, 5u);
  EXPECT_EQ(result.state.root_as<Leaf>()->i32, 15);
}

}  // namespace
}  // namespace ickpt::testing
